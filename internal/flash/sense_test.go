package flash

import (
	"errors"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// senseSpec is a small geometry for sense tests: 8 banks of 4 pages.
func senseSpec() Spec {
	s := DefaultSpec()
	s.PageSize = 64
	s.NumPages = 32
	s.Banks = 8
	return s
}

// fillRandom programs every page of d with seeded random contents.
func fillRandom(t *testing.T, d *Device, rng *xrand.RNG) {
	t.Helper()
	sp := d.Spec()
	buf := make([]byte, sp.PageSize)
	for p := 0; p < sp.NumPages; p++ {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		if err := d.EraseProgramPage(p, buf); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
}

// hostOracle computes the op-combination of the given pages from Peek'd
// contents — the host-side ground truth an in-flash sense must match.
func hostOracle(d *Device, op SenseOp, pages []int, invert []bool, dst []byte) {
	sp := d.Spec()
	fill := byte(0xFF)
	if op == SenseOR {
		fill = 0
	}
	for i := range dst {
		dst[i] = fill
	}
	page := make([]byte, sp.PageSize)
	for j, p := range pages {
		d.PeekPage(p, page)
		for i, v := range page {
			if invert != nil && invert[j] {
				v = ^v
			}
			if op == SenseAND {
				dst[i] &= v
			} else {
				dst[i] |= v
			}
		}
	}
}

// randomPlan draws a same-bank page set, op and invert mask from rng.
func randomPlan(d *Device, rng *xrand.RNG) (SenseOp, []int, []bool) {
	sp := d.Spec()
	banks := d.Banks()
	perBank := sp.NumPages / banks
	b := rng.Intn(banks)
	n := 1 + rng.Intn(perBank)
	pages := make([]int, 0, n)
	for _, off := range rng.Perm(perBank)[:n] {
		pages = append(pages, b+off*banks)
	}
	op := SenseAND
	if rng.Intn(2) == 1 {
		op = SenseOR
	}
	var invert []bool
	if rng.Intn(2) == 1 {
		invert = make([]bool, n)
		for i := range invert {
			invert[i] = rng.Intn(2) == 1
		}
	}
	return op, pages, invert
}

// TestSenseMultiMatchesHostOracle: every AND/OR/NOT combination an in-flash
// sense can express equals the host-side bitwise combination of the stored
// pages, on random page contents and random plans.
func TestSenseMultiMatchesHostOracle(t *testing.T) {
	d := MustNewDevice(senseSpec())
	rng := xrand.New(0x5E45E)
	fillRandom(t, d, rng)
	got := make([]byte, d.Spec().PageSize)
	want := make([]byte, d.Spec().PageSize)
	for trial := 0; trial < 500; trial++ {
		op, pages, invert := randomPlan(d, rng)
		hostOracle(d, op, pages, invert, want)
		if err := d.SenseMulti(op, pages, invert, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%v over %v, invert %v): byte %d got %08b want %08b",
					trial, op, pages, invert, i, got[i], want[i])
			}
		}
	}
}

// TestSenseMultiMatchesOracleUnderFaults: with read-disturb and retention
// faults armed, every sense still equals the host oracle taken from the
// pre-sense array state — the damage lands post-serve, and the sense is
// margin-aware so marginal cells resolve to their stored values.
func TestSenseMultiMatchesOracleUnderFaults(t *testing.T) {
	d := MustNewDevice(senseSpec())
	rng := xrand.New(0xFA07)
	fillRandom(t, d, rng)
	d.SetFaultSchedule(7, FaultMix{
		ReadDisturb: 1, Retention: 1, MinGap: 0, MaxGap: 3,
	})
	defer d.ClearFaults()
	got := make([]byte, d.Spec().PageSize)
	want := make([]byte, d.Spec().PageSize)
	for trial := 0; trial < 400; trial++ {
		op, pages, invert := randomPlan(d, rng)
		hostOracle(d, op, pages, invert, want)
		if err := d.SenseMulti(op, pages, invert, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%v over %v, invert %v): byte %d got %08b want %08b",
					trial, op, pages, invert, i, got[i], want[i])
			}
		}
	}
	if d.FaultsFired() == 0 {
		t.Fatal("no faults fired; the test exercised nothing")
	}
}

// TestSenseMultiChargesOncePerSense: a K-page sense emits one OpSense event
// charged once — not K page reads — and the counters see one sense of K
// pages.
func TestSenseMultiChargesOncePerSense(t *testing.T) {
	d := MustNewDevice(senseSpec())
	sp := d.Spec()
	var events []OpEvent
	d.Attach(ObserverFunc(func(ev OpEvent) { events = append(events, ev) }))
	pages := []int{0, 8, 16} // bank 0 of the 8-bank split
	dst := make([]byte, sp.PageSize)
	if err := d.SenseMulti(SenseAND, pages, nil, dst); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Kind != OpSense || ev.Pages != 3 || ev.Bytes != sp.PageSize || ev.Bank != 0 {
		t.Fatalf("event %+v", ev)
	}
	wantEnergy := sp.SenseEnergy * energy.Energy(sp.PageSize)
	wantBusy := sp.SenseLatency * time.Duration(sp.PageSize)
	if ev.Energy != wantEnergy || ev.Busy != wantBusy {
		t.Fatalf("charged %v/%v, want %v/%v", ev.Energy, ev.Busy, wantEnergy, wantBusy)
	}
	st := d.Stats()
	if st.Senses != 1 || st.PagesSensed != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Energy != wantEnergy || st.Busy != wantBusy {
		t.Fatalf("ledger %v/%v, want %v/%v", st.Energy, st.Busy, wantEnergy, wantBusy)
	}
}

// TestSenseMultiMarginAware: a marginal retention cell must resolve to its
// stored value in a sense — host reads of the same page flicker.
func TestSenseMultiMarginAware(t *testing.T) {
	d := MustNewDevice(senseSpec())
	sp := d.Spec()
	buf := make([]byte, sp.PageSize)
	if err := d.EraseProgramPage(0, buf); err != nil { // all zeros: everything programmed
		t.Fatal(err)
	}
	d.ArmFault(Fault{Kind: FaultRetention})
	if _, err := d.ReadByteAt(0); err != nil { // trips retention: one cell goes marginal
		t.Fatal(err)
	}
	if d.RiseBits(0) != 1 {
		t.Fatalf("rise bits %d, want 1", d.RiseBits(0))
	}
	dst := make([]byte, sp.PageSize)
	for trial := 0; trial < 32; trial++ {
		if err := d.SenseMulti(SenseAND, []int{0}, nil, dst); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("trial %d: sense flickered: byte %d = %08b", trial, i, v)
			}
		}
	}
}

// TestSenseMultiErrors covers the argument contract.
func TestSenseMultiErrors(t *testing.T) {
	d := MustNewDevice(senseSpec())
	sp := d.Spec()
	dst := make([]byte, sp.PageSize)
	if err := d.SenseMulti(SenseAND, nil, nil, dst); !errors.Is(err, ErrSensePages) {
		t.Errorf("empty pages: %v", err)
	}
	big := make([]int, sp.MaxSensePages+1)
	if err := d.SenseMulti(SenseAND, big, nil, dst); !errors.Is(err, ErrSensePages) {
		t.Errorf("too many pages: %v", err)
	}
	if err := d.SenseMulti(SenseAND, []int{0, 1}, nil, dst); !errors.Is(err, ErrSenseBanks) {
		t.Errorf("cross-bank: %v", err)
	}
	if err := d.SenseMulti(SenseAND, []int{0, 8}, []bool{true}, dst); !errors.Is(err, ErrSenseInvert) {
		t.Errorf("invert mismatch: %v", err)
	}
	if err := d.SenseMulti(SenseAND, []int{0}, nil, dst[:8]); !errors.Is(err, ErrPageSize) {
		t.Errorf("short dst: %v", err)
	}
	if err := d.SenseMulti(SenseAND, []int{sp.NumPages}, nil, dst); !errors.Is(err, ErrBounds) {
		t.Errorf("out of range page: %v", err)
	}
}

// TestSenseMultiZeroAlloc: the steady-state sense path must not allocate.
func TestSenseMultiZeroAlloc(t *testing.T) {
	d := MustNewDevice(senseSpec())
	pages := []int{0, 8, 16, 24}
	dst := make([]byte, d.Spec().PageSize)
	invert := []bool{false, true, false, true}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.SenseMulti(SenseOR, pages, invert, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SenseMulti allocates %.1f times per op, want 0", allocs)
	}
}

// TestSpecValidate: malformed specs fail in NewDevice with a description of
// the problem instead of an unhelpful panic deep in the bank split.
func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	mut := []struct {
		name string
		f    func(*Spec)
	}{
		{"zero page size", func(s *Spec) { s.PageSize = 0 }},
		{"negative page size", func(s *Spec) { s.PageSize = -1 }},
		{"zero pages", func(s *Spec) { s.NumPages = 0 }},
		{"negative banks", func(s *Spec) { s.Banks = -1 }},
		{"pages not divisible by banks", func(s *Spec) { s.NumPages = 10; s.Banks = 4 }},
		{"pages not divisible by default banks", func(s *Spec) { s.NumPages = 6; s.Banks = 0 }},
		{"zero read latency", func(s *Spec) { s.ReadLatency = 0 }},
		{"zero program latency", func(s *Spec) { s.ProgramLatency = 0 }},
		{"zero erase latency", func(s *Spec) { s.EraseLatency = 0 }},
		{"zero read energy", func(s *Spec) { s.ReadEnergy = 0 }},
		{"zero program energy", func(s *Spec) { s.ProgramEnergy = 0 }},
		{"zero erase energy", func(s *Spec) { s.EraseEnergy = 0 }},
		{"negative sense latency", func(s *Spec) { s.SenseLatency = -1 }},
		{"negative sense energy", func(s *Spec) { s.SenseEnergy = -1 }},
		{"negative max sense pages", func(s *Spec) { s.MaxSensePages = -1 }},
		{"zero endurance", func(s *Spec) { s.EnduranceCycles = 0 }},
	}
	for _, tc := range mut {
		s := DefaultSpec()
		tc.f(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated but should have been rejected", tc.name)
		}
		if _, err := NewDevice(s); err == nil {
			t.Errorf("%s: NewDevice accepted the spec", tc.name)
		}
	}
	// Clamping interacts with divisibility: one page with many banks clamps
	// to one bank, which divides evenly.
	s := DefaultSpec()
	s.NumPages = 1
	s.Banks = 4
	if err := s.Validate(); err != nil {
		t.Errorf("single-page spec rejected: %v", err)
	}
	// Sense fields are normalised at device construction.
	d := MustNewDevice(DefaultSpec())
	sp := d.Spec()
	if sp.SenseLatency != 2*sp.ReadLatency || sp.SenseEnergy != 2*sp.ReadEnergy {
		t.Errorf("sense defaults not anchored on read cost: %v/%v", sp.SenseLatency, sp.SenseEnergy)
	}
	if sp.MaxSensePages != DefaultMaxSensePages {
		t.Errorf("MaxSensePages = %d, want %d", sp.MaxSensePages, DefaultMaxSensePages)
	}
}

// TestReadChargesPerTouchedPage: a Read spanning pages emits one OpRead per
// touched page, each charged per byte actually served from that page, so
// host-read cost comparisons are not skewed by call granularity.
func TestReadChargesPerTouchedPage(t *testing.T) {
	d := MustNewDevice(senseSpec())
	sp := d.Spec()
	var events []OpEvent
	d.Attach(ObserverFunc(func(ev OpEvent) { events = append(events, ev) }))
	// Span from mid-page 1 to mid-page 3: 2 partial pages + 1 full page.
	start := sp.PageSize + sp.PageSize/2
	n := 2 * sp.PageSize
	dst := make([]byte, n)
	if err := d.Read(start, dst); err != nil {
		t.Fatal(err)
	}
	wantSpans := []struct{ addr, bytes int }{
		{start, sp.PageSize / 2},
		{2 * sp.PageSize, sp.PageSize},
		{3 * sp.PageSize, sp.PageSize / 2},
	}
	if len(events) != len(wantSpans) {
		t.Fatalf("got %d OpRead events, want %d (one per touched page)", len(events), len(wantSpans))
	}
	var gotEnergy energy.Energy
	var gotBusy time.Duration
	for i, ev := range events {
		w := wantSpans[i]
		if ev.Kind != OpRead || ev.Addr != w.addr || ev.Bytes != w.bytes {
			t.Fatalf("event %d: %+v, want read addr %#x bytes %d", i, ev, w.addr, w.bytes)
		}
		if ev.Bank != d.BankOf(d.PageOf(w.addr)) {
			t.Fatalf("event %d delivered on bank %d, want %d", i, ev.Bank, d.BankOf(d.PageOf(w.addr)))
		}
		if ev.Energy != sp.ReadEnergy*energy.Energy(w.bytes) || ev.Busy != sp.ReadLatency*time.Duration(w.bytes) {
			t.Fatalf("event %d charged %v/%v, want per-byte read cost", i, ev.Energy, ev.Busy)
		}
		gotEnergy += ev.Energy
		gotBusy += ev.Busy
	}
	st := d.Stats()
	if st.Reads != uint64(n) {
		t.Fatalf("read bytes %d, want %d", st.Reads, n)
	}
	if st.Energy != gotEnergy || st.Busy != gotBusy {
		t.Fatalf("ledger %v/%v does not match the event stream %v/%v", st.Energy, st.Busy, gotEnergy, gotBusy)
	}
	if want := sp.ReadEnergy * energy.Energy(n); st.Energy != want {
		t.Fatalf("total read energy %v, want %v", st.Energy, want)
	}
}

// BenchmarkSenseMulti measures the steady-state multi-page sense.
func BenchmarkSenseMulti(b *testing.B) {
	d := MustNewDevice(senseSpec())
	pages := []int{0, 8, 16, 24}
	dst := make([]byte, d.Spec().PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SenseMulti(SenseAND, pages, nil, dst); err != nil {
			b.Fatal(err)
		}
	}
}
