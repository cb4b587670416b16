package flash

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func smallSpec() Spec {
	s := DefaultSpec()
	s.PageSize = 16
	s.NumPages = 8
	s.EnduranceCycles = 50
	return s
}

func TestDefaultSpecValid(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidateRejectsBadGeometry(t *testing.T) {
	mut := []func(*Spec){
		func(s *Spec) { s.PageSize = 0 },
		func(s *Spec) { s.NumPages = -1 },
		func(s *Spec) { s.ReadLatency = 0 },
		func(s *Spec) { s.EraseEnergy = 0 },
		func(s *Spec) { s.EnduranceCycles = 0 },
	}
	for i, m := range mut {
		s := DefaultSpec()
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate spec", i)
		}
	}
}

// TestPaperTableIRatios: Table I — erase is 340× slower and 360× more
// energetic than a program.
func TestPaperTableIRatios(t *testing.T) {
	s := DefaultSpec()
	latRatio := float64(s.EraseLatency) / float64(s.ProgramLatency)
	if math.Abs(latRatio-340) > 1 {
		t.Errorf("erase/program latency ratio = %.1f, want 340", latRatio)
	}
	engRatio := float64(s.EraseEnergy) / float64(s.ProgramEnergy)
	if math.Abs(engRatio-360) > 1 {
		t.Errorf("erase/program energy ratio = %.1f, want 360", engRatio)
	}
	// §I: writes consume 5 orders of magnitude more energy than reads.
	if r := float64(s.ProgramEnergy) / float64(s.ReadEnergy); math.Abs(r-1e5) > 1 {
		t.Errorf("program/read energy ratio = %g, want 1e5", r)
	}
}

// TestPaperFig1ErasePower: §II computes flash drawing 8.4× the M0+'s power
// during an erase; our spec must reproduce that.
func TestPaperFig1ErasePower(t *testing.T) {
	s := DefaultSpec()
	cpu := energy.CortexM0Plus()
	ratio := float64(s.ErasePower()) / float64(cpu.Power)
	if ratio < 8.2 || ratio > 8.6 {
		t.Errorf("erase power / CPU power = %.2f, paper says 8.4×", ratio)
	}
}

func TestNewDeviceStartsErased(t *testing.T) {
	d := MustNewDevice(smallSpec())
	for addr := 0; addr < d.Spec().Size(); addr++ {
		if d.Peek(addr) != 0xFF {
			t.Fatalf("addr %#x not erased at birth", addr)
		}
	}
}

func TestProgramOnlyClearsBits(t *testing.T) {
	d := MustNewDevice(smallSpec())
	if err := d.ProgramByte(0, 0b1010_1010); err != nil {
		t.Fatal(err)
	}
	if d.Peek(0) != 0b1010_1010 {
		t.Fatalf("stored %08b", d.Peek(0))
	}
	// Clearing more bits is fine.
	if err := d.ProgramByte(0, 0b1000_1000); err != nil {
		t.Fatal(err)
	}
	// Setting a cleared bit must fail.
	err := d.ProgramByte(0, 0b1100_1000)
	if !errors.Is(err, ErrNeedsErase) {
		t.Fatalf("expected ErrNeedsErase, got %v", err)
	}
	if d.Peek(0) != 0b1000_1000 {
		t.Fatalf("failed program must not modify the array: %08b", d.Peek(0))
	}
}

// TestProgramSubsetProperty: after any sequence of programs the stored value
// is the AND of all programmed values.
func TestProgramSubsetProperty(t *testing.T) {
	f := func(vals []byte) bool {
		d := MustNewDevice(smallSpec())
		acc := byte(0xFF)
		for _, v := range vals {
			acc &= v
			if err := d.ProgramByte(3, acc); err != nil {
				return false
			}
		}
		return d.Peek(3) == acc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEraseRestoresAllOnes(t *testing.T) {
	d := MustNewDevice(smallSpec())
	base := d.PageBase(2)
	for i := 0; i < d.Spec().PageSize; i++ {
		if err := d.ProgramByte(base+i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ErasePage(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Spec().PageSize; i++ {
		if d.Peek(base+i) != 0xFF {
			t.Fatalf("byte %d not erased", i)
		}
	}
	if d.Wear(2) != 1 {
		t.Errorf("wear = %d, want 1", d.Wear(2))
	}
}

func TestStatsAccounting(t *testing.T) {
	d := MustNewDevice(smallSpec())
	s := d.Spec()
	_, _ = d.ReadByteAt(0)
	_ = d.ProgramByte(0, 0x0F)
	_ = d.ProgramByte(0, 0x0F) // same value: skipped
	_ = d.ErasePage(0)
	st := d.Stats()
	if st.Reads != 1 || st.Programs != 1 || st.ProgramsSkipped != 1 || st.Erases != 1 {
		t.Fatalf("stats = %+v", st)
	}
	wantE := s.ReadEnergy + s.ProgramEnergy + s.EraseEnergy
	if math.Abs(float64(st.Energy-wantE)) > 1e-15 {
		t.Errorf("energy = %v, want %v", st.Energy, wantE)
	}
	wantT := s.ReadLatency + s.ProgramLatency + s.EraseLatency
	if st.Busy != wantT {
		t.Errorf("busy = %v, want %v", st.Busy, wantT)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Reads: 5, Programs: 3, Erases: 1, Energy: 2, Busy: 10}
	b := Stats{Reads: 2, Programs: 1, Erases: 1, Energy: 1, Busy: 4}
	sum := a.Add(b)
	if sum.Reads != 7 || sum.Programs != 4 || sum.Erases != 2 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
}

func TestBounds(t *testing.T) {
	d := MustNewDevice(smallSpec())
	if _, err := d.ReadByteAt(-1); !errors.Is(err, ErrBounds) {
		t.Error("negative address should fail")
	}
	if _, err := d.ReadByteAt(d.Spec().Size()); !errors.Is(err, ErrBounds) {
		t.Error("past-the-end address should fail")
	}
	if err := d.ErasePage(d.Spec().NumPages); !errors.Is(err, ErrBounds) {
		t.Error("past-the-end page should fail")
	}
	if err := d.Read(d.Spec().Size()-1, make([]byte, 2)); !errors.Is(err, ErrBounds) {
		t.Error("overlapping read should fail")
	}
}

func TestReadPageRoundTrip(t *testing.T) {
	d := MustNewDevice(smallSpec())
	rng := xrand.New(5)
	// Program a known pattern, read the page back, verify.
	base := d.PageBase(1)
	want := make([]byte, d.Spec().PageSize)
	for i := range want {
		want[i] = rng.Byte()
		if err := d.ProgramByte(base+i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, d.Spec().PageSize)
	before := d.Stats()
	if err := d.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("buffer[%d] = %02x, want %02x", i, buf[i], want[i])
		}
	}
	if got := d.Stats().Reads - before.Reads; got != uint64(d.Spec().PageSize) {
		t.Errorf("ReadPage charged %d reads, want %d", got, d.Spec().PageSize)
	}
	if err := d.ReadPage(1, buf[:1]); !errors.Is(err, ErrPageSize) {
		t.Errorf("short buffer accepted: %v", err)
	}
}

// TestSpanSenseAndProgram: SenseSpan and ProgramSpan take any span inside
// one page, charge reads per byte sensed and pulses per byte changed, leave
// the rest of the page alone, and reject spans that cross a page boundary.
func TestSpanSenseAndProgram(t *testing.T) {
	d := MustNewDevice(smallSpec())
	ps := d.Spec().PageSize
	base := d.PageBase(2)
	want := []byte{0x0F, 0xFF, 0x3C}
	before := d.Stats()
	if err := d.ProgramSpan(base+5, want); err != nil {
		t.Fatal(err)
	}
	st := d.Stats().Sub(before)
	if st.Programs != 2 || st.ProgramsSkipped != 1 {
		t.Errorf("span program charged %d pulses, %d skips; want 2, 1", st.Programs, st.ProgramsSkipped)
	}
	got := make([]byte, len(want))
	before = d.Stats()
	if err := d.SenseSpan(base+5, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("sensed %x, want %x", got, want)
	}
	if r := d.Stats().Reads - before.Reads; r != uint64(len(want)) {
		t.Errorf("span sense charged %d reads, want %d", r, len(want))
	}
	page := make([]byte, ps)
	d.PeekPage(2, page)
	for i, v := range page {
		if (i < 5 || i >= 8) && v != 0xFF {
			t.Errorf("byte %d outside the span = %02x, want erased", i, v)
		}
	}
	// A margin-aware sense resolves marginal cells to their stored value.
	d.recordRise(2, 5, 0x10)
	for i := 0; i < 32; i++ {
		if err := d.SenseSpan(base+5, got[:1]); err != nil || got[0] != 0x0F {
			t.Fatalf("sense %d of a marginal cell = %02x, %v; want 0f", i, got[0], err)
		}
	}
	if err := d.SenseSpan(base, nil); err != nil {
		t.Errorf("empty sense: %v", err)
	}
	if err := d.ProgramSpan(base+5, []byte{0xFF}); !errors.Is(err, ErrNeedsErase) {
		t.Errorf("0→1 span program: %v, want ErrNeedsErase", err)
	}
	cross := base + ps - 1
	if err := d.SenseSpan(cross, make([]byte, 2)); !errors.Is(err, ErrBounds) {
		t.Errorf("page-crossing sense: %v, want ErrBounds", err)
	}
	if err := d.ProgramSpan(cross, []byte{0, 0}); !errors.Is(err, ErrBounds) {
		t.Errorf("page-crossing program: %v, want ErrBounds", err)
	}
	if err := d.ProgramSpan(d.Spec().Size(), []byte{0}); !errors.Is(err, ErrBounds) {
		t.Errorf("past-the-end program: %v, want ErrBounds", err)
	}
}

func TestProgramPageRejects0to1(t *testing.T) {
	d := MustNewDevice(smallSpec())
	base := d.PageBase(0)
	if err := d.ProgramByte(base, 0x00); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.Spec().PageSize)
	buf[0] = 0x01 // would need a 0→1 flip
	before := d.Stats()
	err := d.ProgramPage(0, buf)
	if !errors.Is(err, ErrNeedsErase) {
		t.Fatalf("want ErrNeedsErase, got %v", err)
	}
	if d.Stats().Programs != before.Programs {
		t.Error("failed page program must charge nothing")
	}
}

func TestProgramPageSkipsUnchanged(t *testing.T) {
	d := MustNewDevice(smallSpec())
	buf := make([]byte, d.Spec().PageSize)
	for i := range buf {
		buf[i] = 0xFF // page is already all-ones
	}
	if err := d.ProgramPage(0, buf); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Programs != 0 {
		t.Errorf("programs = %d, want 0 (all bytes unchanged)", st.Programs)
	}
	if st.ProgramsSkipped != uint64(d.Spec().PageSize) {
		t.Errorf("skipped = %d, want %d", st.ProgramsSkipped, d.Spec().PageSize)
	}
}

func TestEraseProgramPage(t *testing.T) {
	d := MustNewDevice(smallSpec())
	base := d.PageBase(3)
	for i := 0; i < d.Spec().PageSize; i++ {
		if err := d.ProgramByte(base+i, 0x00); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, d.Spec().PageSize)
	for i := range buf {
		buf[i] = byte(i) | 0x80 // needs 0→1 flips, hence the erase
	}
	if err := d.EraseProgramPage(3, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if d.Peek(base+i) != buf[i] {
			t.Fatalf("byte %d = %02x, want %02x", i, d.Peek(base+i), buf[i])
		}
	}
	if d.Wear(3) != 1 {
		t.Errorf("wear = %d", d.Wear(3))
	}
}

func TestBankPartition(t *testing.T) {
	s := smallSpec() // 8 pages, DefaultSpec banks = 4
	d := MustNewDevice(s)
	if d.Banks() != 4 {
		t.Fatalf("banks = %d, want 4", d.Banks())
	}
	// Round-robin interleave: consecutive pages land in distinct banks.
	for p := 0; p < s.NumPages; p++ {
		if d.BankOf(p) != p%4 {
			t.Errorf("BankOf(%d) = %d, want %d", p, d.BankOf(p), p%4)
		}
	}
	// Banks == 0 selects the default; Banks > NumPages clamps.
	s.Banks = 0
	if got := MustNewDevice(s).Banks(); got != DefaultBanks {
		t.Errorf("Banks=0 → %d, want %d", got, DefaultBanks)
	}
	s.Banks = 100
	if got := MustNewDevice(s).Banks(); got != s.NumPages {
		t.Errorf("Banks=100 → %d, want %d (clamped)", got, s.NumPages)
	}
	s.Banks = -1
	if _, err := NewDevice(s); err == nil {
		t.Error("negative bank count accepted")
	}
}

func TestBankStatsShardAndMerge(t *testing.T) {
	d := MustNewDevice(smallSpec())        // 8 pages over 4 banks
	_ = d.ErasePage(0)                     // bank 0
	_ = d.ErasePage(4)                     // bank 0
	_ = d.ErasePage(1)                     // bank 1
	_ = d.ProgramByte(d.PageBase(2), 0x00) // bank 2
	if got := d.BankStats(0).Erases; got != 2 {
		t.Errorf("bank 0 erases = %d, want 2", got)
	}
	if got := d.BankStats(1).Erases; got != 1 {
		t.Errorf("bank 1 erases = %d, want 1", got)
	}
	if got := d.BankStats(2).Programs; got != 1 {
		t.Errorf("bank 2 programs = %d, want 1", got)
	}
	st := d.Stats()
	if st.Erases != 3 || st.Programs != 1 {
		t.Errorf("merged stats = %+v", st)
	}
}

func TestObserverSeesEveryOp(t *testing.T) {
	d := MustNewDevice(smallSpec())
	var events []OpEvent
	detach := d.Attach(ObserverFunc(func(ev OpEvent) { events = append(events, ev) }))
	_, _ = d.ReadByteAt(0)
	_ = d.ProgramByte(0, 0x0F)
	_ = d.ProgramByte(0, 0x0F) // skipped
	_ = d.ErasePage(0)
	want := []OpKind{OpRead, OpProgram, OpProgramSkip, OpErase}
	if len(events) != len(want) {
		t.Fatalf("saw %d events, want %d", len(events), len(want))
	}
	for i, k := range want {
		if events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, events[i].Kind, k)
		}
	}
	if events[3].Addr != 0 || events[3].Bank != 0 {
		t.Errorf("erase event = %+v", events[3])
	}
	detach()
	_ = d.ProgramByte(1, 0x00)
	if len(events) != len(want) {
		t.Error("detached observer still received events")
	}
}

// TestDetachRemovesOnlyItsObserver: closures built from one func literal
// share a code pointer, so they are indistinguishable by value; detaching
// the second must still leave the first subscribed. Detaching twice is a
// no-op.
func TestDetachRemovesOnlyItsObserver(t *testing.T) {
	d := MustNewDevice(smallSpec())
	var seen [2]int
	var detach [2]func()
	for i := range detach {
		detach[i] = d.Attach(ObserverFunc(func(OpEvent) { seen[i]++ }))
	}
	detach[1]()
	detach[1]()
	_, _ = d.ReadByteAt(0)
	if seen != [2]int{1, 0} {
		t.Errorf("events seen per observer = %v, want [1 0] (only the first still attached)", seen)
	}
}

// TestObserverStatsAgree: the observer event stream carries exactly the
// costs the stats shards accumulate — one accounting path, two views.
func TestObserverStatsAgree(t *testing.T) {
	d := MustNewDevice(smallSpec())
	// Accumulate per (bank, kind) and merge kinds in kind order, banks in
	// bank order — mirroring the stats shards' per-kind accumulators —
	// so float totals are byte-identical, not just close.
	perBankKind := make([][opKindCount]energy.Energy, d.Banks())
	var reads, programs uint64
	d.Attach(ObserverFunc(func(ev OpEvent) {
		perBankKind[ev.Bank][ev.Kind] += ev.Energy
		switch ev.Kind {
		case OpRead:
			reads += uint64(ev.Bytes)
		case OpProgram:
			programs += uint64(ev.Bytes)
		}
	}))
	rng := xrand.New(77)
	for i := 0; i < 200; i++ {
		addr := rng.Intn(d.Spec().Size())
		switch rng.Intn(3) {
		case 0:
			_, _ = d.ReadByteAt(addr)
		case 1:
			_ = d.ProgramByte(addr, d.Peek(addr)&rng.Byte())
		case 2:
			_ = d.ErasePage(rng.Intn(d.Spec().NumPages))
		}
	}
	st := d.Stats()
	if st.Reads != reads || st.Programs != programs {
		t.Errorf("observer counted reads=%d programs=%d, stats %+v", reads, programs, st)
	}
	var total energy.Energy
	for _, kinds := range perBankKind {
		var bankTotal energy.Energy
		for _, e := range kinds {
			bankTotal += e
		}
		total += bankTotal
	}
	if st.Energy != total {
		t.Errorf("observer energy %v != stats energy %v", total, st.Energy)
	}
}

func TestLedgerObserver(t *testing.T) {
	d := MustNewDevice(smallSpec())
	var led energy.Ledger
	d.Attach(NewLedgerObserver(&led))
	_ = d.ProgramByte(0, 0x00)
	_ = d.ErasePage(1)
	_, _ = d.ReadByteAt(2)
	st := d.Stats()
	if led.Total() != st.Energy {
		t.Errorf("ledger total %v != stats energy %v", led.Total(), st.Energy)
	}
	if led.Busy() != st.Busy {
		t.Errorf("ledger busy %v != stats busy %v", led.Busy(), st.Busy)
	}
	byOp := led.ByOp()
	if byOp["erase"] != d.Spec().EraseEnergy {
		t.Errorf("erase energy = %v, want %v", byOp["erase"], d.Spec().EraseEnergy)
	}
	if byOp["program"] != d.Spec().ProgramEnergy {
		t.Errorf("program energy = %v", byOp["program"])
	}
}

func TestWearOutFaultModel(t *testing.T) {
	s := smallSpec() // endurance 50
	d := MustNewDevice(s)
	var sawWornOut bool
	for i := uint32(0); i < s.EnduranceCycles+5; i++ {
		err := d.ErasePage(0)
		if err != nil {
			if !errors.Is(err, ErrWornOut) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawWornOut = true
		}
	}
	if !sawWornOut {
		t.Fatal("never saw ErrWornOut past endurance")
	}
	if !d.WornOut(0) {
		t.Error("page 0 should be flagged worn out")
	}
	// A worn-out page has stuck-at-0 cells after erase.
	stuck := 0
	base := d.PageBase(0)
	for i := 0; i < s.PageSize; i++ {
		if d.Peek(base+i) != 0xFF {
			stuck++
		}
	}
	if stuck == 0 {
		t.Error("worn-out page erased perfectly; fault model inactive")
	}
}

func TestMaxWear(t *testing.T) {
	d := MustNewDevice(smallSpec())
	_ = d.ErasePage(1)
	_ = d.ErasePage(1)
	_ = d.ErasePage(4)
	if d.MaxWear() != 2 {
		t.Errorf("MaxWear = %d, want 2", d.MaxWear())
	}
}

func TestPageOfPageBase(t *testing.T) {
	d := MustNewDevice(smallSpec())
	ps := d.Spec().PageSize
	if d.PageOf(0) != 0 || d.PageOf(ps-1) != 0 || d.PageOf(ps) != 1 {
		t.Error("PageOf boundaries wrong")
	}
	if d.PageBase(3) != 3*ps {
		t.Error("PageBase wrong")
	}
}

// TestDirtyWindow checks the search against a byte loop for every length
// up to 40 and every pair of differing positions, then at the lengths where
// the 256-byte block skip runs (checkDirtyWindowBlocks).
func TestDirtyWindow(t *testing.T) {
	for n := 0; n <= 40; n++ {
		a := make([]byte, n)
		for i := range a {
			a[i] = byte(i * 37)
		}
		b := make([]byte, n)
		check := func() {
			t.Helper()
			wantLo, wantHi := n, n
			for i := range a {
				if a[i] != b[i] {
					if wantLo == n {
						wantLo = i
					}
					wantHi = i + 1
				}
			}
			if lo, hi := dirtyWindow(a, b); lo != wantLo || hi != wantHi {
				t.Fatalf("n=%d %x vs %x: window [%d,%d), want [%d,%d)", n, a, b, lo, hi, wantLo, wantHi)
			}
		}
		copy(b, a)
		check()
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				copy(b, a)
				b[i] ^= 0x80
				b[j] ^= 0x01
				check()
			}
		}
	}
	checkDirtyWindowBlocks(t)
}

// checkDirtyWindowBlocks covers the lengths where dirtyWindow's 256-byte
// block skip runs: one or two differing bytes at and beside every block
// edge and every 8-byte word edge, and fully equal buffers.
func checkDirtyWindowBlocks(t *testing.T) {
	for _, n := range []int{255, 256, 257, 512, 4096, 4097} {
		a := make([]byte, n)
		for i := range a {
			a[i] = byte(i * 37)
		}
		b := append([]byte(nil), a...)
		if lo, hi := dirtyWindow(a, b); lo != n || hi != n {
			t.Fatalf("n=%d equal buffers: window [%d,%d), want [%d,%d)", n, lo, hi, n, n)
		}
		var blockEdges, edges []int
		seen := make(map[int]bool)
		for e := 0; e <= n; e += 8 {
			for _, i := range []int{e - 1, e, e + 1} {
				if i < 0 || i >= n || seen[i] {
					continue
				}
				seen[i] = true
				edges = append(edges, i)
				if e%dirtyBlock == 0 || e == n {
					blockEdges = append(blockEdges, i)
				}
			}
		}
		if !seen[n-1] {
			edges = append(edges, n-1)
			blockEdges = append(blockEdges, n-1)
		}
		check := func(i, j int) {
			t.Helper()
			if lo, hi := dirtyWindow(a, b); lo != min(i, j) || hi != max(i, j)+1 {
				t.Fatalf("n=%d bytes %d and %d differ: window [%d,%d), want [%d,%d)",
					n, i, j, lo, hi, min(i, j), max(i, j)+1)
			}
		}
		for _, i := range edges {
			b[i] ^= 0x80
			check(i, i)
			for _, j := range blockEdges {
				if j != i {
					b[j] ^= 0x01
					check(i, j)
					b[j] ^= 0x01
				}
			}
			b[i] ^= 0x80
		}
	}
}

// BenchmarkProgramPage programs one page per op: on 4 KiB pages "record"
// changes one 128-byte record (the store's append) and "page" rewrites
// every byte; "page256" rewrites a whole 256-byte page (the camera's
// geometry), where the dirty window is too short for the block skip.
func BenchmarkProgramPage(b *testing.B) {
	for _, c := range []struct {
		name            string
		pageSize, width int
	}{
		{"record", 4096, 128},
		{"page", 4096, 4096},
		{"page256", 256, 256},
	} {
		spec := DefaultSpec()
		spec.PageSize = c.pageSize
		spec.NumPages = 4
		width := c.width
		b.Run(c.name, func(b *testing.B) {
			d := MustNewDevice(spec)
			buf := make([]byte, spec.PageSize)
			off := spec.PageSize // force an erase on the first op
			for i := 0; i < b.N; i++ {
				if off+width > spec.PageSize {
					if err := d.ErasePage(0); err != nil {
						b.Fatal(err)
					}
					for j := range buf {
						buf[j] = 0xFF
					}
					off = 0
				}
				for j := off; j < off+width; j++ {
					buf[j] = byte(i + j)
				}
				if err := d.ProgramPage(0, buf); err != nil {
					b.Fatal(err)
				}
				off += width
			}
		})
	}
}
