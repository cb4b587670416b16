package flash

import (
	"errors"
	"testing"
)

func healthSpec() Spec {
	s := DefaultSpec()
	s.PageSize = 32
	s.NumPages = 8
	s.Banks = 2
	return s
}

// TestDriftMaskGroundTruth: the drift mask must reconstruct the intended
// image (data | mask) through fault flips, and programs must absorb mask
// bits they intentionally clear.
func TestDriftMaskGroundTruth(t *testing.T) {
	d := MustNewDevice(healthSpec())
	const p = 0
	ps := d.Spec().PageSize

	if n := popcount(d.drift[p]); n != 0 {
		t.Fatalf("fresh page reports %d stuck bits", n)
	}

	// A silent stuck-bits erase: page should read FF except the stuck
	// cells, and mask must cover exactly the difference.
	d.ArmFault(Fault{Kind: FaultStuckBits, Bits: 16})
	if err := d.ErasePage(p); err != nil {
		t.Fatal(err)
	}
	mask := make([]byte, ps)
	n, err := d.StuckMaskInto(p, mask)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("stuck-bits fault recorded no drift")
	}
	page := make([]byte, ps)
	d.PeekPage(p, page)
	for i := range page {
		if page[i]|mask[i] != 0xFF {
			t.Fatalf("byte %d: data %08b | mask %08b != FF", i, page[i], mask[i])
		}
	}

	// Find a stuck byte and intentionally program its stuck bits to 0:
	// the mask must absorb them (restoring a 1 there would now corrupt).
	stuckAt := -1
	for i := range mask {
		if mask[i] != 0 {
			stuckAt = i
			break
		}
	}
	base := d.PageBase(p)
	if err := d.ProgramByte(base+stuckAt, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.StuckMaskInto(p, mask); err != nil {
		t.Fatal(err)
	}
	if mask[stuckAt] != 0 {
		t.Errorf("program did not absorb drift: mask[%d] = %08b", stuckAt, mask[stuckAt])
	}

	// An erase forgets all drift.
	if err := d.ErasePage(p); err != nil {
		t.Fatal(err)
	}
	if n := popcount(d.drift[p]); n != 0 {
		t.Errorf("drift survived erase: %d bits", n)
	}
}

// TestDriftFromWornOutErase: past-endurance erases stick cells and the
// mask tracks them, so data | mask is still all-1s (the intended image).
func TestDriftFromWornOutErase(t *testing.T) {
	s := healthSpec()
	s.EnduranceCycles = 2
	d := MustNewDevice(s)
	const p = 1
	for i := 0; i < 3; i++ {
		err := d.ErasePage(p)
		if i < 2 && err != nil {
			t.Fatal(err)
		}
		if i == 2 && !errors.Is(err, ErrWornOut) {
			t.Fatalf("erase %d: got %v, want ErrWornOut", i, err)
		}
	}
	if !d.WornOut(p) || !d.Degraded(p) {
		t.Error("page past endurance not marked worn/degraded")
	}
	ps := d.Spec().PageSize
	mask := make([]byte, ps)
	if _, err := d.StuckMaskInto(p, mask); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, ps)
	d.PeekPage(p, page)
	for i := range page {
		if page[i]|mask[i] != 0xFF {
			t.Fatalf("byte %d: data %08b | mask %08b != FF", i, page[i], mask[i])
		}
	}
}

func TestRetire(t *testing.T) {
	d := MustNewDevice(healthSpec())
	const p = 3
	if err := d.ProgramByte(d.PageBase(p), 0xA5); err != nil {
		t.Fatal(err)
	}
	if err := d.Retire(p); err != nil {
		t.Fatal(err)
	}
	if !d.Retired(p) || !d.Degraded(p) {
		t.Error("retired page not reported retired/degraded")
	}
	if err := d.ProgramByte(d.PageBase(p), 0x00); !errors.Is(err, ErrPageRetired) {
		t.Errorf("program on retired page: got %v, want ErrPageRetired", err)
	}
	buf := make([]byte, d.Spec().PageSize)
	if err := d.ProgramPage(p, buf); !errors.Is(err, ErrPageRetired) {
		t.Errorf("program-page on retired page: got %v, want ErrPageRetired", err)
	}
	if err := d.ErasePage(p); !errors.Is(err, ErrPageRetired) {
		t.Errorf("erase on retired page: got %v, want ErrPageRetired", err)
	}
	// Reads keep working: the remap copy may still be in flight.
	if v, err := d.ReadByteAt(d.PageBase(p)); err != nil || v != 0xA5 {
		t.Errorf("read on retired page: %v, %#x", err, v)
	}
	// Idempotent, and exactly one retirement counted.
	if err := d.Retire(p); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Retirements; got != 1 {
		t.Errorf("Retirements = %d, want 1", got)
	}
}

func TestNoteScrubCountsOnBus(t *testing.T) {
	d := MustNewDevice(healthSpec())
	var events int
	d.Attach(ObserverFunc(func(ev OpEvent) {
		if ev.Kind == OpScrub {
			events++
		}
	}))
	d.NoteScrub(2)
	d.NoteScrub(5)
	if got := d.Stats().Scrubs; got != 2 {
		t.Errorf("Scrubs = %d, want 2", got)
	}
	if events != 2 {
		t.Errorf("observer saw %d scrub events, want 2", events)
	}
	if OpScrub.String() != "scrub" || OpRetire.String() != "retire" {
		t.Errorf("op kind strings: %q %q", OpScrub, OpRetire)
	}
}

func TestWearSnapshot(t *testing.T) {
	d := MustNewDevice(healthSpec())
	for p := 0; p < d.Spec().NumPages; p++ {
		for i := 0; i <= p; i++ {
			if err := d.ErasePage(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := d.WearSnapshot()
	if len(snap) != d.Spec().NumPages {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for p, w := range snap {
		if w != uint32(p+1) || w != d.Wear(p) {
			t.Errorf("page %d: snapshot %d, Wear %d, want %d", p, w, d.Wear(p), p+1)
		}
	}
	if d.MaxWear() != uint32(d.Spec().NumPages) {
		t.Errorf("MaxWear = %d", d.MaxWear())
	}
}

// TestWearIntoMatchesWear: the bulk read returns Wear(p) for every page on
// one and four banks, fills only the prefix a short dst has room for, and
// leaves the entries of a long dst past the last page untouched.
func TestWearIntoMatchesWear(t *testing.T) {
	for _, banks := range []int{1, 4} {
		spec := healthSpec()
		spec.NumPages = 12
		spec.Banks = banks
		d := MustNewDevice(spec)
		for p := 0; p < spec.NumPages; p++ {
			for i := 0; i < (p*7)%5; i++ {
				if err := d.ErasePage(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		const sentinel = ^uint32(0)
		for _, n := range []int{0, 1, banks + 1, spec.NumPages - 1, spec.NumPages, spec.NumPages + 3} {
			dst := make([]uint32, n)
			for i := range dst {
				dst[i] = sentinel
			}
			d.WearInto(dst)
			for p, w := range dst {
				want := sentinel
				if p < spec.NumPages {
					want = d.Wear(p)
				}
				if w != want {
					t.Errorf("banks=%d len(dst)=%d: dst[%d] = %d, want %d", banks, n, p, w, want)
				}
			}
		}
	}
}

func TestHealthReport(t *testing.T) {
	s := healthSpec()
	s.EnduranceCycles = 4
	d := MustNewDevice(s)
	// Page 0: worn out (5 erases). Page 1: half worn. Page 2: retired.
	for i := 0; i < 5; i++ {
		d.ErasePage(0)
	}
	for i := 0; i < 2; i++ {
		if err := d.ErasePage(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Retire(2); err != nil {
		t.Fatal(err)
	}

	rep := d.Health()
	if rep.Endurance != 4 || len(rep.Banks) != 2 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.MaxWear != 5 || rep.Dead != 1 || rep.Retired != 1 {
		t.Errorf("totals: max %d dead %d retired %d", rep.MaxWear, rep.Dead, rep.Retired)
	}
	if rep.Stuck == 0 {
		t.Error("worn-out page recorded no stuck cells")
	}
	pages := 0
	for _, bh := range rep.Banks {
		hist := 0
		for _, c := range bh.Histogram {
			hist += c
		}
		if hist != bh.Pages {
			t.Errorf("bank %d: histogram sums to %d of %d pages", bh.Bank, hist, bh.Pages)
		}
		pages += bh.Pages
	}
	if pages != d.Spec().NumPages {
		t.Errorf("banks cover %d pages", pages)
	}
}
