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
	if OpRetire.String() != "retire" {
		t.Errorf("OpRetire.String() = %q", OpRetire)
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

// TestStuckMaskIntoContract: the mask copy fails only on an out-of-range
// page or a buffer that is not one page long, zeroes the buffer for a page
// with no drift, and counts drifted cells otherwise.
func TestStuckMaskIntoContract(t *testing.T) {
	d := MustNewDevice(healthSpec())
	ps := d.Spec().PageSize
	if _, err := d.StuckMaskInto(d.Spec().NumPages, make([]byte, ps)); err == nil {
		t.Error("out-of-range page accepted")
	}
	if _, err := d.StuckMaskInto(0, make([]byte, ps-1)); !errors.Is(err, ErrPageSize) {
		t.Errorf("short buffer: got %v, want ErrPageSize", err)
	}
	junk := make([]byte, ps)
	for i := range junk {
		junk[i] = 0xA5
	}
	if n, err := d.StuckMaskInto(1, junk); err != nil || n != 0 {
		t.Fatalf("clean page: %d, %v", n, err)
	}
	for i, b := range junk {
		if b != 0 {
			t.Fatalf("clean page left byte %d = %#x in the mask", i, b)
		}
	}
	d.ArmFault(Fault{Kind: FaultStuckBits, Bits: 4})
	if err := d.ErasePage(1); err != nil {
		t.Fatal(err)
	}
	if n, err := d.StuckMaskInto(1, junk); err != nil || n != popcount(d.drift[1]) || n == 0 {
		t.Errorf("drifted page: %d, %v (drift mask holds %d)", n, err, popcount(d.drift[1]))
	}
}

// TestAtRating: a page reaches its rating after EnduranceCycles erases,
// one erase before it wears out.
func TestAtRating(t *testing.T) {
	s := healthSpec()
	s.EnduranceCycles = 3
	d := MustNewDevice(s)
	const p = 2
	for i := 0; i < 3; i++ {
		if d.AtRating(p) {
			t.Fatalf("at rating after %d of 3 erases", i)
		}
		if err := d.ErasePage(p); err != nil {
			t.Fatal(err)
		}
	}
	if !d.AtRating(p) || d.WornOut(p) {
		t.Errorf("after 3 erases: AtRating %v, WornOut %v; want true, false", d.AtRating(p), d.WornOut(p))
	}
	if d.AtRating(-1) || d.AtRating(s.NumPages) {
		t.Error("out-of-range page reported at rating")
	}
}
