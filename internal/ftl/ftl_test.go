package ftl

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// newFTL mounts an FTL on a fresh device of the given physical page count;
// the journal's four metadata pages (scratch, intent, two one-page
// checkpoint slots) and any spares come off the logical space.
func newFTL(t *testing.T, pages int, opts ...Option) (*FTL, *core.Device) {
	t.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 32
	spec.NumPages = pages
	dev := core.MustNewDevice(spec)
	f, err := Open(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f, dev
}

func TestReadWriteRoundTrip(t *testing.T) {
	f, _ := newFTL(t, 12)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := f.Write(10, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.Read(10, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestWriteSpanningPages(t *testing.T) {
	f, _ := newFTL(t, 12)
	rng := xrand.New(1)
	data := make([]byte, 100) // spans 4 pages of 32
	for i := range data {
		data[i] = rng.Byte()
	}
	if err := f.Write(16, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.Read(16, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestBounds(t *testing.T) {
	f, _ := newFTL(t, 8)
	if err := f.Write(f.NumPages()*f.PageSize(), []byte{1}); !errors.Is(err, ErrBounds) {
		t.Error("out-of-range write should fail")
	}
	if _, err := f.Translate(-1); !errors.Is(err, ErrBounds) {
		t.Error("negative address should fail")
	}
}

// wearSpread returns (max wear, mean wear) across physical pages — the
// leveling quality metric; device lifetime ends at max wear.
func wearSpread(f *FTL) (max uint32, mean float64) {
	snap := f.dev.Flash().WearSnapshot()
	var sum uint64
	for _, w := range snap {
		if w > max {
			max = w
		}
		sum += uint64(w)
	}
	return max, float64(sum) / float64(len(snap))
}

// TestWearLevelingSpreadsHotspot: hammering one logical page must spread
// erases across physical pages, keeping max wear near mean wear.
func TestWearLevelingSpreadsHotspot(t *testing.T) {
	f, _ := newFTL(t, 12, WithSwapDelta(4))
	a := make([]byte, 32)
	b := make([]byte, 32)
	for i := range a {
		a[i], b[i] = 0x55, 0xAA // alternating forces an erase per write
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		buf := a
		if i%2 == 1 {
			buf = b
		}
		if err := f.Write(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	max, mean := wearSpread(f)
	if f.Stats().Swaps == 0 {
		t.Fatal("no wear-leveling swaps happened")
	}
	// Without leveling max wear would be ~200 on one page (mean ~17 over
	// 12 pages). With leveling it must be far closer to the mean.
	if float64(max) > 3*mean {
		t.Errorf("max wear %d vs mean %.1f: leveling ineffective", max, mean)
	}
}

// TestWearIntoMatchesPageWear: the bulk wear read equals PageWear for every
// logical page once swaps and a retirement have moved logical pages onto
// other physical pages; a short dst gets only its prefix; and after the
// first call (which sizes the physical snapshot) the read allocates
// nothing.
func TestWearIntoMatchesPageWear(t *testing.T) {
	f, _ := newFTL(t, 20, WithSwapDelta(2), WithSpares(4))
	a := make([]byte, 32)
	b := make([]byte, 32)
	for i := range a {
		a[i], b[i] = 0x55, 0xAA // alternating forces an erase per write
	}
	check := func(when string) {
		t.Helper()
		n := f.NumPages()
		for _, size := range []int{n, n - 3, n + 2} {
			dst := make([]uint32, size)
			for i := range dst {
				dst[i] = 7777
			}
			f.WearInto(dst)
			for lp, w := range dst {
				want := uint32(7777)
				if lp < n {
					want = f.PageWear(lp)
				}
				if w != want {
					t.Fatalf("%s, len(dst)=%d: dst[%d] = %d, want %d", when, size, lp, w, want)
				}
			}
		}
	}
	for i := 0; i < 120; i++ {
		buf := a
		if i%2 == 1 {
			buf = b
		}
		if err := f.Write((i%3)*32, buf); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().Swaps == 0 {
		t.Fatal("no wear-leveling swaps happened")
	}
	check("after swaps")
	if err := f.retirePhys(f.l2p[1], false); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Retirements != 1 || f.l2p[1] < f.lay.poolBase {
		t.Fatalf("retirement did not remap logical page 1 onto a spare (l2p[1] = %d)", f.l2p[1])
	}
	check("after a retirement")

	if raceEnabled {
		return
	}
	dst := make([]uint32, f.NumPages())
	if allocs := testing.AllocsPerRun(50, func() { f.WearInto(dst) }); allocs != 0 {
		t.Errorf("FTL.WearInto allocates %.1f times per call after the first, want 0", allocs)
	}
}

// TestNoLevelingBaseline: with a huge swap threshold the hotspot stays on
// one page — the contrast case for the test above.
func TestNoLevelingBaseline(t *testing.T) {
	f, dev := newFTL(t, 12, WithSwapDelta(1<<30))
	a := make([]byte, 32)
	b := make([]byte, 32)
	for i := range a {
		a[i], b[i] = 0x55, 0xAA
	}
	for i := 0; i < 100; i++ {
		buf := a
		if i%2 == 1 {
			buf = b
		}
		if err := f.Write(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Flash().Wear(0) < 90 {
		t.Errorf("hotspot page wear %d; expected ~100 without leveling", dev.Flash().Wear(0))
	}
	if f.Stats().Swaps != 0 {
		t.Error("swaps happened despite the disabled threshold")
	}
}

// TestDataSurvivesSwaps: after many swaps every logical page still reads
// back what was last written to it.
func TestDataSurvivesSwaps(t *testing.T) {
	f, _ := newFTL(t, 12, WithSwapDelta(2))
	rng := xrand.New(7)
	ps := 32
	// Track expected logical content.
	want := make([][]byte, f.NumPages())
	for lp := range want {
		want[lp] = make([]byte, ps)
		for i := range want[lp] {
			want[lp][i] = rng.Byte()
		}
		if err := f.Write(lp*ps, want[lp]); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer logical page 3 to force swaps.
	for i := 0; i < 120; i++ {
		for j := range want[3] {
			want[3][j] = rng.Byte()
		}
		if err := f.Write(3*ps, want[3]); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().Swaps == 0 {
		t.Fatal("expected swaps")
	}
	got := make([]byte, ps)
	for lp := range want {
		if err := f.Read(lp*ps, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[lp][i] {
				t.Fatalf("logical page %d byte %d corrupted after swaps", lp, i)
			}
		}
	}
}

// TestComposesWithFlipBit: approximation still works through the FTL (the
// §II-B orthogonality claim): a hot logical page written with similar data
// avoids erases entirely, so leveling never even needs to kick in.
func TestComposesWithFlipBit(t *testing.T) {
	f, dev := newFTL(t, 12, WithSwapDelta(4))
	if err := dev.SetApproxRegion(0, dev.Flash().Spec().Size()); err != nil {
		t.Fatal(err)
	}
	dev.SetThreshold(4)
	buf := make([]byte, 32)
	rng := xrand.New(11)
	for i := range buf {
		buf[i] = rng.Byte()
	}
	if err := f.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	erasesAfterFirst := dev.Flash().Stats().Erases
	for round := 0; round < 100; round++ {
		for i := range buf {
			buf[i] = buf[i] - byte(rng.Intn(3)) + 1 // small drift
		}
		if err := f.Write(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	// The upward component of the drift is unreachable without an erase,
	// so occasional erases are physics, not a bug; FlipBit must still
	// avoid the large majority of the ~100 a plain device would need.
	after := dev.Flash().Stats().Erases
	if got := after - erasesAfterFirst; got > 50 {
		t.Errorf("FlipBit through FTL erased %d times in 100 similar writes; expected well under half", got)
	}
}
