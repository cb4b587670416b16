package isc

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func testPlaneConfig() PlaneConfig {
	return PlaneConfig{
		PageSize:      16,
		Banks:         2,
		MaxSensePages: 4, // < Width: prefix senses must split into batches
		FirstPage:     0,
		Slots:         300,
		Width:         6,
	}
}

func newTestPlanes(t testing.TB) (*PlaneStore, *flash.Device) {
	t.Helper()
	dev := testDevice(t)
	ps, err := NewPlaneStore(dev, testPlaneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Reset(); err != nil {
		t.Fatal(err)
	}
	return ps, dev
}

// bruteNearest enumerates every subset of cv and returns the smallest
// achievable |v - r| — the bound nearestSubset must meet.
func bruteNearest(cv, v int) int {
	best := v // r = 0 is always a subset
	for r := cv; ; r = (r - 1) & cv {
		e := r - v
		if e < 0 {
			e = -e
		}
		if e < best {
			best = e
		}
		if r == 0 {
			break
		}
	}
	return best
}

// TestNearestSubsetIsOptimal: for every (current, wanted) pair of the
// 6-bit space, the O(width) candidate construction must achieve the same
// error as brute-force subset enumeration, and return a true subset.
func TestNearestSubsetIsOptimal(t *testing.T) {
	const w = 6
	for cv := 0; cv < 1<<w; cv++ {
		for v := 0; v < 1<<w; v++ {
			r := nearestSubset(cv, v, w)
			if r&^cv != 0 {
				t.Fatalf("nearestSubset(%#x, %#x) = %#x: not a subset", cv, v, r)
			}
			e := r - v
			if e < 0 {
				e = -e
			}
			if want := bruteNearest(cv, v); e != want {
				t.Fatalf("nearestSubset(%#x, %#x) = %#x (err %d), optimum err %d", cv, v, r, e, want)
			}
		}
	}
}

// TestPlaneMatchesAgainstMirror: random exact and approximate writes,
// then equality and range matches compared bit-for-bit against a RAM
// mirror of the stored values. Matches must also never read a page.
func TestPlaneMatchesAgainstMirror(t *testing.T) {
	ps, dev := newTestPlanes(t)
	rng := xrand.New(0x9A37)
	cfg := testPlaneConfig()
	full := 1<<cfg.Width - 1
	stored := make([]int, cfg.Slots)
	assigned := make([]bool, cfg.Slots)
	for i := range stored {
		stored[i] = full
	}

	write := func() {
		slot := rng.Intn(cfg.Slots)
		v := rng.Intn(full + 1)
		if rng.Intn(2) == 0 {
			// Exact write of a reachable value: a zero error budget.
			v &= stored[slot]
			if _, err := ps.SetApprox(slot, v, 0); err != nil {
				t.Fatal(err)
			}
			stored[slot], assigned[slot] = v, true
			return
		}
		r, err := ps.SetApprox(slot, v, full)
		if err != nil {
			t.Fatal(err)
		}
		stored[slot], assigned[slot] = r, true
	}
	check := func() {
		dst := make([]byte, ps.BitmapBytes())
		lo := rng.Intn(full + 1)
		hi := lo + rng.Intn(full+1-lo)
		before := dev.Stats()
		if err := ps.MatchRange(lo, hi, dst); err != nil {
			t.Fatal(err)
		}
		if d := dev.Stats().Sub(before); d.Reads != 0 || d.Senses == 0 {
			t.Fatalf("range match: %d host read bytes, %d senses", d.Reads, d.Senses)
		}
		for slot := 0; slot < cfg.Slots; slot++ {
			want := assigned[slot] && stored[slot] >= lo && stored[slot] <= hi
			if got := bit(dst, slot); got != want {
				t.Fatalf("range [%d,%d] slot %d (stored %d, assigned %v): got %v",
					lo, hi, slot, stored[slot], assigned[slot], got)
			}
		}
		v := rng.Intn(full + 1)
		if err := ps.MatchRange(v, v, dst); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < cfg.Slots; slot++ {
			want := assigned[slot] && stored[slot] == v
			if got := bit(dst, slot); got != want {
				t.Fatalf("equal %d slot %d (stored %d): got %v", v, slot, stored[slot], got)
			}
		}
	}

	for round := 0; round < 40; round++ {
		for i := 0; i < 25; i++ {
			write()
		}
		check()
	}
}

// TestMatchNearHasNoFalseNegatives: samples written approximately must
// always be found by a proximity search around their INTENDED value — the
// observed-error widening guarantees it whatever SetApprox clamped to.
func TestMatchNearHasNoFalseNegatives(t *testing.T) {
	ps, _ := newTestPlanes(t)
	rng := xrand.New(0xBEEF)
	cfg := testPlaneConfig()
	full := 1<<cfg.Width - 1
	intended := make([]int, 0, 200)
	slots := make([]int, 0, 200)
	used := map[int]bool{}
	for len(slots) < 200 {
		slot := rng.Intn(cfg.Slots)
		if used[slot] {
			continue
		}
		used[slot] = true
		v := rng.Intn(full + 1)
		if _, err := ps.SetApprox(slot, v, full); err != nil {
			t.Fatal(err)
		}
		slots = append(slots, slot)
		intended = append(intended, v)
	}
	dst := make([]byte, ps.BitmapBytes())
	for trial := 0; trial < 200; trial++ {
		v := rng.Intn(full + 1)
		tol := rng.Intn(8)
		if err := ps.MatchNear(v, tol, dst); err != nil {
			t.Fatal(err)
		}
		for i, slot := range slots {
			d := intended[i] - v
			if d < 0 {
				d = -d
			}
			if d <= tol && !bit(dst, slot) {
				t.Fatalf("near(%d, tol %d): slot %d intended %d missed (stored %d, maxErr %d)",
					v, tol, slot, intended[i], mustVal(t, ps, slot), ps.MaxObservedError())
			}
		}
	}
}

func mustVal(t *testing.T, ps *PlaneStore, slot int) int {
	t.Helper()
	if ps.assigned[slot/8]&(1<<(slot%8)) == 0 {
		t.Fatalf("slot %d unassigned", slot)
	}
	return ps.vals[slot]
}

// TestSetApproxBudget: a write whose nearest reachable value misses by
// more than the budget must fail without touching flash.
func TestSetApproxBudget(t *testing.T) {
	ps, dev := newTestPlanes(t)
	if _, err := ps.SetApprox(0, 0, 0); err != nil { // clamp slot 0 to zero
		t.Fatal(err)
	}
	before := dev.Stats()
	if _, err := ps.SetApprox(0, 40, 3); !errors.Is(err, ErrErrorBudget) {
		t.Fatalf("budget exceeded: %v", err)
	}
	if d := dev.Stats().Sub(before); d.Programs != 0 {
		t.Fatalf("failed approx write still programmed %d bytes", d.Programs)
	}
	if _, err := ps.SetApprox(0, 1, 0); !errors.Is(err, ErrErrorBudget) {
		t.Fatalf("unreachable exact write: %v", err)
	}
	// Within budget: stored value lands within maxErr of the request and
	// the observed bound covers it.
	r, err := ps.SetApprox(1, 21, 64)
	if err != nil {
		t.Fatal(err)
	}
	e := r - 21
	if e < 0 {
		e = -e
	}
	if e > ps.MaxObservedError() {
		t.Fatalf("error %d exceeds observed bound %d", e, ps.MaxObservedError())
	}
	if _, err := ps.SetApprox(-1, 0, 0); !errors.Is(err, ErrSlotRange) {
		t.Fatalf("slot range: %v", err)
	}
	if _, err := ps.SetApprox(0, 1<<6, 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("value width: %v", err)
	}
}

// TestPlaneConfigValidate covers the geometry checks.
func TestPlaneConfigValidate(t *testing.T) {
	dev := testDevice(t)
	bad := []PlaneConfig{
		{},
		{PageSize: 16, Banks: 2, MaxSensePages: 4, Slots: 10, Width: 0},
		{PageSize: 16, Banks: 2, MaxSensePages: 4, Slots: 10, Width: 17},
		{PageSize: 16, Banks: 2, MaxSensePages: 4, Slots: 0, Width: 6},
		{PageSize: 16, Banks: 0, MaxSensePages: 4, Slots: 10, Width: 6},
	}
	for i, cfg := range bad {
		if _, err := NewPlaneStore(dev, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
}
