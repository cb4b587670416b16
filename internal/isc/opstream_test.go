package isc

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// opCounts is the slice of flash.Stats that identifies a device op
// stream: which senses, programs, erases and reads were issued, and what
// they cost.
type opCounts struct {
	Senses, PagesSensed, Programs, ProgramsSkipped, Erases, Reads uint64
	Energy                                                        float64
}

func countsOf(s flash.Stats) opCounts {
	return opCounts{
		Senses:          s.Senses,
		PagesSensed:     s.PagesSensed,
		Programs:        s.Programs,
		ProgramsSkipped: s.ProgramsSkipped,
		Erases:          s.Erases,
		Reads:           s.Reads,
		Energy:          float64(s.Energy),
	}
}

// TestOpStreamPinned runs a fixed Index workload and a fixed PlaneStore
// workload and pins the device op counts they produce. Batch boundaries
// (MaxSensePages), skipped duplicate programs and erase-only-bitmap-pages
// all show in these figures, so any change to how the structures drive the
// device fails here; a refactor of the in-storage layer must leave them
// identical.
func TestOpStreamPinned(t *testing.T) {
	t.Run("index", func(t *testing.T) {
		dev := testDevice(t)
		ix, err := NewIndex(dev, testIndexConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Reset(); err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(0x0951)
		for _, f := range testIndexConfig().Fields {
			for slot := 0; slot < ix.Slots(); slot++ {
				b := rng.Intn(f.Buckets)
				if err := ix.Add(slot, f.Name, b); err != nil {
					t.Fatal(err)
				}
				switch rng.Intn(6) {
				case 0: // duplicate add: no program
					err = ix.Add(slot, f.Name, b)
				case 1: // stale second membership
					err = ix.Add(slot, f.Name, rng.Intn(f.Buckets))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		counts := map[string]int{"status": 4, "region": 3}
		dst := make([]byte, ix.BitmapBytes())
		for i := 0; i < 300; i++ {
			p := randomPred(rng, 3)
			for _, q := range []Pred{p, Positive(p, func(f string) int { return counts[f] })} {
				if err := ix.Query(q, dst); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
		}
		want := opCounts{Senses: 3282, PagesSensed: 5964, Programs: 672,
			ProgramsSkipped: 0, Erases: 21, Reads: 0, Energy: 0.004482438464}
		if got := countsOf(dev.Stats()); got != want {
			t.Errorf("index op stream\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("planes", func(t *testing.T) {
		ps, dev := newTestPlanes(t)
		cfg := testPlaneConfig()
		full := 1<<cfg.Width - 1
		rng := xrand.New(0x0952)
		rejected := 0
		for i := 0; i < 600; i++ {
			_, err := ps.SetApprox(rng.Intn(cfg.Slots), rng.Intn(full+1), rng.Intn(4))
			switch {
			case errors.Is(err, ErrErrorBudget):
				rejected++
			case err != nil:
				t.Fatal(err)
			}
		}
		if rejected == 0 {
			t.Fatal("workload drew no budget rejection")
		}
		dst := make([]byte, ps.BitmapBytes())
		for i := 0; i < 100; i++ {
			lo := rng.Intn(full+8) - 4
			if err := ps.MatchRange(lo, lo+rng.Intn(full/2), dst); err != nil {
				t.Fatal(err)
			}
			if err := ps.MatchNear(rng.Intn(full+1), rng.Intn(6), dst); err != nil {
				t.Fatal(err)
			}
		}
		want := opCounts{Senses: 2967, PagesSensed: 8724, Programs: 966,
			ProgramsSkipped: 0, Erases: 18, Reads: 0, Energy: 0.0040544502506666665}
		if got := countsOf(dev.Stats()); got != want {
			t.Errorf("plane op stream (%d budget rejections)\n got %+v\nwant %+v", rejected, got, want)
		}
	})
}
