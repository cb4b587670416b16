package ftl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// fullScanColdest is levelWear's pick computed without the cache: one wear
// snapshot, then every mapped page in l2p order, skipping degraded and
// at-rating pages, keeping the first minimum.
func fullScanColdest(f *FTL) (int, uint32) {
	fl := f.dev.Flash()
	snap := fl.WearSnapshot()
	cold := -1
	var coldW uint32
	for _, pp := range f.l2p {
		if fl.Degraded(pp) || fl.AtRating(pp) {
			continue
		}
		if cold < 0 || snap[pp] < coldW {
			cold, coldW = pp, snap[pp]
		}
	}
	return cold, coldW
}

// TestColdestPickMatchesFullScan is the cached-pick differential: an FTL
// with aggressive leveling and a spare pool is driven through random
// hot/cold writes and erases, transient-fault retirements, health-gate
// refusals of pages worn out or to their rating behind the FTL's back (the
// cached page among them), fences set at the flash layer and power losses,
// and after every operation its coldest-page pick must equal a full scan.
// The FTL remounts after each power loss. Swaps and retirements must both
// happen, and the cache must actually be hit, or the test proves nothing.
// The differential runs as the journaled=true subtest, the name it has
// always reported under.
func TestColdestPickMatchesFullScan(t *testing.T) {
	t.Run("journaled=true", coldestDifferential)
}

func coldestDifferential(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 32
	spec.NumPages = 48
	spec.Banks = 2
	spec.EnduranceCycles = 3000 // high enough that the journal metadata outlives the run
	dev := core.MustNewDevice(spec, core.WithHealthGate(), core.WithRetry(1, time.Microsecond))
	fl := dev.Flash()
	open := func() *FTL {
		t.Helper()
		f, err := Open(dev, WithSwapDelta(2), WithSpares(6))
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		return f
	}
	f := open()
	ps := f.PageSize()
	rng := xrand.New(0xC01D)
	var swaps, retirements, powerLosses, hits uint64
	check := func(op int, what string) {
		t.Helper()
		wantP, wantW := fullScanColdest(f)
		cached := f.coldOK
		gotP, gotW := f.coldest()
		if gotP != wantP || gotW != wantW {
			t.Fatalf("op %d (%s): pick (page %d, wear %d), full scan (page %d, wear %d)",
				op, what, gotP, gotW, wantP, wantW)
		}
		if cached && f.coldOK && gotP == f.cold {
			hits++
		}
	}
	tally := func() {
		swaps += f.stats.Swaps
		retirements += f.stats.Retirements
	}
	buf := make([]byte, ps)
	data := func() []byte { return randomBytes(rng, buf) }

	for op := 0; op < 6000; op++ {
		// Nine in ten writes land on three hot logical pages.
		lp := rng.Intn(f.NumPages())
		if rng.Intn(10) != 0 {
			lp = rng.Intn(3)
		}
		// The page an age or fence op hits: the cached pick half the time.
		victim := f.l2p[lp]
		if f.coldOK && rng.Intn(2) == 0 {
			victim = f.cold
		}
		var what string
		var err error
		switch r := rng.Intn(40); {
		case r == 0:
			// Wear a page to its rating, or past it, at the flash layer:
			// the health gate refuses the next exact write to it.
			what = "age"
			target := spec.EnduranceCycles + uint32(rng.Intn(2))
			for fl.Wear(victim) < target && !fl.Retired(victim) {
				_ = fl.ErasePage(victim)
			}
		case r == 1:
			what = "fence"
			_ = fl.Retire(victim)
		case r < 4:
			what = "erase"
			err = f.ErasePage(lp)
		case r < 6:
			// An incident outlasting the core retry budget retires the
			// page; the FTL moves the write onto a spare.
			what = "transient"
			fl.ArmFault(flash.Fault{Kind: flash.FaultTransientProgram, Retries: 2})
			err = f.Write(lp*ps, data())
			fl.ClearFaults()
		case r < 8:
			what = "power loss"
			fl.InjectPowerLoss(rng.Intn(4 * ps))
			for i := 0; i < 3 && err == nil; i++ {
				err = f.Write(rng.Intn(f.NumPages())*ps, data())
			}
			fl.ClearFaults()
			powerLosses++
			tally()
			f = open()
		default:
			what = "write"
			err = f.Write(lp*ps, data())
		}
		if err != nil && !errors.Is(err, flash.ErrPowerLoss) && !errors.Is(err, ErrNoSpares) &&
			!errors.Is(err, core.ErrExactDegraded) && !errors.Is(err, flash.ErrWornOut) &&
			!errors.Is(err, flash.ErrPageRetired) && !errors.Is(err, flash.ErrTransient) {
			t.Fatalf("op %d (%s): %v", op, what, err)
		}
		check(op, what)
	}
	tally()
	if swaps == 0 || retirements == 0 || powerLosses == 0 {
		t.Fatalf("vacuous run: %d swaps, %d retirements, %d power losses", swaps, retirements, powerLosses)
	}
	if hits == 0 {
		t.Fatal("the cached pick was never reused")
	}
	worn := 0
	for p := 0; p < fl.Spec().NumPages; p++ {
		if fl.WornOut(p) {
			worn++
		}
	}
	if worn == 0 {
		t.Fatal("no page wore out, so the health gate never refused a write")
	}
	t.Logf("%d swaps, %d retirements, %d power losses, %d cache hits", swaps, retirements, powerLosses, hits)
}

// randomBytes fills buf from rng and returns it.
func randomBytes(rng *xrand.RNG, buf []byte) []byte {
	for i := range buf {
		buf[i] = rng.Byte()
	}
	return buf
}

// recordWriter appends recSize-byte records through f across its logical
// pages, erasing a page before writing into it again — the store's log
// pattern, one page program per record.
type recordWriter struct {
	f       *FTL
	rec     []byte
	lp, off int
	wrapped bool // every page has been written once; erase before reuse
}

func (w *recordWriter) next() error {
	ps := w.f.PageSize()
	if w.off+len(w.rec) > ps {
		w.lp, w.off = (w.lp+1)%w.f.NumPages(), 0
		w.wrapped = w.wrapped || w.lp == 0
		if w.wrapped {
			if err := w.f.ErasePage(w.lp); err != nil {
				return err
			}
		}
	}
	w.rec[0]++
	err := w.f.Write(w.lp*ps+w.off, w.rec)
	w.off += len(w.rec)
	return err
}

func recordFTL(tb testing.TB, pages int) *recordWriter {
	tb.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 1024
	spec.NumPages = pages
	f, err := Open(core.MustNewDevice(spec), WithSpares(16))
	if err != nil {
		tb.Fatal(err)
	}
	rec := make([]byte, 128)
	for i := range rec {
		rec[i] = byte(i * 7)
	}
	return &recordWriter{f: f, rec: rec}
}

// TestWriteSteadyStateAllocs: a one-page record append through the FTL
// allocates nothing once the leveling pick is cached.
func TestWriteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	w := recordFTL(t, 256)
	for i := 0; i < 64; i++ {
		if err := w.next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FTL.Write allocates %.1f times per one-page record, want 0", allocs)
	}
}

// BenchmarkFTLWrite appends 128-byte records through a journaled FTL. The
// host cost per write must not grow with the device's page count.
func BenchmarkFTLWrite(b *testing.B) {
	for _, pages := range []int{256, 4096} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			w := recordFTL(b, pages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
