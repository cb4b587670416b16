package ftl

import (
	"bytes"
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// wearOutPhys erases physical page p at the flash layer until it is past
// endurance.
func wearOutPhys(t *testing.T, fl *flash.Device, p int) {
	t.Helper()
	for !fl.WornOut(p) {
		if err := fl.ErasePage(p); err != nil && !errors.Is(err, flash.ErrWornOut) {
			t.Fatal(err)
		}
	}
}

func TestRetirementPersistsAcrossRemount(t *testing.T) {
	dev := core.MustNewDevice(journalSpec())
	f, err := Open(dev, WithSpares(2))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 10 {
		t.Fatalf("logical pages = %d, want 10 (12 minus 2 spares)", f.NumPages())
	}
	want := fillPages(t, f)

	pp := f.l2p[3]
	if err := f.retirePhys(pp, false); err != nil {
		t.Fatalf("retire: %v", err)
	}
	if !dev.Flash().Retired(pp) {
		t.Error("retired page not fenced at the flash layer")
	}
	if f.l2p[3] == pp {
		t.Error("logical page 3 still maps to the retired page")
	}
	checkPages(t, f, want)
	if got := f.SparesRemaining(); got != 1 {
		t.Errorf("SparesRemaining = %d, want 1", got)
	}

	f2, err := Open(dev, WithSpares(2))
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	checkPages(t, f2, want)
	if f2.l2p[3] != f.l2p[3] {
		t.Errorf("remap lost: l2p[3] = %d, want %d", f2.l2p[3], f.l2p[3])
	}
	if !dev.Flash().Retired(pp) {
		t.Error("fence not rebuilt after remount")
	}
	if got := f2.SparesRemaining(); got != 1 {
		t.Errorf("SparesRemaining after remount = %d, want 1", got)
	}
	if f2.p2l[pp] != -1 {
		t.Errorf("retired page %d maps to logical page %d after remount", pp, f2.p2l[pp])
	}
}

func TestSpareExhaustion(t *testing.T) {
	dev := core.MustNewDevice(journalSpec())
	f, err := Open(dev, WithSpares(1))
	if err != nil {
		t.Fatal(err)
	}
	want := fillPages(t, f)

	first := f.l2p[0]
	if err := f.retirePhys(first, false); err != nil {
		t.Fatalf("first retire: %v", err)
	}
	if err := f.retirePhys(f.l2p[1], false); !errors.Is(err, ErrNoSpares) {
		t.Fatalf("second retire: got %v, want ErrNoSpares", err)
	}
	checkPages(t, f, want) // a refused retirement must not disturb data

	// Pages no logical page maps to are refused outright.
	if err := f.retirePhys(f.lay.spare, false); err == nil {
		t.Error("retiring the swap-scratch page succeeded")
	}
	if err := f.retirePhys(first, false); err == nil {
		t.Error("retiring an already-retired page succeeded")
	}
}

// TestEraseRetiresOntoBlankSpare: erasing a logical page whose physical
// page has worn out retires it onto a spare, and the logical page comes
// back blank.
func TestEraseRetiresOntoBlankSpare(t *testing.T) {
	s := journalSpec()
	s.EnduranceCycles = 4
	dev := core.MustNewDevice(s)
	f, err := Open(dev, WithSpares(2))
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, f)
	worn := f.l2p[0]
	wearOutPhys(t, dev.Flash(), worn)
	if err := f.ErasePage(0); err != nil {
		t.Fatalf("erase after wear-out: %v", err)
	}
	if f.l2p[0] == worn || !dev.Flash().Retired(worn) {
		t.Fatalf("worn page %d not retired (l2p[0] = %d)", worn, f.l2p[0])
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !allFF(buf) {
		t.Errorf("retired-and-replaced page not blank: %x", buf)
	}
	if st := f.Stats(); st.Retirements != 1 {
		t.Errorf("stats: %+v", st)
	}
	if got := f.SparesRemaining(); got != 1 {
		t.Errorf("SparesRemaining = %d, want 1", got)
	}
}

// TestEraseMetaPageWornOutOnce: a worn-out erase is not retried — wear only
// grows, so every retry would fail again and cost one more cycle.
func TestEraseMetaPageWornOutOnce(t *testing.T) {
	s := journalSpec()
	s.EnduranceCycles = 4
	dev := core.MustNewDevice(s)
	f, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	fl := dev.Flash()
	p := f.lay.intent
	wearOutPhys(t, fl, p)
	erases, wear := fl.Stats().Erases, fl.Wear(p)
	if err := f.eraseMetaPage(p); !errors.Is(err, flash.ErrWornOut) {
		t.Fatalf("eraseMetaPage on a worn page: got %v, want ErrWornOut", err)
	}
	if got := fl.Stats().Erases; got != erases+1 {
		t.Errorf("erases rose by %d, want 1", got-erases)
	}
	if got := fl.Wear(p); got != wear+1 {
		t.Errorf("wear rose by %d, want 1", got-wear)
	}
}

// TestSwapSparesScratchPageAtRating: every swap rewrites the scratch page,
// so under one hot logical page it is the first page to reach its rating.
// From then on leveling must stop rather than erase it past the rating:
// no write fails, no metadata page wears past its rating, and the swap
// count stays put while the hot page wears in place up to its own rating.
func TestSwapSparesScratchPageAtRating(t *testing.T) {
	s := journalSpec()
	s.EnduranceCycles = 40
	dev := core.MustNewDevice(s)
	f, err := Open(dev, WithSwapDelta(2))
	if err != nil {
		t.Fatal(err)
	}
	fl := dev.Flash()
	a := bytes.Repeat([]byte{0x55}, f.PageSize())
	b := bytes.Repeat([]byte{0xAA}, f.PageSize()) // alternating forces an erase per write
	atRating, swapsAt := -1, uint64(0)
	for i := 0; !fl.AtRating(f.l2p[0]); i++ {
		if i > 4000 {
			t.Fatal("the hot page never reached its rating")
		}
		buf := a
		if i%2 == 1 {
			buf = b
		}
		if err := f.Write(0, buf); err != nil {
			t.Fatalf("write %d (%d swaps): %v", i, f.Stats().Swaps, err)
		}
		if atRating < 0 && fl.AtRating(f.lay.spare) {
			atRating, swapsAt = i, f.Stats().Swaps
		}
	}
	if atRating < 0 {
		t.Fatal("the scratch page never reached its rating")
	}
	if got := f.Stats().Swaps; got != swapsAt {
		t.Errorf("swaps grew from %d to %d after the scratch page reached its rating at write %d",
			swapsAt, got, atRating)
	}
	for p := f.lay.spare; p < f.lay.poolBase; p++ {
		if w := fl.Wear(p); w > s.EnduranceCycles {
			t.Errorf("metadata page %d wear %d exceeds its rating %d", p, w, s.EnduranceCycles)
		}
	}
}

// TestSwapMetaUsable: the swap's endpoint rule covers each metadata page
// the swap would erase — the scratch page, the checkpoint slot it commits
// to, and the intent page only when the append has to wrap the log — and
// no other.
func TestSwapMetaUsable(t *testing.T) {
	for _, c := range []struct {
		name string
		page func(l layout, slot int) int // the page aged to its rating, or -1
		wrap bool                         // the next intent append wraps the log
		want bool
	}{
		{"all fresh", func(layout, int) int { return -1 }, true, true},
		{"scratch", func(l layout, _ int) int { return l.spare }, false, false},
		{"target slot", func(l layout, slot int) int { return l.slot[1-slot] }, false, false},
		{"current slot", func(l layout, slot int) int { return l.slot[slot] }, false, true},
		{"intent, no wrap", func(l layout, _ int) int { return l.intent }, false, true},
		{"intent, wrap", func(l layout, _ int) int { return l.intent }, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := journalSpec()
			s.EnduranceCycles = 8
			dev := core.MustNewDevice(s)
			f, err := Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			fl := dev.Flash()
			if p := c.page(f.lay, f.checkpointSlot); p >= 0 {
				for !fl.AtRating(p) {
					if err := fl.ErasePage(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			if c.wrap {
				f.intentOff = f.lay.ps
			}
			if got := f.swapMetaUsable(); got != c.want {
				t.Errorf("swapMetaUsable = %v, want %v", got, c.want)
			}
		})
	}
}

// TestWriteRetriesOntoSpare: the health gate refuses a degraded page, the
// FTL retires it and the write lands on the spare — callers never see the
// refusal while spares remain.
func TestWriteRetriesOntoSpare(t *testing.T) {
	s := journalSpec()
	s.EnduranceCycles = 4
	dev := core.MustNewDevice(s, core.WithHealthGate())
	f, err := Open(dev, WithSpares(1))
	if err != nil {
		t.Fatal(err)
	}
	ps := f.PageSize()
	const lp = 2
	wearOutPhys(t, dev.Flash(), f.l2p[lp])

	data := bytes.Repeat([]byte{0xA5}, 8)
	if err := f.Write(lp*ps, data); err != nil {
		t.Fatalf("write onto degraded page: %v", err)
	}
	got := make([]byte, len(data))
	if err := f.Read(lp*ps, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %x, want %x", got, data)
	}
	if st := f.Stats(); st.Retirements != 1 {
		t.Errorf("stats: %+v", st)
	}
	if got := f.SparesRemaining(); got != 0 {
		t.Errorf("SparesRemaining = %d, want 0", got)
	}
}
