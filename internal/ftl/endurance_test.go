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
	if err := f.RetirePage(pp); err != nil {
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
	h := f2.Health()
	if h.SparesTotal != 2 || h.SparesFree != 1 || h.RetiredData != 1 {
		t.Errorf("health after remount: %+v", h)
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
	if err := f.RetirePage(first); err != nil {
		t.Fatalf("first retire: %v", err)
	}
	if err := f.RetirePage(f.l2p[1]); !errors.Is(err, ErrNoSpares) {
		t.Fatalf("second retire: got %v, want ErrNoSpares", err)
	}
	checkPages(t, f, want) // a refused retirement must not disturb data

	// Metadata and unmapped pages are refused outright.
	if err := f.RetirePage(f.lay.spare); err == nil {
		t.Error("retiring the swap-scratch page succeeded")
	}
	if err := f.RetirePage(first); err == nil {
		t.Error("retiring an already-retired page succeeded")
	}
}

func TestVolatileSpares(t *testing.T) {
	s := journalSpec()
	s.EnduranceCycles = 4
	dev := core.MustNewDevice(s)
	f := New(dev, WithSpares(2))
	if f.NumPages() != 14 {
		t.Fatalf("logical pages = %d, want 14", f.NumPages())
	}

	wearOutPhys(t, dev.Flash(), f.l2p[0])
	// Erasing the worn logical page retires it onto a blank spare.
	if err := f.ErasePage(0); err != nil {
		t.Fatalf("erase after wear-out: %v", err)
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
	h := f.Health()
	if h.SparesFree != 0 || h.RetiredData != 1 {
		t.Errorf("health: %+v", h)
	}
}

// stuckBits returns how many cells of page p have drifted to 0 since the
// last erase.
func stuckBits(t *testing.T, fl *flash.Device, p int) int {
	t.Helper()
	n, err := fl.StuckMaskInto(p, make([]byte, fl.Spec().PageSize))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRefreshCrashSweep: inject a power loss at every state-changing
// operation inside a scrub refresh and verify the page always recovers to
// either its drifted pre-refresh content or the fully restored image —
// never a torn mixture — and every other page is untouched.
func TestRefreshCrashSweep(t *testing.T) {
	survivedAll := false
	for skip := 0; skip < 300; skip++ {
		dev := core.MustNewDevice(journalSpec())
		f, err := Open(dev, WithSpares(1))
		if err != nil {
			t.Fatal(err)
		}
		want := fillPages(t, f)
		fl := dev.Flash()

		// Drift the page under test until at least one legitimate 1 has
		// flipped, so the restored image differs from the raw content.
		const lp = 2
		pp := f.l2p[lp]
		buf := make([]byte, f.PageSize())
		for stuckBits(t, fl, pp) == 0 {
			fl.ArmFault(flash.Fault{Kind: flash.FaultReadDisturb, Bits: 8})
			if err := fl.ReadPage(pp, buf); err != nil {
				t.Fatal(err)
			}
		}
		drifted := make([]byte, f.PageSize())
		if err := fl.ReadPage(pp, drifted); err != nil {
			t.Fatal(err)
		}
		mask := make([]byte, f.PageSize())
		if _, err := fl.StuckMaskInto(pp, mask); err != nil {
			t.Fatal(err)
		}
		restored := make([]byte, f.PageSize())
		for i := range restored {
			restored[i] = drifted[i] | mask[i]
		}
		if !bytes.Equal(restored, want[lp]) {
			t.Fatalf("skip %d: drift mask does not reconstruct the intended image", skip)
		}

		fl.InjectPowerLoss(skip)
		err = f.RefreshPage(pp, restored)
		fl.ClearFaults()
		if err == nil {
			survivedAll = true
			checkPages(t, f, want)
			if st := f.Stats(); st.Refreshes != 1 {
				t.Errorf("skip %d: stats %+v", skip, st)
			}
			break
		}
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("skip %d: unexpected error %v", skip, err)
		}

		f2, err := Open(dev, WithSpares(1))
		if err != nil {
			t.Fatalf("skip %d: remount failed: %v", skip, err)
		}
		got := make([]byte, f2.PageSize())
		if err := f2.Read(lp*f2.PageSize(), got); err != nil {
			t.Fatalf("skip %d: read: %v", skip, err)
		}
		if !bytes.Equal(got, restored) && !bytes.Equal(got, drifted) {
			t.Fatalf("skip %d: torn refresh:\n got      %x\n drifted  %x\n restored %x",
				skip, got, drifted, restored)
		}
		for olp := range want {
			if olp == lp {
				continue
			}
			if err := f2.Read(olp*f2.PageSize(), got); err != nil {
				t.Fatalf("skip %d: read page %d: %v", skip, olp, err)
			}
			if !bytes.Equal(got, want[olp]) {
				t.Fatalf("skip %d: bystander page %d corrupted", skip, olp)
			}
		}
		if err := f2.Write(0, []byte{9, 8, 7}); err != nil {
			t.Fatalf("skip %d: post-recovery write: %v", skip, err)
		}
	}
	if !survivedAll {
		t.Error("sweep never reached the fault-free completion point; raise the skip range")
	}
}

// TestRefreshSkipsMetadata: journal metadata refreshes are a no-op — those
// pages protect themselves with CRCs and ping-pong slots.
func TestRefreshSkipsMetadata(t *testing.T) {
	dev := core.MustNewDevice(journalSpec())
	f, err := Open(dev, WithSpares(1))
	if err != nil {
		t.Fatal(err)
	}
	blank := make([]byte, f.PageSize())
	before := dev.Flash().Stats()
	for _, p := range []int{f.lay.spare, f.lay.intent, f.lay.slot[0], f.lay.slot[1]} {
		if err := f.RefreshPage(p, blank); err != nil {
			t.Fatalf("refresh of meta page %d: %v", p, err)
		}
	}
	if delta := dev.Flash().Stats().Sub(before); delta.Erases != 0 || delta.Programs != 0 {
		t.Errorf("metadata refresh touched flash: %+v", delta)
	}
	if st := f.Stats(); st.Refreshes != 0 {
		t.Errorf("stats: %+v", st)
	}
}
