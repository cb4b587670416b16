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
	if got := f.SparesRemaining(); got != 0 {
		t.Errorf("SparesRemaining = %d, want 0", got)
	}
}
