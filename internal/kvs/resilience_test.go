package kvs

import (
	"bytes"
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
)

func resilienceDevice(pages int) *core.Device {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = pages
	spec.Banks = 1
	return core.MustNewDevice(spec)
}

// clearBit drifts one stored cell to 0, as read disturb would: the lowest
// set bit at or after addr.
func clearBit(t *testing.T, dev *core.Device, addr int, _ byte) {
	t.Helper()
	for ; ; addr++ {
		cur := dev.Flash().Peek(addr)
		if cur == 0 {
			continue
		}
		low := cur & (^cur + 1)
		if err := dev.Flash().ProgramByte(addr, cur&^low); err != nil {
			t.Fatal(err)
		}
		return
	}
}

// TestSingleBitCorrectionOnGet: a drifted cell inside a stored value is
// repaired transparently by Get and counted in the stats.
func TestSingleBitCorrectionOnGet(t *testing.T) {
	dev := resilienceDevice(6)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("precise sensor reading")
	if err := s.Put("k", val); err != nil {
		t.Fatal(err)
	}
	// Clear one bit inside the record's value bytes, as read disturb would.
	loc := s.index["k"]
	addr := s.pageBase(loc.page) + loc.off + recHeaderSize + 1 + 3 // inside value
	clearBit(t, dev, addr, 0x04)
	got, err := s.Get("k")
	if err != nil {
		t.Fatalf("Get after single-bit disturb: %v", err)
	}
	if !bytes.Equal(got, val) {
		t.Errorf("corrected value mismatch: %q vs %q", got, val)
	}
	if s.Stats().CorrectedBits == 0 {
		t.Error("correction not counted")
	}
}

// TestSingleBitCorrectionAtMount: the same damage is repaired during the
// mount-time replay, so the index still sees the record.
func TestSingleBitCorrectionAtMount(t *testing.T) {
	dev := resilienceDevice(6)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("alpha", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("beta", []byte("second")); err != nil {
		t.Fatal(err)
	}
	// Damage one bit of alpha's record; beta sits after it in the page,
	// so an unrepaired CRC failure would hide beta too.
	loc := s.index["alpha"]
	clearBit(t, dev, s.pageBase(loc.page)+loc.off+recHeaderSize+2, 0x01)

	s2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"alpha": "first", "beta": "second"} {
		got, err := s2.Get(k)
		if err != nil {
			t.Fatalf("Get %q after remount: %v", k, err)
		}
		if string(got) != want {
			t.Errorf("%q: got %q want %q", k, got, want)
		}
	}
}

// TestQuarantineBadHeader: a page whose header is damaged beyond repair is
// quarantined at mount, then reclaimed by erase when space runs short.
func TestQuarantineBadHeader(t *testing.T) {
	dev := resilienceDevice(4)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	page := s.index["k"].page
	// Destroy the header's CRC field: clearing two whole bytes is far
	// beyond single-bit repair.
	fl := dev.Flash()
	base := s.pageBase(page)
	for i := 4; i < 6; i++ {
		if err := fl.ProgramByte(base+i, 0x00); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().QuarantinedPages != 1 {
		t.Fatalf("quarantined = %d, want 1 (stats %+v)", s2.Stats().QuarantinedPages, s2.Stats())
	}
	// The key lived on the destroyed page — it is gone (this is what the
	// campaign's journaled modes prevent); the store must still work and
	// eventually reclaim the quarantined page.
	for i := 0; i < 40; i++ {
		if err := s2.Put("fill", bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s2.Stats().QuarantinedPages != 0 {
		t.Errorf("quarantined page never reclaimed: %+v", s2.Stats())
	}
}

// TestVerifyRetriesStuckBits: with WithVerify, a stuck cell under a landing
// zone is caught at commit time and the record is re-appended elsewhere —
// the Put succeeds and reads back exactly.
func TestVerifyRetriesStuckBits(t *testing.T) {
	dev := resilienceDevice(12)
	s, err := Open(dev, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("seed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Erases keep leaving stuck cells: GC/open-page landing zones get
	// silently corrupted, and the verify machinery must route around it.
	dev.Flash().SetFaultSchedule(3, flash.FaultMix{
		StuckBits: 1, MinGap: 2, MaxGap: 6, MaxBits: 2,
	})
	val := bytes.Repeat([]byte{0xAB}, 30)
	for i := 0; i < 60; i++ {
		key := string(rune('a' + i%8))
		if err := s.Put(key, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got, err := s.Get(key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("put %d read back wrong", i)
		}
	}
	dev.Flash().ClearFaults()
	t.Logf("stats after stuck-bit storm: %+v", s.Stats())
}

// TestStoreOnJournaledFTL: the store runs on an FTL backend; data survives
// remounting both layers, and kvs GC drives FTL wear leveling underneath.
func TestStoreOnJournaledFTL(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 12
	spec.Banks = 1
	dev := core.MustNewDevice(spec)

	f, err := ftl.Open(dev, ftl.WithSwapDelta(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenOn(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.np != f.NumPages() {
		t.Fatalf("store sees %d pages, ftl has %d", s.np, f.NumPages())
	}
	val := bytes.Repeat([]byte{7}, 24)
	for i := 0; i < 120; i++ {
		val[0] = byte(i)
		if err := s.Put("hot", val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	want, err := s.Get("hot")
	if err != nil {
		t.Fatal(err)
	}

	// Remount both layers: the FTL map and the store index must both
	// recover from flash alone.
	f2, err := ftl.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenOn(f2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("hot")
	if err != nil {
		t.Fatalf("Get after double remount: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("value changed across remount: %v vs %v", got, want)
	}
	if f.Stats().Swaps == 0 {
		t.Log("note: no swaps triggered; wear was already level")
	}
}

// TestGetCorruptBeyondRepair: multi-bit damage surfaces as ErrCorrupt, not
// as silently wrong data.
func TestGetCorruptBeyondRepair(t *testing.T) {
	dev := resilienceDevice(6)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", bytes.Repeat([]byte{0xFF}, 16)); err != nil {
		t.Fatal(err)
	}
	loc := s.index["k"]
	base := s.pageBase(loc.page) + loc.off
	fl := dev.Flash()
	// Clear whole bytes across the value: far beyond single-bit repair.
	for i := 0; i < 4; i++ {
		if err := fl.ProgramByte(base+recHeaderSize+1+i, 0x00); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}
