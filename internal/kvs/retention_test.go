package kvs

import (
	"bytes"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// plantMarginalCell stores one zero-heavy record under key "k" and ages
// retention until the marginal cell lands inside the record's bytes on
// page 0, so every host read of the record may flicker.
func plantMarginalCell(t *testing.T, s *Store, dev *core.Device) {
	t.Helper()
	if err := s.Put("k", make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	loc := s.index["k"]
	if loc.page != 0 {
		t.Fatalf("record landed on page %d, want 0", loc.page)
	}
	fl := dev.Flash()
	stored := make([]byte, s.ps)
	if err := fl.ReadPage(0, stored); err != nil {
		t.Fatal(err)
	}
	for tries := 0; ; tries++ {
		if tries > 500 {
			t.Fatal("could not place a marginal cell inside the record")
		}
		fl.AgeRetention(1) // one leak event in bank 0
		if fl.RiseBits(0) == 0 {
			continue
		}
		off := marginalByte(t, fl, stored)
		if off >= loc.off && off < loc.off+loc.size {
			return
		}
		// Marginal cell landed in the page header; rewrite the page to
		// recharge it, and redraw.
		if err := fl.EraseProgramPage(0, stored); err != nil {
			t.Fatal(err)
		}
	}
}

// marginalByte finds the byte of page 0 holding its one marginal cell:
// the margin-aware ReadPage serves stored, and the cell reads 1 on about
// half of all host reads.
func marginalByte(t *testing.T, fl *flash.Device, stored []byte) int {
	t.Helper()
	buf := make([]byte, len(stored))
	for i := 0; i < 64; i++ {
		if err := fl.Read(fl.PageBase(0), buf); err != nil {
			t.Fatal(err)
		}
		for off := range buf {
			if buf[off] != stored[off] {
				return off
			}
		}
	}
	t.Fatal("marginal cell never flickered in 64 host reads")
	return -1
}

// TestGetReSensesMarginalCell: a marginal retention cell inside a record
// flickers on host reads; Get must absorb it — usually by re-sensing, in
// the worst case by single-bit repair — and always return the right value.
func TestGetReSensesMarginalCell(t *testing.T) {
	s, dev := newStore(t, 8)
	plantMarginalCell(t, s, dev)

	want := make([]byte, 80)
	for i := 0; i < 200; i++ {
		got, err := s.Get("k")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("get %d returned a corrupted value", i)
		}
		if s.index["k"].page != 0 {
			break // read repair moved the record off the marginal cell
		}
	}
	st := s.Stats()
	if st.SenseRetries == 0 {
		t.Error("no re-sense attempted despite a marginal cell in the record")
	}
	if st.SenseRecovered == 0 && st.CorrectedBits == 0 {
		t.Error("flicker neither re-sensed nor repaired")
	}
}

// TestMountReSensesMarginalCell: mount replay reads are host-facing, so a
// committed record can flicker its CRC check at mount. The re-sense must
// keep the record from being dropped as torn.
func TestMountReSensesMarginalCell(t *testing.T) {
	s, dev := newStore(t, 8)
	plantMarginalCell(t, s, dev)

	want := make([]byte, 80)
	var senses uint64
	for i := 0; i < 40; i++ {
		s2, err := Open(dev)
		if err != nil {
			t.Fatalf("mount %d: %v", i, err)
		}
		st := s2.Stats()
		if st.TornSkipped != 0 {
			t.Fatalf("mount %d dropped a committed record as torn", i)
		}
		senses += st.SenseRetries
		got, err := s2.Get("k")
		if err != nil {
			t.Fatalf("mount %d get: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mount %d returned a corrupted value", i)
		}
	}
	if senses == 0 {
		t.Error("no mount-path re-sense across 40 mounts with a marginal cell armed")
	}
}
