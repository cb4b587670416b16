package rival

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestWOMZeroValueGenerations: value 00 writes no cells at generation 1
// but must still consume the generation, so the *next* change lands as a
// generation-2 codeword rather than colliding with generation 1.
func TestWOMZeroValueGenerations(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	zeros := make([]byte, w.Capacity())
	if err := w.Write(zeros); err != nil {
		t.Fatal(err)
	}
	if dev.Flash().Stats().Programs != 0 {
		t.Errorf("all-zero generation-1 write programmed %d bytes; 00 needs no cells",
			dev.Flash().Stats().Programs)
	}
	// Change everything: must fit in generation 2 with no erase.
	ones := make([]byte, w.Capacity())
	for i := range ones {
		ones[i] = 0xFF
	}
	if err := w.Write(ones); err != nil {
		t.Fatal(err)
	}
	if dev.Flash().Stats().Erases != 0 {
		t.Errorf("second write erased %d times", dev.Flash().Stats().Erases)
	}
	got := readWOM(t, w)
	for i := range got {
		if got[i] != 0xFF {
			t.Fatalf("byte %d = %#x after gen-2 write", i, got[i])
		}
	}
	// Third change: now the erase is due.
	rng := xrand.New(1)
	mixed := make([]byte, w.Capacity())
	for i := range mixed {
		mixed[i] = rng.Byte() | 1 // ensure most dibits change from 11
	}
	if err := w.Write(mixed); err != nil {
		t.Fatal(err)
	}
	if dev.Flash().Stats().Erases != 1 {
		t.Errorf("third write should erase exactly once, got %d", dev.Flash().Stats().Erases)
	}
}

// TestWOMGenerationsPerDibitIndependent: only dibits that actually change
// consume generations, so a hot dibit forces the erase while cold dibits
// could have absorbed more writes.
func TestWOMGenerationsPerDibitIndependent(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	buf := make([]byte, w.Capacity())
	// Flip only the first byte's dibits each round; the rest stay 0.
	vals := []byte{0b01, 0b10, 0b11}
	for i, v := range vals {
		buf[0] = v
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
		wantErases := uint64(0)
		if i >= 2 { // third change of the same dibit
			wantErases = 1
		}
		if got := dev.Flash().Stats().Erases; got != wantErases {
			t.Fatalf("after write %d: erases = %d, want %d", i, got, wantErases)
		}
	}
}
