package rival

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func newDev(t *testing.T) *core.Device {
	t.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 48 // divisible by 3 for clean WOM packing
	spec.NumPages = 8
	return core.MustNewDevice(spec)
}

// --- LogWriter ---

func TestLogWriterAppendReadBack(t *testing.T) {
	dev := newDev(t)
	l, err := NewLogWriter(dev, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	slot, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := dev.Flash().Read(dev.Flash().PageBase(0)+slot*4, got); err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		if got[i] != rec[i] {
			t.Fatalf("byte %d = %#x", i, got[i])
		}
	}
}

// TestLogWriterErasesOnlyOnWrap: a full page of appends costs zero erases;
// the wrap costs exactly one.
func TestLogWriterErasesOnlyOnWrap(t *testing.T) {
	dev := newDev(t)
	l, err := NewLogWriter(dev, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	const per = 12 // 48-byte page / 4-byte records
	rec := []byte{1, 2, 3, 4}
	for i := 0; i < per; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Flash().Stats().Erases != 0 {
		t.Errorf("erases before wrap = %d", dev.Flash().Stats().Erases)
	}
	slot, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Flash().Stats().Erases != 1 {
		t.Errorf("erases after wrap = %d, want 1", dev.Flash().Stats().Erases)
	}
	if slot != 0 {
		t.Errorf("append after wrap landed in slot %d, want 0", slot)
	}
}

func TestLogWriterValidation(t *testing.T) {
	dev := newDev(t)
	if _, err := NewLogWriter(dev, 0, 0); err == nil {
		t.Error("zero record size accepted")
	}
	l, _ := NewLogWriter(dev, 0, 4)
	if _, err := l.Append([]byte{1}); err == nil {
		t.Error("short record accepted")
	}
}

// --- WOM ---

// readWOM decodes the store's logical content from its flash cells.
func readWOM(t *testing.T, w *WOM) []byte {
	t.Helper()
	out := make([]byte, w.Capacity())
	for d := 0; d < 4*len(out); d++ {
		v, err := w.DecodeCell(d)
		if err != nil {
			t.Fatal(err)
		}
		out[d/4] |= v << uint(2*(d%4))
	}
	return out
}

func TestWOMCapacityAndOverhead(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	// 48 bytes = 384 cells = 128 dibits = 32 logical bytes.
	if w.Capacity() != 32 {
		t.Fatalf("capacity = %d, want 32", w.Capacity())
	}
	// The code's footprint: three cells per two bits.
	if ps := dev.Flash().Spec().PageSize; float64(ps)/float64(w.Capacity()) != 1.5 {
		t.Errorf("overhead = %d physical bytes per %d logical", ps, w.Capacity())
	}
}

// TestWOMTwoWritesNoErase: two arbitrary full-buffer writes must not erase.
func TestWOMTwoWritesNoErase(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	rng := xrand.New(3)
	a := make([]byte, w.Capacity())
	b := make([]byte, w.Capacity())
	for i := range a {
		a[i], b[i] = rng.Byte(), rng.Byte()
	}
	if err := w.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if got := dev.Flash().Stats().Erases; got != 0 {
		t.Fatalf("erases after two writes = %d, want 0", got)
	}
	got := readWOM(t, w)
	for i := range b {
		if got[i] != b[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], b[i])
		}
	}
}

// TestWOMThirdWriteErases: the third change of a dibit forces the erase.
func TestWOMThirdWriteErases(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	bufs := [][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}
	rng := xrand.New(5)
	for _, b := range bufs {
		for i := range b {
			b[i] = rng.Byte()
		}
	}
	for _, b := range bufs[:2] {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(bufs[2]); err != nil {
		t.Fatal(err)
	}
	if got := dev.Flash().Stats().Erases; got != 1 {
		t.Errorf("erases after third write = %d, want 1", got)
	}
	got := readWOM(t, w)
	for i := range bufs[2] {
		if got[i] != bufs[2][i] {
			t.Fatalf("byte %d corrupted after erase-and-rewrite", i)
		}
	}
}

// TestWOMFlashMatchesCache: decoding the cells directly must agree with the
// cached logical content after mixed-generation writes.
func TestWOMFlashMatchesCache(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	rng := xrand.New(7)
	buf := make([]byte, w.Capacity())
	for round := 0; round < 5; round++ {
		for i := range buf {
			if rng.Intn(3) == 0 { // change only some bytes
				buf[i] = rng.Byte()
			}
		}
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < w.Capacity()*4; d++ {
			got, err := w.DecodeCell(d)
			if err != nil {
				t.Fatal(err)
			}
			want := buf[d/4] >> uint(2*(d%4)) & 0b11
			if got != want {
				t.Fatalf("round %d dibit %d: cells decode %02b, cache %02b", round, d, got, want)
			}
		}
	}
}

// TestWOMRepeatedSameValueFree: rewriting identical data costs nothing.
func TestWOMRepeatedSameValueFree(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	buf := make([]byte, w.Capacity())
	rng := xrand.New(9)
	for i := range buf {
		buf[i] = rng.Byte()
	}
	if err := w.Write(buf); err != nil {
		t.Fatal(err)
	}
	progsAfterFirst := dev.Flash().Stats().Programs
	for i := 0; i < 10; i++ {
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Flash().Stats().Programs; got != progsAfterFirst {
		t.Errorf("identical rewrites programmed %d extra bytes", got-progsAfterFirst)
	}
}

func TestWOMWriteSizeValidation(t *testing.T) {
	dev := newDev(t)
	w := NewWOM(dev, 0)
	if err := w.Write(make([]byte, 3)); err == nil {
		t.Error("short write accepted")
	}
}
