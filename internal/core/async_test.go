package core

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestWriteAsyncShimMatchesWrite pins the WriteAsync shim to Write: a
// device built with WithAsyncCommit and driven by WriteAsync(…).Wait()
// ends with the same array, flash stats, controller stats and per-write
// errors as a plain device driven by Write. The script mixes approximate
// and exact pages, multi-page writes across banks, a page driven past its
// endurance rating, an out-of-bounds write and an empty one.
func TestWriteAsyncShimMatchesWrite(t *testing.T) {
	spec := concSpec()
	spec.EnduranceCycles = 4
	type write struct {
		addr int
		data []byte
	}
	rng := xrand.New(0x5A17)
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = rng.Byte()
		}
		return b
	}
	var script []write
	for i := 0; i < 60; i++ {
		addr := rng.Intn(spec.Size() - 3*spec.PageSize)
		script = append(script, write{addr, randBytes(1 + rng.Intn(3*spec.PageSize))})
	}
	// Alternate disjoint patterns on the last (exact) page, so every
	// rewrite erases it and it wears past its rating.
	worn := spec.Size() - spec.PageSize
	a, b := make([]byte, spec.PageSize), make([]byte, spec.PageSize)
	for i := range a {
		a[i], b[i] = 0xAA, 0x55
	}
	for i := 0; i < 2*int(spec.EnduranceCycles)+2; i++ {
		script = append(script, write{worn, [][]byte{a, b}[i%2]})
	}
	// A multi-page write ending on the worn page, then the edge cases.
	script = append(script,
		write{worn - spec.PageSize - 5, randBytes(2*spec.PageSize + 5)},
		write{spec.Size() - 1, make([]byte, 2)},
		write{0, nil},
	)

	newDevice := func(opts ...Option) *Device {
		d := MustNewDevice(spec, opts...)
		if err := d.SetApproxRegion(0, spec.Size()/2); err != nil {
			t.Fatal(err)
		}
		d.SetThreshold(4)
		return d
	}
	serial := newDevice()
	shim := newDevice(WithAsyncCommit(8))
	var sawWorn, sawBounds bool
	for i, w := range script {
		se := serial.Write(w.addr, w.data)
		ae := shim.WriteAsync(w.addr, w.data).Wait()
		if (se == nil) != (ae == nil) || (se != nil && se.Error() != ae.Error()) {
			t.Fatalf("write %d: Write error %v, WriteAsync error %v", i, se, ae)
		}
		for _, target := range []error{flash.ErrWornOut, flash.ErrBounds} {
			if errors.Is(se, target) != errors.Is(ae, target) {
				t.Fatalf("write %d: Write error %v, WriteAsync error %v", i, se, ae)
			}
		}
		sawWorn = sawWorn || errors.Is(se, flash.ErrWornOut)
		sawBounds = sawBounds || errors.Is(se, flash.ErrBounds)
	}
	if !sawWorn || !sawBounds {
		t.Fatalf("script never hit ErrWornOut (%v) or ErrBounds (%v)", sawWorn, sawBounds)
	}
	if err := shim.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if s, a := serial.Flash().Stats(), shim.Flash().Stats(); s != a {
		t.Errorf("flash stats differ\nWrite      %+v\nWriteAsync %+v", s, a)
	}
	if s, a := serial.Stats(), shim.Stats(); s != a {
		t.Errorf("controller stats differ\nWrite      %+v\nWriteAsync %+v", s, a)
	}
	for addr := 0; addr < spec.Size(); addr++ {
		if serial.Flash().Peek(addr) != shim.Flash().Peek(addr) {
			t.Fatalf("array differs at %#x", addr)
		}
	}

	if raceEnabled {
		return // sync.Pool drops items under the race detector
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = shim.WriteAsync(0, a[:8]).Wait()
	}); allocs > 0.5 {
		t.Errorf("WriteAsync(…).Wait() allocates %.2f objects per op, want ~0", allocs)
	}
}
