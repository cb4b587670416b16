package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
)

// TestLifetimeGracefulDegradation drives a tiny managed stack — kvs on a
// journaled FTL with a spare pool, health gate on — until the flash is
// completely worn out, and asserts the endurance-management contract:
//
//  1. healthy phase: writes succeed;
//  2. degraded phase: worn pages are retired onto spares behind the
//     store's back, writes keep succeeding until the pool is exhausted;
//  3. end of life: the store reports ErrDeviceReadOnly rather than
//     failing with something that looks like a bug;
//  4. at every point, acknowledged exact data reads back exactly — wearing
//     out loses capacity, never committed bytes;
//  5. after the store is read-only, the device still accepts approximate
//     writes on degraded pages while refusing exact ones — the
//     approx-aware degradation story end to end.
func TestLifetimeGracefulDegradation(t *testing.T) {
	s := flash.DefaultSpec()
	s.PageSize = 64
	s.NumPages = 24
	s.Banks = 1
	s.EnduranceCycles = 10
	dev := core.MustNewDevice(s, core.WithHealthGate())
	f, err := ftl.Open(dev, ftl.WithSpares(4), ftl.WithSwapDelta(1000))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenOn(f, WithVerify())
	if err != nil {
		t.Fatal(err)
	}

	keys := []string{"ka", "kb", "kc", "kd", "ke", "kf"}
	shadow := map[string][]byte{} // acknowledged writes, the ground truth
	verifyShadow := func(when string) {
		t.Helper()
		for k, want := range shadow {
			got, err := st.Get(k)
			if err != nil {
				t.Fatalf("%s: Get(%q): %v", when, k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: acked data corrupted: %q reads %x, want %x", when, k, got, want)
			}
		}
	}

	firstRetire, readOnlyAt := -1, -1
	for i := 0; i < 30000 && readOnlyAt < 0; i++ {
		k := keys[i%len(keys)]
		val := make([]byte, 16)
		for j := range val {
			val[j] = byte(i + j*7)
		}
		err := st.Put(k, val)
		switch {
		case err == nil:
			shadow[k] = val
		case errors.Is(err, ErrDeviceReadOnly):
			readOnlyAt = i
		case errors.Is(err, ErrFull):
			// Transient while the last pages die; never acked, so ignored.
		default:
			t.Fatalf("write %d: unexpected error %v", i, err)
		}
		if firstRetire < 0 && f.Stats().Retirements > 0 {
			firstRetire = i
		}
		if i%25 == 0 {
			verifyShadow(fmt.Sprintf("write %d", i))
		}
	}

	if readOnlyAt < 0 {
		t.Fatal("store never reached ErrDeviceReadOnly; device refuses to die")
	}
	if firstRetire < 0 || firstRetire >= readOnlyAt {
		t.Fatalf("degradation out of order: first retirement at %d, read-only at %d",
			firstRetire, readOnlyAt)
	}
	if free := f.SparesRemaining(); free != 0 {
		t.Errorf("read-only with %d spares still free", free)
	}

	// The read path must survive end of life: every acknowledged value is
	// still exactly there.
	verifyShadow("after read-only")

	// Approx-aware degradation: a worn (but not fenced) page refuses exact
	// data yet still takes approximate writes.
	fl := dev.Flash()
	demo := -1
	for p := 0; p < s.NumPages; p++ {
		if fl.WornOut(p) && !fl.Retired(p) {
			demo = p
			break
		}
	}
	if demo < 0 {
		t.Fatal("no worn unfenced page at end of life")
	}
	zeros := make([]byte, 8)
	if err := dev.Write(fl.PageBase(demo), zeros); !errors.Is(err, core.ErrExactDegraded) {
		t.Fatalf("exact write on degraded page: got %v, want ErrExactDegraded", err)
	}
	if err := dev.SetApproxRegion(0, s.PageSize*s.NumPages); err != nil {
		t.Fatal(err)
	}
	dev.SetThreshold(70000) // saturates to unlimited error budget
	if err := dev.Write(fl.PageBase(demo), zeros); err != nil {
		t.Fatalf("approximate write on degraded page: %v", err)
	}
}
