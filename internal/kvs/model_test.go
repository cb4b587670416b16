package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestModelBasedOperations drives the store with a random sequence of
// Put/Delete/Get/remount operations mirrored against an in-memory map.
// After every step the store must agree with the model; ErrFull is the only
// tolerated divergence (the model has no capacity), at which point the
// failed mutation is rolled back in the model too.
func TestModelBasedOperations(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 10
	spec.Banks = 2 // ten pages must split evenly across banks
	dev := core.MustNewDevice(spec)
	store, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	rng := xrand.New(20260706)
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}

	for step := 0; step < 1500; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // Put
			v := make([]byte, rng.Intn(30))
			for i := range v {
				v[i] = rng.Byte()
			}
			err := store.Put(k, v)
			if errors.Is(err, ErrFull) {
				continue // model unchanged
			}
			if err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			model[k] = v
		case 5: // Delete
			err := store.Delete(k)
			if errors.Is(err, ErrFull) {
				continue
			}
			if err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, k)
		case 6, 7, 8: // Get
			got, err := store.Get(k)
			want, ok := model[k]
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: Get(%q) = %v, want ErrNotFound", step, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Get(%q): %v", step, k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: Get(%q) = %v, want %v", step, k, got, want)
			}
		case 9: // Remount (reboot)
			store, err = Open(dev)
			if err != nil {
				t.Fatalf("step %d: remount: %v", step, err)
			}
		}
		if store.Len() != len(model) {
			t.Fatalf("step %d: Len %d != model %d (keys %v vs %v)",
				step, store.Len(), len(model), store.Keys(), model)
		}
	}
	t.Logf("final: %d keys, %d compactions, %d erases",
		store.Len(), store.Stats().Compactions, dev.Flash().Stats().Erases)
}

// TestModelCompactionCheckpoint is the production-shaped model test: the
// same map-oracle workload, but with proactive compaction and interval
// checkpointing armed, run long enough to cross many GC passes and
// checkpoint generations. Every remount must restore exactly the model's
// contents, agree byte-for-byte with a scan-only differential mount, and
// keep live-vs-physical space amplification bounded.
func TestModelCompactionCheckpoint(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 40 // two 6-page checkpoint slots + 28 data pages
	dev := core.MustNewDevice(spec)
	mount := func(scanOnly bool) (*Store, error) {
		return Open(dev,
			WithCompaction(CompactionConfig{}),
			WithCheckpoint(CheckpointConfig{SlotPages: 6, Interval: 25, ScanOnly: scanOnly}))
	}
	store, err := mount(false)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	rng := xrand.New(20260808)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}

	var compactions, checkpoints, ckptMounts, scanMounts uint64
	fold := func(st Stats) {
		compactions += st.Compactions
		checkpoints += st.Checkpoints
	}
	remounts := 0
	for step := 0; step < 3000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // Put
			v := make([]byte, rng.Intn(25))
			for i := range v {
				v[i] = rng.Byte()
			}
			// With 16 small keys on 28 data pages and GC armed, capacity
			// errors would be a bug, not a workload hazard.
			if err := store.Put(k, v); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			model[k] = v
		case 5: // Delete
			if err := store.Delete(k); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, k)
		case 6, 7, 8: // Get
			got, err := store.Get(k)
			want, ok := model[k]
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: Get(%q) = %v, want ErrNotFound", step, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Get(%q): %v", step, k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: Get(%q) = %v, want %v", step, k, got, want)
			}
		case 9: // Remount (reboot)
			fold(store.Stats())
			store, err = mount(false)
			if err != nil {
				t.Fatalf("step %d: remount: %v", step, err)
			}
			remounts++
			if store.Stats().CheckpointMounts == 1 {
				ckptMounts++
			} else {
				scanMounts++
			}

			// Differential: a scan-only mount of the same image must agree
			// on every piece of logical state.
			scan, err := mount(true)
			if err != nil {
				t.Fatalf("step %d: differential scan mount: %v", step, err)
			}
			compareMountStates(t, store, scan)

			// Full contents check against the oracle.
			if store.Len() != len(model) {
				t.Fatalf("step %d: after remount Len %d != model %d", step, store.Len(), len(model))
			}
			for mk, mv := range model {
				got, err := store.Get(mk)
				if err != nil || !bytes.Equal(got, mv) {
					t.Fatalf("step %d: after remount Get(%q) = %v, %v; want %v", step, mk, got, err, mv)
				}
			}

			// Bounded space amplification: live bytes are tiny here, so the
			// dominant term is the partially-filled pages GC has not packed
			// yet; the garbage-ratio ceiling keeps it a small constant.
			live, used := store.Usage()
			if live > 0 && used > 0 {
				if amp := store.SpaceAmplification(); amp > 5.0 {
					t.Fatalf("step %d: space amplification %.2f (live %d, used %d)", step, amp, live, used)
				}
			}
		}
		if store.Len() != len(model) {
			t.Fatalf("step %d: Len %d != model %d", step, store.Len(), len(model))
		}
	}
	fold(store.Stats())
	if compactions == 0 {
		t.Error("workload never triggered compaction")
	}
	if checkpoints == 0 {
		t.Error("workload never committed a checkpoint")
	}
	if ckptMounts == 0 {
		t.Error("no remount ever restored from a checkpoint")
	}
	t.Logf("final: %d keys, %d remounts (%d checkpointed, %d scans), %d compactions, %d checkpoints, amp %.2f",
		store.Len(), remounts, ckptMounts, scanMounts, compactions, checkpoints, store.SpaceAmplification())
}
