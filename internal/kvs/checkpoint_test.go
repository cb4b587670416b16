package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// newCkptStore mounts a store with checkpointing (and any extra options) on
// a fresh 128-byte-page device.
func newCkptStore(t *testing.T, pages, slotPages int, opts ...Option) (*Store, *core.Device) {
	t.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = pages
	dev := core.MustNewDevice(spec)
	opts = append([]Option{WithCheckpoint(CheckpointConfig{SlotPages: slotPages})}, opts...)
	s, err := Open(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev
}

func remount(t *testing.T, dev *core.Device, slotPages int, scanOnly bool) *Store {
	t.Helper()
	s, err := Open(dev, WithCheckpoint(CheckpointConfig{SlotPages: slotPages, ScanOnly: scanOnly}))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckpointMountRestoresIndex(t *testing.T) {
	s, dev := newCkptStore(t, 16, 3)
	if s.DataPages() != 10 {
		t.Fatalf("DataPages = %d, want 10", s.DataPages())
	}
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key%02d", i)
		v := bytes.Repeat([]byte{byte(i)}, 10+i)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := s.Delete("key03"); err != nil {
		t.Fatal(err)
	}
	delete(want, "key03")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", s.Stats().Checkpoints)
	}

	s2 := remount(t, dev, 3, false)
	if st := s2.Stats(); st.CheckpointMounts != 1 || st.ScanMounts != 0 {
		t.Fatalf("mount stats = %+v, want a checkpoint mount", st)
	}
	if s2.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, err := s2.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %v, want %v", k, got, v)
		}
	}
	if _, err := s2.Get("key03"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
}

// TestCheckpointTailReplay checks the O(tail) property: writes after the
// checkpoint are recovered by replaying only the pages written since it.
func TestCheckpointTailReplay(t *testing.T) {
	s, dev := newCkptStore(t, 16, 3)
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("key%02d", i), bytes.Repeat([]byte{1}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: an overwrite, a fresh key, a delete.
	if err := s.Put("key00", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("tail", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("key05"); err != nil {
		t.Fatal(err)
	}

	s2 := remount(t, dev, 3, false)
	if st := s2.Stats(); st.CheckpointMounts != 1 {
		t.Fatalf("mount stats = %+v, want checkpoint mount", st)
	}
	if st := s2.Stats(); st.TailPagesReplayed == 0 {
		t.Fatal("no tail pages replayed despite post-checkpoint writes")
	}
	for k, v := range map[string]string{"key00": "newer", "tail": "fresh"} {
		got, err := s2.Get(k)
		if err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, err, v)
		}
	}
	if _, err := s2.Get("key05"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-checkpoint delete lost: %v", err)
	}
	// The scan-only differential baseline agrees in full.
	compareMountStates(t, s2, remount(t, dev, 3, true))
}

// TestCheckpointStaleSlotFallback tears the newest checkpoint; mount must
// fall back to the older slot and still converge with a scan-only mount.
func TestCheckpointStaleSlotFallback(t *testing.T) {
	s, dev := newCkptStore(t, 16, 3)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%02d", i), bytes.Repeat([]byte{2}, 15)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key01", []byte("second-era")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key02", []byte("tail-era")); err != nil {
		t.Fatal(err)
	}
	newest := s.ckpt.slotBase[s.ckpt.lastSlot]
	// Tear the newest blob: a cleared bit in the magic fails its CRC.
	clearBit(t, dev, newest*s.ps, 0)

	s2 := remount(t, dev, 3, false)
	if st := s2.Stats(); st.CheckpointMounts != 1 {
		t.Fatalf("mount stats = %+v, want checkpoint mount from the stale slot", st)
	}
	for k, v := range map[string]string{"key01": "second-era", "key02": "tail-era"} {
		got, err := s2.Get(k)
		if err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, err, v)
		}
	}
	compareMountStates(t, s2, remount(t, dev, 3, true))
}

// TestCheckpointBothSlotsTornFallsBackToScan tears both slots; mount must
// scan and lose nothing.
func TestCheckpointBothSlotsTornFallsBackToScan(t *testing.T) {
	s, dev := newCkptStore(t, 16, 3)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%02d", i), bytes.Repeat([]byte{3}, 15)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		clearBit(t, dev, s.ckpt.slotBase[slot]*s.ps, 0)
	}
	s2 := remount(t, dev, 3, false)
	if st := s2.Stats(); st.ScanMounts != 1 || st.CheckpointMounts != 0 {
		t.Fatalf("mount stats = %+v, want scan fallback", st)
	}
	if s2.Len() != 5 {
		t.Fatalf("Len = %d after fallback scan, want 5", s2.Len())
	}
}

// TestCheckpointSlotRotation: consecutive checkpoints ping-pong between the
// two slots, so a failure mid-write can never destroy the only good copy.
func TestCheckpointSlotRotation(t *testing.T) {
	s, _ := newCkptStore(t, 16, 3)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	slots := []int{}
	for i := 0; i < 3; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s.ckpt.lastSlot)
	}
	if slots[0] == slots[1] || slots[1] == slots[2] {
		t.Fatalf("checkpoints did not alternate slots: %v", slots)
	}
	if s.ckpt.cpSeq != 3 {
		t.Fatalf("cpSeq = %d, want 3", s.ckpt.cpSeq)
	}
}

// TestCheckpointOversizeBlob: a slot too small for the store's state must
// fail the checkpoint cleanly and leave the previous one in force.
func TestCheckpointOversizeBlob(t *testing.T) {
	// 14 data pages need a 216-byte table before any keys — over one
	// 128-byte slot page.
	s, dev := newCkptStore(t, 16, 1)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("oversize checkpoint did not fail")
	}
	if s.Stats().CheckpointFailures != 1 {
		t.Fatalf("CheckpointFailures = %d, want 1", s.Stats().CheckpointFailures)
	}
	s2 := remount(t, dev, 1, false)
	if st := s2.Stats(); st.ScanMounts != 1 {
		t.Fatalf("mount stats = %+v, want scan (no checkpoint ever committed)", st)
	}
	if got, err := s2.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("Get(k) = %q, %v", got, err)
	}
}

// TestCheckpointInterval: WithCheckpoint{Interval: N} checkpoints
// automatically every N committed appends.
func TestCheckpointInterval(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 16
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithCheckpoint(CheckpointConfig{SlotPages: 3, Interval: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := s.Put(fmt.Sprintf("key%02d", i%5), []byte("val")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Checkpoints; got != 2 {
		t.Fatalf("Checkpoints after 9 appends at interval 4 = %d, want 2", got)
	}
	s2 := remount(t, dev, 3, false)
	if st := s2.Stats(); st.CheckpointMounts != 1 {
		t.Fatalf("mount stats = %+v, want checkpoint mount", st)
	}
}

// TestCheckpointSeqFloorSurvivesScanMount: sequence numbers must stay
// monotonic across mounts even when the mount path is a scan — otherwise a
// recycled sequence number could collide with a stale checkpoint's page
// table on a later mount.
func TestCheckpointSeqFloorSurvivesScanMount(t *testing.T) {
	s, dev := newCkptStore(t, 16, 3)
	for i := 0; i < 20; i++ {
		if err := s.Put("k", bytes.Repeat([]byte{4}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	floor := s.nextSeq

	// A scan-only mount (checkpoint ignored for state, not for the floor)
	// must not restart sequences below the checkpoint's horizon.
	s2 := remount(t, dev, 3, true)
	if s2.nextSeq < floor {
		t.Fatalf("scan mount nextSeq = %d, below checkpoint floor %d", s2.nextSeq, floor)
	}
	// And the checkpointed mount agrees exactly.
	s3 := remount(t, dev, 3, false)
	if s3.nextSeq != s2.nextSeq {
		t.Fatalf("mount paths disagree on nextSeq: ckpt %d vs scan %d", s3.nextSeq, s2.nextSeq)
	}
}

// TestCheckpointAfterGC: pages erased and reused by compaction after the
// checkpoint are classified by the divergence rules, not rejected.
func TestCheckpointAfterGC(t *testing.T) {
	s, dev := newCkptStore(t, 16, 3, WithCompaction(CompactionConfig{}))
	want := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 6; i++ {
		put(fmt.Sprintf("key%02d", i), bytes.Repeat([]byte{byte(i)}, 20))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Churn hard enough to force GC over the checkpointed pages.
	for i := 0; i < 60; i++ {
		put(fmt.Sprintf("key%02d", i%3), bytes.Repeat([]byte{byte(i)}, 30))
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("churn did not trigger compaction")
	}

	s2 := remount(t, dev, 3, false)
	if st := s2.Stats(); st.CheckpointMounts != 1 {
		t.Fatalf("mount stats = %+v, want checkpoint mount over GC'd log", st)
	}
	for k, v := range want {
		got, err := s2.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, err, v)
		}
	}
	compareMountStates(t, s2, remount(t, dev, 3, true))
}

// TestCheckpointUnconfigured: Checkpoint without WithCheckpoint errors.
func TestCheckpointUnconfigured(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 8
	dev := core.MustNewDevice(spec)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Checkpoint() = %v, want ErrNoCheckpoint", err)
	}
}

// TestCheckpointLayoutRejectsTinyGeometry: the reserved region must leave
// usable data space.
func TestCheckpointLayoutRejectsTinyGeometry(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 6
	spec.Banks = 2 // six pages must split evenly across banks
	dev := core.MustNewDevice(spec)
	if _, err := Open(dev, WithCheckpoint(CheckpointConfig{SlotPages: 2})); err == nil {
		t.Fatal("mount accepted a checkpoint region leaving <3 data pages")
	}
}

// TestCheckpointMountAllocsFlatInKeys: a checkpointed mount slices every
// key out of one string of the blob's key area, so its allocations do not
// grow with the key count. The same geometry is mounted holding 3,000 and
// 30,000 keys, with no tail to replay; ten times the keys may add at most
// one allocation per 100 keys (the index map's own tables grow with it).
func TestCheckpointMountAllocsFlatInKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg := CheckpointConfig{SlotPages: 140}
	allocs := map[int]float64{}
	for _, keys := range []int{3000, 30000} {
		m := newMemBackend(4096, 600)
		s, err := OpenOn(m, WithCheckpoint(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			if err := s.Put(fmt.Sprintf("key%05d", i), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		allocs[keys] = testing.AllocsPerRun(3, func() {
			s, err := OpenOn(m, WithCheckpoint(cfg))
			if err != nil || s.Stats().CheckpointMounts != 1 || len(s.index) != keys {
				t.Fatalf("mount: %v, %+v, %d keys", err, s.Stats(), len(s.index))
			}
		})
	}
	t.Logf("mount allocations: %.0f at 3k keys, %.0f at 30k", allocs[3000], allocs[30000])
	if allocs[30000] > allocs[3000]+(30000-3000)/100 {
		t.Errorf("mount allocations grow with the keys: %.0f at 3k keys, %.0f at 30k", allocs[3000], allocs[30000])
	}
}
