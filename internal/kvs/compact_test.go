package kvs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// TestProactiveCompactionFires: a hot overwrite workload must trigger GC
// ahead of need — no append ever sees ErrFull — and keep space
// amplification bounded by the garbage-ratio ceiling.
func TestProactiveCompactionFires(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 16
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithCompaction(CompactionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%d", i%4)
		v := bytes.Repeat([]byte{byte(i)}, 40)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("put %d: %v (proactive GC should prevent ErrFull)", i, err)
		}
		want[k] = v
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("sustained overwrites never triggered compaction")
	}
	if amp := s.SpaceAmplification(); amp > 3.0 {
		t.Fatalf("space amplification %.2f after churn, want <= 3.0", amp)
	}
	for k, v := range want {
		got, err := s.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, err, v)
		}
	}
}

// TestCompactionVictimGarbageFloor: a page below MinVictimGarbage never
// qualifies as a proactive victim.
func TestCompactionVictimGarbageFloor(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 8
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithCompaction(CompactionConfig{MinVictimGarbage: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic accounting: page 1 is 40% garbage — under the 50% floor.
	s.pageSeq[1] = 1
	s.pageUsed[1] = pageHeaderSize + 100
	s.pageLive[1] = 60
	s.head = -1
	if v := s.pickVictim(); v != -1 {
		t.Fatalf("pickVictim = %d, want none (garbage below floor)", v)
	}
	// At 60% garbage it qualifies.
	s.pageLive[1] = 40
	if v := s.pickVictim(); v != 1 {
		t.Fatalf("pickVictim = %d, want 1", v)
	}
}

// TestCompactionWearBias: between equal-garbage victims, the low-wear page
// wins, so collection pressure doubles as wear leveling.
func TestCompactionWearBias(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 8
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithCompaction(CompactionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	// Page 2 has been erased five times; page 5 never.
	for i := 0; i < 5; i++ {
		if err := dev.Flash().ErasePage(2); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []int{2, 5} {
		s.pageSeq[p] = uint32(p)
		s.pageUsed[p] = pageHeaderSize + 100
		s.pageLive[p] = 20
	}
	s.head = -1
	if v := s.pickVictim(); v != 5 {
		t.Fatalf("pickVictim = %d, want 5 (the low-wear page)", v)
	}
}

// TestReclaimEraseVerifyRejectsResidue is the regression test for the
// quarantine-reclaim path: an erase that *claims* success while cells stay
// stuck at 0 must not return the page to the free pool, where a fresh
// header over residue could serve stale bytes to replay.
func TestReclaimEraseVerifyRejectsResidue(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 8
	dev := core.MustNewDevice(spec)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Fill page 0 and move the head off it, then wreck its header beyond
	// single-bit repair so the next mount quarantines it.
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), bytes.Repeat([]byte{9}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	clearBit(t, dev, s.pageBase(0), 0)
	clearBit(t, dev, s.pageBase(0)+1, 0)
	clearBit(t, dev, s.pageBase(0)+2, 0)

	s2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().QuarantinedPages; got != 1 {
		t.Fatalf("QuarantinedPages = %d, want 1", got)
	}

	// The reclaim erase completes "successfully" but leaves stuck-at-0
	// cells behind.
	dev.Flash().ArmFault(flash.Fault{Kind: flash.FaultStuckBits, After: 0, Bits: 4})
	s2.reclaimQuarantined()

	if got := s2.Stats().ReclaimRejected; got != 1 {
		t.Fatalf("ReclaimRejected = %d, want 1", got)
	}
	if !s2.pageBad[0] {
		t.Fatal("page with erase residue returned to the pool")
	}
	if got := s2.Stats().QuarantinedPages; got != 1 {
		t.Fatalf("QuarantinedPages = %d after rejected reclaim, want 1", got)
	}
	if s2.nextFree(0) == 0 {
		t.Fatal("rejected page listed as free")
	}

	// A second reclaim with a clean erase succeeds.
	s2.reclaimQuarantined()
	if s2.pageBad[0] {
		t.Fatal("clean erase-verify did not reclaim the page")
	}
	if got := s2.Stats().QuarantinedPages; got != 0 {
		t.Fatalf("QuarantinedPages = %d after clean reclaim, want 0", got)
	}

	// The store stays fully usable and consistent across a remount.
	want := map[string][]byte{}
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("key%d", i%4)
		v := bytes.Repeat([]byte{byte(0x10 + i)}, 25)
		if err := s2.Put(k, v); err != nil {
			t.Fatalf("put after reclaim: %v", err)
		}
		want[k] = v
	}
	s3, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, err := s3.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) after reclaim+remount = %v, %v; want %v", k, got, err, v)
		}
	}
}
