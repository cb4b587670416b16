package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// indexKeysOn is the reference for victimKeys: a walk of the whole index.
func indexKeysOn(s *Store, p int) []string {
	var keys []string
	for k, loc := range s.index {
		if loc.page == p {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// checkPageKeys compares victimKeys with the index walk on every page.
func checkPageKeys(t *testing.T, s *Store, step int) {
	t.Helper()
	for p := 0; p < s.np; p++ {
		got, want := s.victimKeys(p), indexKeysOn(s, p)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d page %d: key list %q, index walk %q", step, p, got, want)
		}
	}
}

// TestPageKeysMatchIndexWalk drives random Puts and Deletes across
// compactions, checkpoint mounts and scan mounts. Every mount drops the
// per-page key lists; once a compaction has rebuilt them, the filtered list
// of every page must equal a walk of the index after every operation.
func TestPageKeysMatchIndexWalk(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 40
	dev := core.MustNewDevice(spec)
	mount := func(scanOnly bool) *Store {
		t.Helper()
		s, err := Open(dev,
			WithCompaction(CompactionConfig{}),
			WithCheckpoint(CheckpointConfig{SlotPages: 6, Interval: 25, ScanOnly: scanOnly}))
		if err != nil {
			t.Fatal(err)
		}
		if s.pageKeys != nil {
			t.Fatal("mount kept per-page key lists")
		}
		return s
	}
	s := mount(false)
	model := map[string][]byte{}
	rng := xrand.New(0x9A6E)
	var compactions, ckptMounts, scanMounts, checked uint64
	for step := 0; step < 3000; step++ {
		k := fmt.Sprintf("key%02d", rng.Intn(24))
		switch r := rng.Intn(20); {
		case r < 12:
			v := make([]byte, rng.Intn(25))
			for i := range v {
				v[i] = rng.Byte()
			}
			if err := s.Put(k, v); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			model[k] = v
		case r < 16:
			if err := s.Delete(k); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, k)
		case r < 18:
			compactions += s.Stats().Compactions
			scanOnly := r == 17
			s = mount(scanOnly)
			if scanOnly {
				scanMounts++
			} else if s.Stats().CheckpointMounts == 1 {
				ckptMounts++
			}
		default:
			if err := s.gc(); err != nil && !errors.Is(err, ErrFull) {
				t.Fatalf("step %d: gc: %v", step, err)
			}
		}
		if s.pageKeys != nil {
			checkPageKeys(t, s, step)
			checked++
		}
	}
	compactions += s.Stats().Compactions
	for k, v := range model {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, err, v)
		}
	}
	if compactions == 0 || ckptMounts == 0 || scanMounts == 0 || checked == 0 {
		t.Fatalf("vacuous run: %d compactions, %d checkpoint mounts, %d scan mounts, %d checked steps",
			compactions, ckptMounts, scanMounts, checked)
	}
	t.Logf("%d compactions, %d checkpoint mounts, %d scan mounts, %d checked steps",
		compactions, ckptMounts, scanMounts, checked)
}

// TestCompactionCopyCrashKeepsKeys is the regression for the key lists'
// lifetime: a power loss in the middle of a compaction's copies leaves the
// victim holding keys not yet copied, so its list must survive the failed
// pass. Compacting the same victim again on the same store, and compacting
// again after a remount, must lose no key.
func TestCompactionCopyCrashKeepsKeys(t *testing.T) {
	midCopy := 0
	for fault := 0; ; fault++ {
		spec := flash.DefaultSpec()
		spec.PageSize = 128
		spec.NumPages = 8
		spec.Banks = 2
		dev := core.MustNewDevice(spec)
		s, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string][]byte{}
		for i := 0; i < 12; i++ {
			k := fmt.Sprintf("k%02d", i)
			v := bytes.Repeat([]byte{byte(i)}, 16)
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		victim := s.index["k00"].page
		before := s.victimKeys(victim)
		if victim == s.head || len(before) < 3 {
			t.Fatalf("setup: victim page %d (head %d) holds %d keys", victim, s.head, len(before))
		}

		dev.Flash().InjectPowerLoss(fault)
		err = s.compactPage(victim)
		dev.Flash().ClearFaults()
		if err == nil {
			break // the fault lands past the compaction: the sweep is done
		}
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("fault %d: compaction: %v", fault, err)
		}
		if s.pageSeq[victim] == freeSeq {
			continue // the crash hit the victim's erase, after every copy
		}
		if left := len(indexKeysOn(s, victim)); left > 0 && left < len(before) {
			midCopy++
		}

		check := func(s *Store, when string) {
			t.Helper()
			for k, v := range model {
				if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
					t.Fatalf("fault %d, %s: Get(%q) = %v, %v; want %v", fault, when, k, got, err, v)
				}
			}
		}
		if err := s.compactPage(victim); err != nil {
			t.Fatalf("fault %d: second compaction: %v", fault, err)
		}
		check(s, "after compacting again")

		s2, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		check(s2, "after remount")
		if err := s2.gc(); err != nil {
			t.Fatalf("fault %d: compaction after remount: %v", fault, err)
		}
		check(s2, "after compacting the remounted store")
	}
	if midCopy == 0 {
		t.Fatal("no power loss landed between two copies of one compaction")
	}
	t.Logf("%d crashes landed between two copies", midCopy)
}

// BenchmarkCompact times one compaction of a full page of live records in
// a steady-state store: the copies of its records and its erase. The host
// cost follows the victim's records, not the store's key count.
func BenchmarkCompact(b *testing.B) {
	for _, keys := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			spec := flash.DefaultSpec()
			spec.PageSize = 4096
			spec.NumPages = keys*3/20 + 16 // ~1.5× the live records' footprint
			spec.Banks = 1
			s, err := Open(core.MustNewDevice(spec))
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 128)
			for i := 0; i < 2*keys; i++ {
				val[0] = byte(i)
				if err := s.Put(fmt.Sprintf("key%06d", i%keys), val); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i, next := 0, 0; i < b.N; i++ {
				victim := s.head
				for ; s.isHead(victim); next = (next + 7919) % keys {
					victim = s.index[fmt.Sprintf("key%06d", next)].page
				}
				if err := s.compactPage(victim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
