package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// freshSortCheckpoint is the reference for encodeCheckpoint: the encoder
// as it was before the store kept its key list, sorting every index key
// afresh.
func freshSortCheckpoint(s *Store, cpSeq uint64) []byte {
	keys := make([]string, 0, len(s.index))
	n := ckptHdrSize + s.np*ckptPageSize + crcSize
	for k := range s.index {
		keys = append(keys, k)
		n += ckptKeyFixed + len(k)
	}
	sort.Strings(keys)

	blob := make([]byte, n)
	copy(blob, ckptMagic)
	blob[4] = ckptVersion
	putLEU32(blob[6:], uint32(n))
	putLEU64(blob[10:], cpSeq)
	putLEU32(blob[18:], s.nextSeq)
	putLEU32(blob[22:], uint32(s.np))
	putLEU32(blob[26:], uint32(len(keys)))
	off := ckptHdrSize
	for p := 0; p < s.np; p++ {
		putLEU32(blob[off:], s.pageSeq[p])
		putLEU32(blob[off+4:], uint32(s.pageUsed[p]))
		putLEU32(blob[off+8:], uint32(s.pageLive[p]))
		if s.pageBad[p] {
			blob[off+12] = ckptPageBad
		}
		off += ckptPageSize
	}
	for _, k := range keys {
		loc := s.index[k]
		blob[off] = byte(len(k))
		copy(blob[off+1:], k)
		off += 1 + len(k)
		putLEU32(blob[off:], uint32(loc.page))
		putLEU16(blob[off+4:], uint16(loc.off))
		putLEU16(blob[off+6:], uint16(loc.size))
		if loc.dead {
			blob[off+8] = ckptEntryDead
		}
		off += ckptKeyFixed - 1
	}
	putLEU32(blob[off:], crc32.ChecksumIEEE(blob[:off]))
	return blob
}

// pagesDroppedAtMount counts the pages whose entries a checkpoint mount of
// s's device would drop: in use in the newest checkpoint, erased or reused
// since.
func pagesDroppedAtMount(t testing.TB, s *Store) int {
	t.Helper()
	img, _, err := s.loadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if img == nil {
		return 0
	}
	n := 0
	for p := 0; p < s.np; p++ {
		if img.pageSeq[p] != freeSeq && !img.pageBad[p] && s.pageSeq[p] != img.pageSeq[p] {
			n++
		}
	}
	return n
}

// TestCheckpointKeysMatchFreshSort drives new keys, updates, deletes,
// compactions, checkpoints and reboots, and requires the checkpoint blob
// built from the kept key list to equal one built from a fresh sort at
// random points. Every mount runs on a fresh Store, whose list is nil, so
// applyCheckpoint, the one index replacement and the one place keys leave
// the index, which must clear the list, is also driven on a live store
// whose list is built: with the empty image of a scan mount, with a
// checkpoint image whose replay re-adds a listed key, and with one that
// drops pages erased since it. Each is followed by a remount from flash.
func TestCheckpointKeysMatchFreshSort(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 48
	dev := core.MustNewDevice(spec)
	var compactions, ckptMounts, scanMounts, droppedPages uint64
	mount := func(scanOnly bool) *Store {
		t.Helper()
		s, err := Open(dev,
			WithCompaction(CompactionConfig{}),
			WithCheckpoint(CheckpointConfig{SlotPages: 8, Interval: 25, ScanOnly: scanOnly}))
		if err != nil {
			t.Fatal(err)
		}
		if scanOnly {
			scanMounts++
		} else if s.Stats().CheckpointMounts == 1 {
			ckptMounts++
		}
		return s
	}
	reboot := func(s *Store, scanOnly bool) *Store {
		t.Helper()
		compactions += s.Stats().Compactions
		if !scanOnly {
			droppedPages += uint64(pagesDroppedAtMount(t, s))
		}
		return mount(scanOnly)
	}
	var checks, merges int
	check := func(s *Store, step int, what string) {
		t.Helper()
		if len(s.ckptNew) > 0 {
			merges++
		}
		if got, want := s.encodeCheckpoint(7), freshSortCheckpoint(s, 7); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s): checkpoint blob from the kept key list differs from a fresh sort", step, what)
		}
		checks++
	}

	s := mount(false)
	model := map[string][]byte{}
	rng := xrand.New(0xC4EC)
	events := map[string]int{}
	for step := 0; step < 4000; step++ {
		// The key space grows, so new keys keep arriving between
		// checkpoints alongside updates of old ones.
		k := fmt.Sprintf("key%03d", rng.Intn(8+step/50))
		switch r := rng.Intn(100); {
		case r < 72:
			v := make([]byte, rng.Intn(20))
			for i := range v {
				v[i] = rng.Byte()
			}
			if err := s.Put(k, v); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			model[k] = v
		case r < 88:
			if err := s.Delete(k); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, k)
		case r < 91:
			if err := s.gc(); err != nil && !errors.Is(err, ErrFull) {
				t.Fatalf("step %d: gc: %v", step, err)
			}
		case r < 93:
			s = reboot(s, r == 92)
		case r == 93 && s.ckptKeys != nil:
			// Compact until a page the last checkpoint knew is erased,
			// then apply that checkpoint as a mount does: its entries on
			// the erased page are dropped and the replay re-adds the
			// copies.
			for i := 0; i < s.np && pagesDroppedAtMount(t, s) == 0; i++ {
				if err := s.gc(); err != nil && !errors.Is(err, ErrFull) {
					t.Fatalf("step %d: gc: %v", step, err)
				}
			}
			if pagesDroppedAtMount(t, s) > 0 {
				img, _, err := s.loadCheckpoint()
				if err != nil || img == nil {
					t.Fatalf("step %d: no checkpoint to apply (%v)", step, err)
				}
				if _, ok, err := s.applyCheckpoint(img); err != nil || !ok {
					t.Fatalf("step %d: applyCheckpoint = %v, %v", step, ok, err)
				}
				check(s, step, "applyCheckpoint with dropped pages")
				events["drop"]++
			}
			s = reboot(s, false)
		case r == 94 && s.ckptKeys != nil:
			if _, _, err := s.applyCheckpoint(s.emptyImage()); err != nil {
				t.Fatal(err)
			}
			check(s, step, "applyCheckpoint of the empty image")
			events["rescan"]++
			s = reboot(s, false)
		case r == 95 && s.ckptKeys != nil:
			// Put keys new to the index until one lands after the last
			// checkpoint, so the tail replay re-adds a key the kept list
			// already holds.
			for i := 0; ; i++ {
				nk := fmt.Sprintf("key%03d", i)
				if _, ok := s.index[nk]; ok {
					continue
				}
				v := []byte{byte(step)}
				if err := s.Put(nk, v); err != nil {
					t.Fatalf("step %d: put: %v", step, err)
				}
				model[nk] = v
				if s.ckpt.appends > 0 {
					break
				}
			}
			img, _, err := s.loadCheckpoint()
			if err != nil || img == nil {
				t.Fatalf("step %d: no checkpoint to apply (%v)", step, err)
			}
			s.checkpointKeys() // fold the new keys into the kept list
			if _, ok, err := s.applyCheckpoint(img); err != nil || !ok {
				t.Fatalf("step %d: applyCheckpoint = %v, %v", step, ok, err)
			}
			check(s, step, "applyCheckpoint")
			events["reapply"]++
			s = reboot(s, false)
		}
		if s.ckptKeys != nil && rng.Intn(6) == 0 {
			check(s, step, "after "+k)
		}
	}
	compactions += s.Stats().Compactions
	for k, v := range model {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, err, v)
		}
	}
	if checks == 0 || merges == 0 || compactions == 0 || ckptMounts == 0 || scanMounts == 0 || droppedPages == 0 ||
		events["drop"] == 0 || events["rescan"] == 0 || events["reapply"] == 0 {
		t.Fatalf("vacuous run: %d checks (%d with queued keys), %d compactions, %d checkpoint mounts, %d scan mounts, %d pages dropped at mount, events %v",
			checks, merges, compactions, ckptMounts, scanMounts, droppedPages, events)
	}
	t.Logf("%d checks (%d with queued keys), %d compactions, %d checkpoint mounts, %d scan mounts, %d pages dropped at mount, events %v",
		checks, merges, compactions, ckptMounts, scanMounts, droppedPages, events)
}

// freePagesWalk is the reference for hasFree and nextFree: the slice of
// every usable free page that the store once rebuilt at each page open.
func freePagesWalk(s *Store) []int {
	var free []int
	for p := range s.pageSeq {
		if s.pageSeq[p] == freeSeq && !s.pageBad[p] {
			free = append(free, p)
		}
	}
	return free
}

// checkFreeHelpers compares hasFree for every count and nextFree from
// every page with the walk.
func checkFreeHelpers(t *testing.T, s *Store, step int) {
	t.Helper()
	free := freePagesWalk(s)
	for n := 0; n <= len(free)+1; n++ {
		if got := s.hasFree(n); got != (len(free) >= n) {
			t.Fatalf("step %d: hasFree(%d) = %v with free pages %v", step, n, got, free)
		}
	}
	for from := 0; from <= s.np; from++ {
		want := -1
		if i, _ := slices.BinarySearch(free, from); i < len(free) {
			want = free[i]
		}
		if got := s.nextFree(from); got != want {
			t.Fatalf("step %d: nextFree(%d) = %d, want %d (free pages %v)", step, from, got, want, free)
		}
	}
}

// TestFreePageHelpersMatchWalk checks hasFree and nextFree against a walk
// of the page table after every operation of a store whose free pages are
// quarantined (a cleared cell in a free page's header zone; a wrecked
// header at mount), reclaimed, erased by compaction and re-read at mount.
func TestFreePageHelpersMatchWalk(t *testing.T) {
	dev := resilienceDevice(24)
	mount := func() *Store {
		t.Helper()
		s, err := Open(dev, WithVerify(), WithCompaction(CompactionConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mount()
	rng := xrand.New(0xF4EE)
	var quarantined, reclaimed, compactions, mounts int
	for step := 0; step < 3000; step++ {
		before := s.Stats().QuarantinedPages
		switch r := rng.Intn(100); {
		case r < 80:
			k := fmt.Sprintf("key%02d", rng.Intn(24))
			v := bytes.Repeat([]byte{rng.Byte()}, 10+rng.Intn(20))
			if err := s.Put(k, v); err != nil && !errors.Is(err, ErrFull) {
				t.Fatalf("step %d: put: %v", step, err)
			}
		case r < 88:
			if err := s.Delete(fmt.Sprintf("key%02d", rng.Intn(24))); err != nil && !errors.Is(err, ErrFull) {
				t.Fatalf("step %d: delete: %v", step, err)
			}
		case r < 94:
			// A cleared cell in a free page's header zone: the page is
			// quarantined when the store next tries to open it.
			if free := freePagesWalk(s); len(free) > 0 {
				clearBit(t, dev, s.pageBase(free[rng.Intn(len(free))])+rng.Intn(pageHeaderSize), 0)
			}
		case r < 97:
			// Wreck a written page's header beyond repair, then remount:
			// the scan quarantines it.
			if p := rng.Intn(s.np); s.pageSeq[p] != freeSeq && p != s.head {
				for i := 0; i < 3; i++ {
					clearBit(t, dev, s.pageBase(p)+i, 0)
				}
			}
			compactions += int(s.Stats().Compactions)
			s = mount()
			mounts++
		default:
			s.reclaimQuarantined()
		}
		switch after := s.Stats().QuarantinedPages; {
		case after > before:
			quarantined++
		case after < before:
			reclaimed++
		}
		checkFreeHelpers(t, s, step)
	}
	compactions += int(s.Stats().Compactions)
	if quarantined == 0 || reclaimed == 0 || compactions == 0 || mounts == 0 {
		t.Fatalf("vacuous run: %d quarantines, %d reclaims, %d compactions, %d mounts",
			quarantined, reclaimed, compactions, mounts)
	}
	t.Logf("%d quarantines, %d reclaims, %d compactions, %d mounts", quarantined, reclaimed, compactions, mounts)
}
