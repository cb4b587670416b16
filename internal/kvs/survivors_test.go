package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// indexKeysOn is the reference for walkSurvivors: a walk of the whole
// index for the keys whose entries point at page p, in offset order.
func indexKeysOn(s *Store, p int) []string {
	var keys []string
	for k, loc := range s.index {
		if loc.page == p {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b string) int { return s.index[a].off - s.index[b].off })
	return keys
}

// walkedKeys reads page p's used bytes without charging a read and returns
// what walkSurvivors finds there.
func walkedKeys(s *Store, dev *core.Device, p int) ([]string, bool) {
	page := make([]byte, s.ps)
	dev.Flash().PeekPage(s.devPage[p], page)
	return s.walkSurvivors(p, page[:s.pageUsed[p]])
}

// readCounter is a core backend that logs the span of every Read.
type readCounter struct {
	coreBackend
	reads [][2]int // [addr, addr+len)
}

func (r *readCounter) Read(addr int, dst []byte) error {
	r.reads = append(r.reads, [2]int{addr, addr + len(dst)})
	return r.coreBackend.Read(addr, dst)
}

// readsOf counts the logged reads that touch [lo, hi).
func (r *readCounter) readsOf(lo, hi int) int {
	n := 0
	for _, sp := range r.reads {
		if sp[0] < hi && sp[1] > lo {
			n++
		}
	}
	return n
}

// TestVictimWalkMatchesIndexWalk drives random Puts and Deletes across
// compactions, checkpoint mounts and scan mounts. After every operation,
// the survivors that walking each in-use page that is not a head finds
// must equal a walk of the index, in offset order. Every forced pass must
// read its victim with exactly one backend read (none when the victim has
// no live bytes), never once per survivor, and each survivor's copy must
// be the victim's bytes unchanged.
func TestVictimWalkMatchesIndexWalk(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 40
	dev := core.MustNewDevice(spec)
	rc := &readCounter{coreBackend: coreBackend{dev}}
	mount := func(scanOnly bool) *Store {
		t.Helper()
		s, err := OpenOn(rc,
			WithCompaction(CompactionConfig{}),
			WithCheckpoint(CheckpointConfig{SlotPages: 6, Interval: 25, ScanOnly: scanOnly}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	page := make([]byte, spec.PageSize)
	peek := func(s *Store, loc location) []byte {
		dev.Flash().PeekPage(s.devPage[loc.page], page)
		return slices.Clone(page[loc.off : loc.off+loc.size])
	}
	// forcedGC runs one forced pass and checks its reads and copies.
	var emptyPasses, copied int
	forcedGC := func(s *Store, step int) {
		t.Helper()
		seqs := slices.Clone(s.pageSeq)
		type want struct {
			key string
			rec []byte
		}
		before := map[int][]want{}
		for p := range seqs {
			if seqs[p] != freeSeq {
				for _, k := range indexKeysOn(s, p) {
					before[p] = append(before[p], want{k, peek(s, s.index[k])})
				}
			}
		}
		rc.reads = rc.reads[:0]
		if err := s.gc(); err != nil {
			if errors.Is(err, ErrFull) {
				return
			}
			t.Fatalf("step %d: gc: %v", step, err)
		}
		victim := -1
		for p := range seqs {
			if seqs[p] != freeSeq && s.pageSeq[p] == freeSeq {
				victim = p
			}
		}
		if victim < 0 {
			t.Fatalf("step %d: gc freed no page", step)
		}
		base := s.pageBase(victim)
		reads := rc.readsOf(base, base+s.ps)
		if len(before[victim]) == 0 {
			emptyPasses++
			if reads != 0 {
				t.Fatalf("step %d: victim %d had no live bytes but was read %d times", step, victim, reads)
			}
			return
		}
		if reads != 1 {
			t.Fatalf("step %d: victim %d with %d survivors was read %d times", step, victim, len(before[victim]), reads)
		}
		for _, w := range before[victim] {
			loc := s.index[w.key]
			if got := peek(s, loc); !bytes.Equal(got, w.rec) {
				t.Fatalf("step %d: copy of %q is % x, victim held % x", step, w.key, got, w.rec)
			}
			copied++
		}
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
			forcedGC(s, step)
		}
		checkTotals(t, s, fmt.Sprintf("step %d", step))
		for p := 0; p < s.np; p++ {
			if s.pageSeq[p] == freeSeq || s.isHead(p) {
				continue
			}
			got, ok := walkedKeys(s, dev, p)
			if want := indexKeysOn(s, p); !ok || !slices.Equal(got, want) {
				t.Fatalf("step %d page %d: walk found %q (ok %v), index walk %q", step, p, got, ok, want)
			}
			checked++
		}
	}
	compactions += s.Stats().Compactions
	for k, v := range model {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, err, v)
		}
	}
	if compactions == 0 || ckptMounts == 0 || scanMounts == 0 || checked == 0 || emptyPasses == 0 || copied == 0 {
		t.Fatalf("vacuous run: %d compactions, %d checkpoint mounts, %d scan mounts, %d checked pages, %d empty passes, %d copies",
			compactions, ckptMounts, scanMounts, checked, emptyPasses, copied)
	}
	t.Logf("%d compactions, %d checkpoint mounts, %d scan mounts, %d checked pages, %d empty passes, %d copies",
		compactions, ckptMounts, scanMounts, checked, emptyPasses, copied)
}

// TestCompactionCopyCrashKeepsKeys: a power loss in the middle of a
// compaction's copies leaves the victim holding survivors not yet copied
// beside records whose copies landed, so the next pass must find exactly
// the former when it walks the victim again. Compacting the same victim
// again on the same store, and compacting again after a remount, must lose
// no key.
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
		before := indexKeysOn(s, victim)
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

// damagedVictim builds a store on a plain backend whose page 0 holds the
// records of k0..k3 (16-byte values), k1's dead since its re-Put landed on
// page 1, the head. Page 0 is the victim the damage tests compact.
func damagedVictim(t *testing.T) (*Store, *memBackend, map[string][]byte) {
	t.Helper()
	m := newMemBackend(128, 8)
	s, err := OpenOn(m)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for i := 0; i < 6; i++ {
		put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 16))
	}
	put("k1", bytes.Repeat([]byte{0x11}, 16))
	if s.isHead(0) || indexKeysOn(s, 0)[1] != "k2" || len(indexKeysOn(s, 0)) != 3 {
		t.Fatalf("setup: page 0 (head %d) holds survivors %q", s.head, indexKeysOn(s, 0))
	}
	return s, m, model
}

// checkModel fails unless every key of model reads back its value from s,
// and then from a scan mount of m.
func checkModel(t *testing.T, s *Store, m *memBackend, model map[string][]byte) {
	t.Helper()
	s2, err := OpenOn(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, s2} {
		for k, v := range model {
			if got, err := st.Get(k); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("Get(%q) = %v, %v; want %v", k, got, err, v)
			}
		}
	}
}

// TestCompactionSkipsDamagedDeadLength: multi-bit damage in the length
// field of a dead record on the victim stops the walk, either at once
// (the frame no longer fits the page) or after it has stepped over a
// survivor. The pass must still copy every survivor (by the index walk)
// and lose no key.
func TestCompactionSkipsDamagedDeadLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int  // length byte of the dead record: 3 low, 4 high
		mask byte // bits flipped in it
	}{
		{"frame past the page", 4, 0x03},
		{"steps over a survivor", 3, 16 ^ 43}, // 16-byte value reads as 43: k2's record is skipped
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m, model := damagedVictim(t)
			dead := pageHeaderSize + s.index["k0"].size
			m.data[s.pageBase(0)+dead+tc.at] ^= tc.mask
			buf := slices.Clone(m.data[s.pageBase(0) : s.pageBase(0)+s.pageUsed[0]])
			if _, ok := s.walkSurvivors(0, buf); ok {
				t.Fatal("the walk finished over a damaged length")
			}
			if err := s.compactPage(0); err != nil {
				t.Fatalf("compaction: %v", err)
			}
			if s.pageSeq[0] != freeSeq {
				t.Fatal("victim not erased")
			}
			checkModel(t, s, m, model)
		})
	}
}

// TestCompactionRepairsDriftedSurvivor: a survivor with one drifted bit is
// repaired on its way out (CorrectedBits rises by one) and its copy lands
// as the record was written.
func TestCompactionRepairsDriftedSurvivor(t *testing.T) {
	s, m, model := damagedVictim(t)
	loc := s.index["k2"]
	want := encodeRecord("k2", model["k2"], 0, s.inv)
	m.data[s.pageBase(0)+loc.off+recHeaderSize+5] ^= 0x10
	before := s.Stats().CorrectedBits
	if err := s.compactPage(0); err != nil {
		t.Fatalf("compaction: %v", err)
	}
	if got := s.Stats().CorrectedBits - before; got != 1 {
		t.Fatalf("CorrectedBits rose by %d, want 1", got)
	}
	loc = s.index["k2"]
	if got := m.data[s.pageBase(loc.page)+loc.off : s.pageBase(loc.page)+loc.off+loc.size]; !bytes.Equal(got, want) {
		t.Fatalf("copy of k2 is % x, want % x", got, want)
	}
	checkModel(t, s, m, model)
}

// TestCompactionFailsOnCorruptSurvivor: a survivor damaged past single-bit
// repair fails the pass with ErrCorrupt, as Get does, and the victim stays.
func TestCompactionFailsOnCorruptSurvivor(t *testing.T) {
	s, m, _ := damagedVictim(t)
	loc := s.index["k2"]
	m.data[s.pageBase(0)+loc.off+recHeaderSize+5] ^= 0x11
	if err := s.compactPage(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("compaction = %v, want ErrCorrupt", err)
	}
	if s.pageSeq[0] == freeSeq {
		t.Fatal("victim erased over a lost survivor")
	}
}

// FuzzCompactVictim drives random Puts and Deletes, then flips up to three
// random bits in the used bytes of a random victim and compacts it. A walk
// that finishes must find exactly the index's survivors; the pass must fail
// with ErrCorrupt exactly when a survivor took two or more flips; otherwise
// every single-flip survivor is repaired once and no key is lost, on the
// store or after a scan mount.
func FuzzCompactVictim(f *testing.F) {
	f.Add(uint64(1), uint8(40), []byte{})
	f.Add(uint64(2), uint8(60), []byte{10, 3, 40, 7})
	f.Add(uint64(3), uint8(90), []byte{12, 0x80, 13, 0x01, 14, 0x02})
	f.Add(uint64(4), uint8(120), []byte{1, 4, 2, 5})
	f.Fuzz(func(t *testing.T, seed uint64, nOps uint8, damage []byte) {
		m := newMemBackend(fuzzPS, 12)
		s, err := OpenOn(m)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string][]byte{}
		rng := xrand.New(seed)
		for i := 0; i < int(nOps); i++ {
			k := fuzzKeys[rng.Intn(len(fuzzKeys))]
			if rng.Intn(4) == 0 {
				if err := s.Delete(k); err != nil && !errors.Is(err, ErrFull) {
					t.Fatal(err)
				} else if err == nil {
					delete(model, k)
				}
				continue
			}
			v := make([]byte, rng.Intn(31))
			for j := range v {
				v[j] = rng.Byte()
			}
			if err := s.Put(k, v); err != nil && !errors.Is(err, ErrFull) {
				t.Fatal(err)
			} else if err == nil {
				model[k] = v
			}
		}
		var cands []int
		for p := 0; p < s.np; p++ {
			if s.pageSeq[p] != freeSeq && !s.isHead(p) && s.pageUsed[p] > pageHeaderSize {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			return
		}
		victim := cands[rng.Intn(len(cands))]
		want := indexKeysOn(s, victim)
		base, used := s.pageBase(victim), s.pageUsed[victim]
		flipped := map[int]byte{} // page offset → bits flipped there
		for i := 0; i+1 < len(damage) && i < 6; i += 2 {
			off := pageHeaderSize + int(damage[i])%(used-pageHeaderSize)
			flipped[off] ^= 1 << (damage[i+1] & 7)
			m.data[base+off] ^= 1 << (damage[i+1] & 7)
		}
		corrupt, repairs := map[string]bool{}, uint64(0)
		for _, k := range want {
			loc, n := s.index[k], 0
			for off, mask := range flipped {
				if off >= loc.off && off < loc.off+loc.size {
					n += bits.OnesCount8(mask)
				}
			}
			switch {
			case n == 1:
				repairs++
			case n > 1:
				corrupt[k] = true
			}
		}

		if got, ok := s.walkSurvivors(victim, slices.Clone(m.data[base:base+used])); ok && !slices.Equal(got, want) {
			t.Fatalf("walk found %v, index walk %v", got, want)
		}
		before := s.Stats().CorrectedBits
		err = s.compactPage(victim)
		if len(corrupt) > 0 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("compaction over survivors %v damaged past repair = %v, want ErrCorrupt", corrupt, err)
			}
			for k, v := range model {
				if got, err := s.Get(k); !corrupt[k] && (err != nil || !bytes.Equal(got, v)) {
					t.Fatalf("after a failed pass: Get(%q) = %v, %v; want %v", k, got, err, v)
				}
			}
			return
		}
		if err != nil {
			t.Fatalf("compaction: %v", err)
		}
		if got := s.Stats().CorrectedBits - before; got != repairs {
			t.Fatalf("CorrectedBits rose by %d, want %d", got, repairs)
		}
		checkModel(t, s, m, model)
		for _, k := range fuzzKeys {
			if _, ok := model[k]; !ok {
				if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
					t.Fatalf("deleted key %q: Get = %v, want ErrNotFound", k, err)
				}
			}
		}
	})
}

// BenchmarkCompact times one compaction of a full page of live records in
// a steady-state store: one read of the victim, the walk that finds its
// survivors, their copies as read and the erase. The host cost follows the
// victim's records, not the store's key count.
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
