package kvs

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// memBackend is a minimal flash-semantics backend for fuzzing: reads copy,
// writes can only clear bits, erase sets a page to 0xFF. No faults, no
// latency — mounts on it are pure functions of the byte image.
type memBackend struct {
	ps   int
	data []byte
}

func newMemBackend(ps, np int) *memBackend {
	data := make([]byte, ps*np)
	for i := range data {
		data[i] = 0xFF
	}
	return &memBackend{ps: ps, data: data}
}

func (m *memBackend) clone() *memBackend {
	c := &memBackend{ps: m.ps, data: make([]byte, len(m.data))}
	copy(c.data, m.data)
	return c
}

func (m *memBackend) Read(addr int, dst []byte) error {
	if addr < 0 || addr+len(dst) > len(m.data) {
		return fmt.Errorf("memBackend: read [%d,%d) out of range", addr, addr+len(dst))
	}
	copy(dst, m.data[addr:])
	return nil
}

func (m *memBackend) Write(addr int, data []byte) error {
	if addr < 0 || addr+len(data) > len(m.data) {
		return fmt.Errorf("memBackend: write [%d,%d) out of range", addr, addr+len(data))
	}
	for i, v := range data {
		m.data[addr+i] &= v
	}
	return nil
}

func (m *memBackend) ErasePage(p int) error {
	if p < 0 || (p+1)*m.ps > len(m.data) {
		return fmt.Errorf("memBackend: erase page %d out of range", p)
	}
	for i := p * m.ps; i < (p+1)*m.ps; i++ {
		m.data[i] = 0xFF
	}
	return nil
}

func (m *memBackend) PageSize() int { return m.ps }
func (m *memBackend) NumPages() int { return len(m.data) / m.ps }

// Fuzz geometry: 24 pages of 128 bytes, two 3-page checkpoint slots, 18
// data pages. The largest possible blob (8 single-byte-suffix keys) is 364
// bytes and fits the 384-byte slot.
const (
	fuzzPS    = 128
	fuzzNP    = 24
	fuzzSlots = 3
)

var fuzzKeys = [8]string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

// fuzzWorkload drives n seeded operations against s. Capacity errors are
// tolerated; anything the workload cannot cause is not.
func fuzzWorkload(s *Store, rng *xrand.RNG, n int) {
	for i := 0; i < n; i++ {
		k := fuzzKeys[rng.Intn(len(fuzzKeys))]
		switch r := rng.Intn(10); {
		case r < 6:
			v := make([]byte, 1+rng.Intn(16))
			for j := range v {
				v[j] = rng.Byte()
			}
			_ = s.Put(k, v)
		case r < 8:
			_ = s.Delete(k)
		default:
			_, _ = s.Get(k)
		}
	}
}

// buildFuzzImage produces a realistic flash image: a seeded workload with
// two checkpoint generations and a post-checkpoint tail, so damage can land
// on a current checkpoint, a stale one, or neither.
func buildFuzzImage(seed, o1, o2 byte) *memBackend {
	m := newMemBackend(fuzzPS, fuzzNP)
	s, err := OpenOn(m,
		WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots}),
		WithCompaction(CompactionConfig{}))
	if err != nil {
		panic(err)
	}
	rng := xrand.New(uint64(seed)*2654435761 + 1)
	fuzzWorkload(s, rng, int(o1)%120)
	_ = s.Checkpoint()
	fuzzWorkload(s, rng, int(o2)%120)
	_ = s.Checkpoint()
	fuzzWorkload(s, rng, int(o1+o2)%60)
	return m
}

// mountImage mounts a fresh store over a copy of the image. The backend
// never fails, so neither may the mount.
func mountImage(t testing.TB, m *memBackend, scanOnly bool) *Store {
	t.Helper()
	s, err := OpenOn(m.clone(), WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots, ScanOnly: scanOnly}))
	if err != nil {
		t.Fatalf("mount (scanOnly=%v): %v", scanOnly, err)
	}
	return s
}

// compareWithOracle mounts a copy of the image through the two-routine
// reference mount (oracleOpen) and asserts that s, OpenOn's mount of the
// same image with the same ScanOnly setting, equals it on every piece of
// logical state and every Stats field.
func compareWithOracle(t testing.TB, m *memBackend, s *Store, scanOnly bool) {
	t.Helper()
	o, err := oracleOpen(m.clone(), WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots, ScanOnly: scanOnly}))
	if err != nil {
		t.Fatalf("reference mount (scanOnly=%v): %v", scanOnly, err)
	}
	compareMountStates(t, s, o)
	if s.stats != o.stats {
		t.Errorf("stats differ from the reference mount (scanOnly=%v):\n%+v\nvs\n%+v", scanOnly, s.stats, o.stats)
	}
}

// compareLoaders asserts that the newest-first checkpoint loader and the
// read-both-slots reference pick the same image, the same nextSeq floor,
// and leave the same slot rotation and checkpoint sequence.
func compareLoaders(t testing.TB, m *memBackend) {
	t.Helper()
	var st [2]*Store
	for i := range st {
		s, err := layoutStore(m.clone(), WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots}))
		if err != nil {
			t.Fatal(err)
		}
		st[i] = s
	}
	imgA, floorA, errA := st[0].loadCheckpoint()
	imgB, floorB, errB := st[1].loadBothSlots()
	if errA != nil || errB != nil {
		t.Fatalf("loaders failed: %v, %v", errA, errB)
	}
	if !reflect.DeepEqual(imgA, imgB) {
		t.Errorf("loaders chose different images: %+v vs %+v", imgA, imgB)
	}
	a, b := st[0].ckpt, st[1].ckpt
	if floorA != floorB || a.lastSlot != b.lastSlot || a.cpSeq != b.cpSeq {
		t.Errorf("loaders differ: floor %d/%d lastSlot %d/%d cpSeq %d/%d",
			floorA, floorB, a.lastSlot, b.lastSlot, a.cpSeq, b.cpSeq)
	}
}

// compareMountStates asserts that two mounts of the same image agree on
// every piece of logical state — the differential oracle for the
// checkpointed mount path against the full scan.
func compareMountStates(t testing.TB, a, b *Store) {
	t.Helper()
	if a.np != b.np {
		t.Fatalf("data page counts differ: %d vs %d", a.np, b.np)
	}
	if len(a.index) != len(b.index) {
		t.Errorf("index sizes differ: %d vs %d", len(a.index), len(b.index))
	}
	for k, la := range a.index {
		lb, ok := b.index[k]
		if !ok {
			t.Errorf("key %q only in first mount (%+v)", k, la)
			continue
		}
		if la != lb {
			t.Errorf("key %q locations differ: %+v vs %+v", k, la, lb)
		}
	}
	for k := range b.index {
		if _, ok := a.index[k]; !ok {
			t.Errorf("key %q only in second mount (%+v)", k, b.index[k])
		}
	}
	for p := 0; p < a.np; p++ {
		if a.pageSeq[p] != b.pageSeq[p] || a.pageUsed[p] != b.pageUsed[p] ||
			a.pageLive[p] != b.pageLive[p] || a.pageBad[p] != b.pageBad[p] {
			t.Errorf("page %d state differs: seq %d/%d used %d/%d live %d/%d bad %v/%v",
				p, a.pageSeq[p], b.pageSeq[p], a.pageUsed[p], b.pageUsed[p],
				a.pageLive[p], b.pageLive[p], a.pageBad[p], b.pageBad[p])
		}
	}
	if a.head != b.head || a.cold != b.cold {
		t.Errorf("heads differ: hot %d vs %d, cold %d vs %d", a.head, b.head, a.cold, b.cold)
	}
	if a.nextSeq != b.nextSeq {
		t.Errorf("nextSeq differs: %d vs %d", a.nextSeq, b.nextSeq)
	}
}

// checkMountInvariants asserts the structural invariants any mount — over
// any image, however damaged — must establish.
func checkMountInvariants(t testing.TB, s *Store) {
	t.Helper()
	live := make([]int, s.np)
	for k, loc := range s.index {
		if loc.page < 0 || loc.page >= s.np {
			t.Fatalf("key %q points at page %d of %d", k, loc.page, s.np)
		}
		if s.pageSeq[loc.page] == freeSeq {
			t.Errorf("key %q points at free/bad page %d", k, loc.page)
		}
		if loc.off < pageHeaderSize || loc.size < recHeaderSize+1+crcSize ||
			loc.off+loc.size > s.pageUsed[loc.page] {
			t.Errorf("key %q record [%d,%d) outside page %d's used %d bytes",
				k, loc.off, loc.off+loc.size, loc.page, s.pageUsed[loc.page])
		}
		live[loc.page] += loc.size
	}
	for p := 0; p < s.np; p++ {
		if s.pageUsed[p] < 0 || s.pageUsed[p] > s.ps {
			t.Errorf("page %d used %d outside [0,%d]", p, s.pageUsed[p], s.ps)
		}
		if s.pageLive[p] != live[p] {
			t.Errorf("page %d live %d, index accounts for %d", p, s.pageLive[p], live[p])
		}
		if s.pageBad[p] && (s.pageSeq[p] != freeSeq || s.pageUsed[p] != s.ps || s.pageLive[p] != 0) {
			t.Errorf("quarantined page %d has inconsistent accounting: seq %d used %d live %d",
				p, s.pageSeq[p], s.pageUsed[p], s.pageLive[p])
		}
		if s.pageSeq[p] != freeSeq && s.pageSeq[p] >= s.nextSeq {
			t.Errorf("page %d seq %d not below nextSeq %d", p, s.pageSeq[p], s.nextSeq)
		}
	}
	if s.head != -1 {
		if s.head < 0 || s.head >= s.np || s.pageSeq[s.head] == freeSeq || s.pageUsed[s.head] >= s.ps {
			t.Errorf("head %d is not an appendable page", s.head)
		}
	}
	if s.cold != -1 {
		t.Errorf("mount kept a cold head (%d)", s.cold)
	}
}

// FuzzMountReplay fuzzes damaged flash images into OpenOn. Two oracles:
//
//  1. Damage confined to the checkpoint region: the data log is genuine, so
//     whatever the mount makes of the damaged checkpoint — using it, using
//     the stale slot, or rejecting both — its final state must be *exactly*
//     the scan-only mount's.
//  2. Damage anywhere: mount must not panic and must establish the
//     structural invariants; when the checkpointed mount fell back to a
//     scan, it must again match the scan-only mount exactly.
//
// Under both, each mount must equal the two-routine reference mount
// (oracleOpen) on its state and every Stats field, and the checkpoint
// loader must agree with the read-both-slots reference.
//
// Every mount's running page-table totals must also match a walk.
func FuzzMountReplay(f *testing.F) {
	f.Add(byte(1), byte(40), byte(30), []byte{})
	f.Add(byte(2), byte(90), byte(80), []byte{0x00, 0x00, 0x00})
	f.Add(byte(3), byte(117), byte(64), []byte{0x05, 0x01, 0xFF, 0x30, 0x02, 0x00})
	f.Add(byte(7), byte(20), byte(0), []byte{0xFF, 0x00, 0xA5, 0x10, 0x00, 0x46})
	f.Fuzz(func(t *testing.T, seed, o1, o2 byte, damage []byte) {
		base := buildFuzzImage(seed, o1, o2)
		dataEnd := (fuzzNP - 2*fuzzSlots) * fuzzPS
		ckptLen := len(base.data) - dataEnd

		// Oracle 1: checkpoint-region damage, strict differential.
		img := base.clone()
		for i := 0; i+3 <= len(damage); i += 3 {
			off := (int(damage[i+1])<<8 | int(damage[i])) % ckptLen
			img.data[dataEnd+off] = damage[i+2]
		}
		a := mountImage(t, img, false)
		b := mountImage(t, img, true)
		checkMountInvariants(t, a)
		checkMountInvariants(t, b)
		checkTotals(t, a, "checkpoint-damage mount")
		checkTotals(t, b, "checkpoint-damage scan-only mount")
		compareMountStates(t, a, b)
		compareWithOracle(t, img, a, false)
		compareWithOracle(t, img, b, true)
		compareLoaders(t, img)

		// Oracle 2: damage anywhere in the image.
		img = base.clone()
		for i := 0; i+3 <= len(damage); i += 3 {
			off := (int(damage[i+1])<<8 | int(damage[i])) % len(img.data)
			img.data[off] = damage[i+2]
		}
		c := mountImage(t, img, false)
		d := mountImage(t, img, true)
		checkMountInvariants(t, c)
		checkMountInvariants(t, d)
		checkTotals(t, c, "damaged-image mount")
		checkTotals(t, d, "damaged-image scan-only mount")
		if c.stats.ScanMounts == 1 {
			compareMountStates(t, c, d)
		}
		compareWithOracle(t, img, c, false)
		compareWithOracle(t, img, d, true)
		compareLoaders(t, img)
	})
}
