package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// checkTotals compares the running page-table totals with a fresh walk of
// the page table, checks that no usable free page lies below the
// first-free hint, and, when compaction is configured, that
// compactionNeeded gives the verdict of the walk-based check it replaced.
// It also checks the invariant that lets an index entry carry no seq of its
// own: every entry lies within the used bytes of a page in use, whose
// pageSeq is then the entry's, and a page's entries (tombstones included)
// add up to its live bytes.
func checkTotals(t testing.TB, s *Store, when string) {
	t.Helper()
	entryLive := make([]int, s.np)
	for k, loc := range s.index {
		if s.pageSeq[loc.page] == freeSeq || loc.off < pageHeaderSize || loc.off+loc.size > s.pageUsed[loc.page] {
			t.Fatalf("%s: entry %q at [%d, %d) of page %d, whose seq is %#x and used bytes %d",
				when, k, loc.off, loc.off+loc.size, loc.page, s.pageSeq[loc.page], s.pageUsed[loc.page])
		}
		entryLive[loc.page] += loc.size
	}
	for p, live := range entryLive {
		if live != s.pageLive[p] {
			t.Fatalf("%s: page %d holds %d bytes of entries, its live bytes say %d", when, p, live, s.pageLive[p])
		}
	}
	var free, rec, live int
	first := s.np
	for p := 0; p < s.np; p++ {
		if s.pageSeq[p] == freeSeq {
			if !s.pageBad[p] {
				free++
				first = min(first, p)
			}
			continue
		}
		if u := s.pageUsed[p] - pageHeaderSize; u > 0 {
			rec += u
		}
		live += s.pageLive[p]
	}
	if s.nFree != free || s.recBytes != rec || s.liveBytes != live {
		t.Fatalf("%s: totals free %d, record bytes %d, live bytes %d; walk %d, %d, %d",
			when, s.nFree, s.recBytes, s.liveBytes, free, rec, live)
	}
	if s.freeHint > first {
		t.Fatalf("%s: first-free hint %d above the first usable free page %d", when, s.freeHint, first)
	}
	if s.comp != nil {
		want := free < s.comp.TriggerFreePages ||
			rec > 0 && float64(rec-live)/float64(rec) > s.comp.MaxGarbageRatio
		if got := s.compactionNeeded(); got != want {
			t.Fatalf("%s: compactionNeeded = %v, the walk says %v", when, got, want)
		}
	}
}

// pageTransitions counts the runtime page-table changes the totals must
// follow, by comparing the table before and after one operation.
type pageTransitions struct {
	seq              []uint32
	bad              []bool
	quarantinedFree  int // a free page quarantined (quarantineFree)
	quarantinedInUse int // an in-use page quarantined (compactPage's failed erase)
	reclaimed        int // a quarantined page back in the pool (reclaimQuarantined)
}

func (tr *pageTransitions) snapshot(s *Store) {
	tr.seq = append(tr.seq[:0], s.pageSeq...)
	tr.bad = append(tr.bad[:0], s.pageBad...)
}

func (tr *pageTransitions) count(s *Store) {
	for p := range tr.seq {
		switch {
		case !tr.bad[p] && s.pageBad[p] && tr.seq[p] == freeSeq:
			tr.quarantinedFree++
		case !tr.bad[p] && s.pageBad[p]:
			tr.quarantinedInUse++
		case tr.bad[p] && !s.pageBad[p]:
			tr.reclaimed++
		}
	}
}

// TestTotalsMatchWalkUnderFaults drives a verifying, compacting store on a
// device whose erases leave stuck cells behind (a flash fault schedule) and
// whose pages wear out, and compares the running totals with a walk after
// every operation. Stuck cells in a free page's header zone quarantine it
// at open, stuck cells under a landing zone retire the page's tail, the
// free pool runs short so quarantined pages are reclaimed, and worn-out
// victims fail their erase inside compactPage. Every path must fire.
func TestTotalsMatchWalkUnderFaults(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 24
	spec.Banks = 2
	spec.EnduranceCycles = 60
	dev := core.MustNewDevice(spec)
	dev.Flash().SetFaultSchedule(0x57C4, flash.FaultMix{
		StuckBits: 1, MinGap: 2, MaxGap: 12, MaxBits: 2,
	})
	mount := func() *Store {
		t.Helper()
		s, err := Open(dev, WithVerify(), WithCompaction(CompactionConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		checkTotals(t, s, "mount")
		return s
	}
	s := mount()
	rng := xrand.New(0x7074)
	var tr pageTransitions
	var retired, mounts int
	for step := 0; step < 6000; step++ {
		tr.snapshot(s)
		retiredBefore := s.Stats().RetiredPages
		switch r := rng.Intn(100); {
		case r < 85:
			k := fmt.Sprintf("key%02d", rng.Intn(20))
			v := bytes.Repeat([]byte{rng.Byte()}, 8+rng.Intn(24))
			if err := s.Put(k, v); err != nil && !errors.Is(err, ErrFull) && !errors.Is(err, ErrDeviceReadOnly) {
				t.Fatalf("step %d: put: %v", step, err)
			}
		case r < 97:
			if err := s.Delete(fmt.Sprintf("key%02d", rng.Intn(20))); err != nil &&
				!errors.Is(err, ErrFull) && !errors.Is(err, ErrDeviceReadOnly) {
				t.Fatalf("step %d: delete: %v", step, err)
			}
		default:
			s = mount()
			mounts++
			continue
		}
		tr.count(s)
		retired += int(s.Stats().RetiredPages - retiredBefore)
		checkTotals(t, s, fmt.Sprintf("step %d", step))
	}
	if tr.quarantinedFree == 0 || tr.quarantinedInUse == 0 || tr.reclaimed == 0 || retired == 0 || mounts == 0 {
		t.Fatalf("vacuous run: %d free-page quarantines, %d failed victim erases, %d reclaims, %d tail retirements, %d mounts",
			tr.quarantinedFree, tr.quarantinedInUse, tr.reclaimed, retired, mounts)
	}
	t.Logf("%d free-page quarantines, %d failed victim erases, %d reclaims, %d tail retirements, %d mounts",
		tr.quarantinedFree, tr.quarantinedInUse, tr.reclaimed, retired, mounts)
}

// gcCrashSpy forwards to a store's core backend and notes whether a power
// loss struck while the store was compacting.
type gcCrashSpy struct {
	coreBackend
	s       *Store
	inGCHit bool
}

func (g *gcCrashSpy) note(err error) error {
	if errors.Is(err, flash.ErrPowerLoss) && g.s != nil && g.s.inGC {
		g.inGCHit = true
	}
	return err
}

func (g *gcCrashSpy) Write(addr int, data []byte) error {
	return g.note(g.coreBackend.Write(addr, data))
}

func (g *gcCrashSpy) ErasePage(p int) error { return g.note(g.coreBackend.ErasePage(p)) }

// TestTotalsAfterPowerLossInCompaction crashes a checkpointing store inside
// a compaction pass, at a sweep of points (faults count programmed bytes
// and erases), then mounts the image both by
// scan and from the checkpoint: each mount's recount must match a walk, and
// so must the totals after every operation on the remounted store.
func TestTotalsAfterPowerLossInCompaction(t *testing.T) {
	opts := func(scanOnly bool) []Option {
		return []Option{
			WithCompaction(CompactionConfig{}),
			WithCheckpoint(CheckpointConfig{SlotPages: 4, Interval: 30, ScanOnly: scanOnly}),
		}
	}
	crashes := 0
	for fault := 0; fault < 1500; fault += 7 {
		spec := flash.DefaultSpec()
		spec.PageSize = 256
		spec.NumPages = 32
		dev := core.MustNewDevice(spec)
		spy := &gcCrashSpy{coreBackend: coreBackend{dev}}
		s, err := OpenOn(spy, opts(false)...)
		if err != nil {
			t.Fatal(err)
		}
		spy.s = s
		// Random keys leave live records on old pages, so compaction
		// copies before it erases.
		rng := xrand.New(0xC0DE)
		put := func(s *Store) error {
			return s.Put(fmt.Sprintf("k%02d", rng.Intn(90)), bytes.Repeat([]byte{rng.Byte()}, 20))
		}
		for i := 0; s.Stats().Compactions < 3; i++ {
			if err := put(s); err != nil {
				t.Fatal(err)
			}
			checkTotals(t, s, fmt.Sprintf("fault %d, fill %d", fault, i))
		}
		dev.Flash().InjectPowerLoss(fault)
		for j := 0; j < 400; j++ {
			if err := put(s); err != nil {
				if !errors.Is(err, flash.ErrPowerLoss) {
					t.Fatalf("fault %d: %v", fault, err)
				}
				break
			}
		}
		dev.Flash().ClearFaults()
		if !spy.inGCHit {
			continue
		}
		crashes++
		for _, scanOnly := range []bool{true, false} {
			s2, err := Open(dev, opts(scanOnly)...)
			if err != nil {
				t.Fatalf("fault %d: mount (scanOnly=%v): %v", fault, scanOnly, err)
			}
			when := fmt.Sprintf("fault %d, scanOnly=%v", fault, scanOnly)
			checkTotals(t, s2, when+", mount")
			if !scanOnly && s2.Stats().CheckpointMounts != 1 {
				t.Fatalf("%s: mount did not use the checkpoint (%+v)", when, s2.Stats())
			}
			if scanOnly {
				continue
			}
			for j := 0; j < 120; j++ {
				if err := put(s2); err != nil {
					t.Fatalf("%s: put after remount: %v", when, err)
				}
				checkTotals(t, s2, fmt.Sprintf("%s, put %d", when, j))
			}
		}
	}
	if crashes < 5 {
		t.Fatalf("only %d power losses struck inside a compaction pass", crashes)
	}
	t.Logf("%d crashes inside compaction", crashes)
}

// TestTotalsAfterRejectedCheckpoint plants a page the checkpoint cannot
// explain (a valid header with an old sequence number on a page that was
// free at the checkpoint), so the checkpoint mount is rejected and the
// store resets and scans. The scan mount's recount must match a walk.
func TestTotalsAfterRejectedCheckpoint(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 256
	spec.NumPages = 32
	dev := core.MustNewDevice(spec)
	opts := []Option{
		WithCompaction(CompactionConfig{}),
		WithCheckpoint(CheckpointConfig{SlotPages: 4}),
	}
	s, err := Open(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 24)
	for i := 0; i < 200; i++ {
		val[0] = byte(i)
		if err := s.Put(fmt.Sprintf("k%02d", i%40), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	victim := s.nextFree(0)
	if victim < 0 {
		t.Fatal("no free page to plant a header on")
	}
	var hdr [pageHeaderSize]byte
	putLEU32(hdr[:], 0)
	putLEU32(hdr[4:], crc32.ChecksumIEEE(hdr[:4]))
	for i, b := range hdr {
		if err := dev.Flash().ProgramByte(s.pageBase(victim)+i, b); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.ScanMounts != 1 || st.CheckpointMounts != 0 {
		t.Fatalf("planted header did not reject the checkpoint: %+v", st)
	}
	checkTotals(t, s2, "rejected-checkpoint mount")
	for i := 0; i < 200; i++ {
		val[0] = byte(i)
		if err := s2.Put(fmt.Sprintf("k%02d", i%40), val); err != nil {
			t.Fatal(err)
		}
		checkTotals(t, s2, fmt.Sprintf("put %d after the rejected mount", i))
	}
}

// perPageWear forwards a core backend's Backend, PageSenser and WearBackend
// methods and nothing else, so a store on it reads wear one page at a time
// (BulkWearBackend is hidden). It counts PageWear calls.
type perPageWear struct {
	b         coreBackend
	pageWears int
}

func (w *perPageWear) Read(addr int, dst []byte) error   { return w.b.Read(addr, dst) }
func (w *perPageWear) Write(addr int, data []byte) error { return w.b.Write(addr, data) }
func (w *perPageWear) ErasePage(p int) error             { return w.b.ErasePage(p) }
func (w *perPageWear) PageSize() int                     { return w.b.PageSize() }
func (w *perPageWear) NumPages() int                     { return w.b.NumPages() }
func (w *perPageWear) SensePage(p int, dst []byte) error { return w.b.SensePage(p, dst) }
func (w *perPageWear) PageWear(p int) uint32 {
	w.pageWears++
	return w.b.PageWear(p)
}

// bulkWear is perPageWear with the bulk read exposed too.
type bulkWear struct {
	perPageWear
	bulkReads int
}

func (w *bulkWear) WearInto(dst []uint32) {
	w.bulkReads++
	w.b.WearInto(dst)
}

// churnForWear runs a seeded overwrite workload that keeps proactive
// compaction busy, so victim choice depends on wear.
func churnForWear(t *testing.T, s *Store) {
	t.Helper()
	rng := xrand.New(0xB01C)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key%02d", rng.Intn(24))
		v := bytes.Repeat([]byte{rng.Byte()}, 8+rng.Intn(40))
		if err := s.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func wearDevice() *core.Device {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 4
	return core.MustNewDevice(spec)
}

// TestBulkWearMatchesPerPage: a store that reads wear in bulk makes the
// same victim choices as one that reads it page by page — same store
// stats, same flash contents, same erase count — and the bulk store calls
// PageWear zero times while the per-page one calls it once per page per
// pass.
func TestBulkWearMatchesPerPage(t *testing.T) {
	devBulk, devPage := wearDevice(), wearDevice()
	bulk := &bulkWear{perPageWear: perPageWear{b: coreBackend{devBulk}}}
	page := &perPageWear{b: coreBackend{devPage}}
	sb, err := OpenOn(bulk, WithCompaction(CompactionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := OpenOn(page, WithCompaction(CompactionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if sb.bw == nil || sp.bw != nil {
		t.Fatal("wrappers do not expose the intended wear interfaces")
	}
	churnForWear(t, sb)
	churnForWear(t, sp)

	if sb.Stats() != sp.Stats() {
		t.Fatalf("store stats differ:\nbulk     %+v\nper-page %+v", sb.Stats(), sp.Stats())
	}
	if sb.Stats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	fb, fp := devBulk.Flash(), devPage.Flash()
	if fb.Stats() != fp.Stats() {
		t.Fatalf("flash stats differ:\nbulk     %+v\nper-page %+v", fb.Stats(), fp.Stats())
	}
	size := fb.Spec().Size()
	for a := 0; a < size; a++ {
		if fb.Peek(a) != fp.Peek(a) {
			t.Fatalf("flash contents differ at byte %d", a)
		}
	}
	wb, wp := fb.WearSnapshot(), fp.WearSnapshot()
	spread := false
	for p := range wb {
		if wb[p] != wp[p] {
			t.Fatalf("page %d wear %d (bulk) vs %d (per-page)", p, wb[p], wp[p])
		}
		spread = spread || wb[p] != wb[0]
	}
	if !spread {
		t.Fatal("every page has the same wear; the wear bias never mattered")
	}

	// Per pass: no PageWear on the bulk backend, one per page on the
	// fallback.
	if bulk.pageWears != 0 || bulk.bulkReads == 0 {
		t.Fatalf("bulk backend: %d PageWear calls, %d bulk reads over the churn", bulk.pageWears, bulk.bulkReads)
	}
	if page.pageWears == 0 || page.pageWears%sp.np != 0 {
		t.Fatalf("per-page backend: %d PageWear calls over the churn, not a multiple of %d pages", page.pageWears, sp.np)
	}
	reads, calls := bulk.bulkReads, page.pageWears
	sb.pickVictim()
	sp.pickVictim()
	if bulk.pageWears != 0 || bulk.bulkReads != reads+1 {
		t.Errorf("bulk pass: %d PageWear calls, %d bulk reads; want 0 and 1", bulk.pageWears, bulk.bulkReads-reads)
	}
	if got := page.pageWears - calls; got != sp.np {
		t.Errorf("fallback pass: %d PageWear calls, want %d", got, sp.np)
	}
}

// TestPickVictimAllocs: a victim scan allocates nothing once the store's
// wear buffer exists, on the bulk path and on the per-page fallback.
func TestPickVictimAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, b := range []Backend{coreBackend{wearDevice()}, &perPageWear{b: coreBackend{wearDevice()}}} {
		s, err := OpenOn(b, WithCompaction(CompactionConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		churnForWear(t, s)
		s.pickVictim()
		if allocs := testing.AllocsPerRun(100, func() { s.pickVictim() }); allocs != 0 {
			t.Errorf("%T: pickVictim allocates %.1f times per pass, want 0", b, allocs)
		}
	}
}

// gcBookkeepingStore builds a store of the given page count whose page
// table is synthetic but consistent: most pages in use with a mix of
// garbage ratios, every eighth page free, and the wear spread by erases.
func gcBookkeepingStore(b *testing.B, pages int) *Store {
	b.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 256
	spec.NumPages = pages
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithCompaction(CompactionConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if p%8 == 7 {
			continue
		}
		for i := 0; i < p%5; i++ {
			if err := dev.Flash().ErasePage(p); err != nil {
				b.Fatal(err)
			}
		}
		used := pageHeaderSize + 200
		s.setPage(p, uint32(p), used, (p*37)%200, false)
	}
	s.nextSeq = uint32(pages)
	s.head = -1
	return s
}

// BenchmarkGCBookkeeping times the per-pass GC bookkeeping at two store
// sizes: the compaction check, which reads the running totals and must stay
// flat as the page count grows, and the victim scan, which scores every
// page (one bulk wear read, then O(pages) arithmetic).
func BenchmarkGCBookkeeping(b *testing.B) {
	for _, pages := range []int{1024, 8192} {
		s := gcBookkeepingStore(b, pages)
		b.Run(fmt.Sprintf("compactionNeeded/pages=%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				if s.compactionNeeded() {
					n++
				}
			}
			gcBookkeepingSink += n
		})
		b.Run(fmt.Sprintf("pickVictim/pages=%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gcBookkeepingSink += s.pickVictim()
			}
		})
	}
}

// gcBookkeepingSink keeps the benchmarked results live.
var gcBookkeepingSink int
