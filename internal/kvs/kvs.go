// Package kvs is a miniature log-structured key-value store over the flash
// device — the "flash file system" family of §VII ([24,26,43,94]) reduced
// to its essence so its costs can be measured against FlipBit's approach.
//
// Layout: every page begins with an 8-byte header — a 4-byte sequence
// number and the CRC32 of those four bytes (all-ones while the page is
// free); records append within pages:
//
//	magic(0xA5) | ^flags | keyLen | ^valLen(2, LE) | key | value | crc32(4, LE)
//
// The CRC covers magic..value as stored, so a record torn by power loss is
// detected and skipped at mount, and a record with a single drifted cell
// (read disturb, stuck bit) is repaired by single-bit correction. The flags
// and value length are stored inverted: a program pulse is charged only
// for a byte that leaves the erased 0xFF, and inverted, a live record's
// flags and the high length byte of any value under 256 B stay erased. An
// unwritten length then decodes as 0, a plausible frame, so a torn header
// is rejected by its CRC rather than by an implausible length. The page
// header's seq is not inverted: the CRC-32 of four 0xFF bytes is
// 0xFFFFFFFF, so single-bit repair could turn a torn header into a valid
// seq-0 page.
// Updates append a new record and a flags bit marks tombstones. The log has
// two append heads: the hot head takes new keys and recently written ones,
// the cold head takes garbage-collection copies and keys whose last write
// is old, so long-lived records stop sharing pages with churning ones.
// Mount replays records in (page seq, offset) order, and the key's
// last record in that order wins. An order rule keeps that record the
// newest: an append lands only on a page whose seq is at least that of the
// page holding the key's current record. Garbage collection copies a victim
// page's live records to a head and erases the victim — crash-safe, because
// the copies land on pages with a higher seq than the victim's. Pages whose
// header cannot be repaired are quarantined and reclaimed by an erase when
// space runs short.
//
// The store runs on any Backend: a FlipBit core device directly, or an FTL
// mounted on one so the log rides on wear-leveled, crash-consistent
// translation.
package kvs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Record format constants.
const (
	recMagic      = 0xA5
	flagTombstone = 0x01
	// recInvert is XORed into a record's flags and valLen bytes on flash
	// (see the package comment): the common values stay erased and cost
	// no program pulse.
	recInvert = 0xFF

	pageHeaderSize = 8 // seq(4) + crc32(seq)(4)
	recHeaderSize  = 5 // magic + flags + keyLen + valLen(2)
	crcSize        = 4

	freeSeq = ^uint32(0)

	// verifyRetries bounds re-append attempts after a read-back mismatch.
	verifyRetries = 4

	// senseRetries bounds the extra reads a CRC failure earns before the
	// store falls back to single-bit repair. A marginal retention cell
	// (flash/retention.go) resolves randomly per read, so a re-sense
	// usually comes back clean and — unlike a repair — tells the store the
	// on-flash copy is still intact.
	senseRetries = 2
)

// Errors.
var (
	ErrNotFound = errors.New("kvs: key not found")
	ErrTooLarge = errors.New("kvs: record does not fit in a page")
	ErrFull     = errors.New("kvs: store full even after compaction")
	ErrBadKey   = errors.New("kvs: keys must be 1..255 bytes")
	ErrCorrupt  = errors.New("kvs: record corrupt beyond single-bit repair")

	// ErrDeviceReadOnly reports that writes failed because the flash
	// underneath is exhausted — pages are out of service faster than they
	// can be reclaimed — not because the store is logically full. Committed
	// data stays readable; this is the graceful end of the device's life.
	ErrDeviceReadOnly = errors.New("kvs: device exhausted, store is read-only")
)

// Backend is the storage surface the store runs on. core.Device satisfies
// it through the coreBackend adapter (Open); *ftl.FTL satisfies it
// directly (OpenOn), giving the log wear leveling underneath.
type Backend interface {
	Read(addr int, dst []byte) error
	Write(addr int, data []byte) error
	ErasePage(p int) error
	PageSize() int
	NumPages() int
}

// PageSenser is an optional Backend extension: a slow margin-aware
// controller sense of one page (shifted read reference), which resolves
// marginal retention cells to their stored values instead of the per-read
// flicker of a fast host read. When the backend implements it, the
// hardened read path falls back to a margin sense after fast re-reads
// fail, so the single-bit repair always judges persistent damage on its
// own — never with transient read noise stacked on top.
type PageSenser interface {
	SensePage(page int, dst []byte) error
}

// coreBackend adapts a FlipBit device to the Backend interface.
type coreBackend struct{ dev *core.Device }

func (c coreBackend) Read(addr int, dst []byte) error   { return c.dev.Read(addr, dst) }
func (c coreBackend) Write(addr int, data []byte) error { return c.dev.Write(addr, data) }
func (c coreBackend) ErasePage(p int) error             { return c.dev.ErasePage(p) }
func (c coreBackend) PageSize() int                     { return c.dev.Flash().Spec().PageSize }
func (c coreBackend) NumPages() int                     { return c.dev.Flash().Spec().NumPages }
func (c coreBackend) PageWear(p int) uint32             { return c.dev.Flash().Wear(p) }
func (c coreBackend) WearInto(dst []uint32)             { c.dev.Flash().WearInto(dst) }
func (c coreBackend) SensePage(p int, dst []byte) error { return c.dev.SensePage(p, dst) }
func (c coreBackend) ProgramByte(addr int, v byte) error {
	return c.dev.Flash().ProgramByte(addr, v)
}
func (c coreBackend) Banks() int         { return c.dev.Flash().Banks() }
func (c coreBackend) MaxSensePages() int { return c.dev.Flash().Spec().MaxSensePages }
func (c coreBackend) SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error {
	return c.dev.Flash().SenseMulti(op, pages, invert, dst)
}

// WearBackend is an optional Backend extension exposing per-page erase
// counts. When the backend implements it, proactive compaction biases
// victim selection toward low-wear pages so GC itself levels wear; plain
// backends get garbage-ratio-only selection.
type WearBackend interface {
	PageWear(p int) uint32
}

// BulkWearBackend is an optional WearBackend extension that reads every
// page's erase count at once: WearInto fills dst[p] with PageWear(p) for
// each p < len(dst). Victim selection reads wear once per GC pass; with
// this extension that read takes one bank-lock acquisition per bank
// instead of one per page. Without it the store calls PageWear per page.
type BulkWearBackend interface {
	WearInto(dst []uint32)
}

// Stats counts the store's resilience events.
type Stats struct {
	Compactions      uint64 // GC passes
	TornSkipped      uint64 // records dropped at mount for unrepairable CRCs
	CorrectedBits    uint64 // single-bit repairs (mount replay and Get)
	SenseRetries     uint64 // re-reads issued after a CRC failure (retention flicker)
	SenseRecovered   uint64 // CRC failures that a re-sense resolved without repair
	MarginSenses     uint64 // slow margin-aware senses after fast re-reads failed
	VerifyFailures   uint64 // read-back mismatches after a commit (WithVerify)
	QuarantinedPages uint64 // pages with unrepairable headers awaiting reclaim
	RetiredPages     uint64 // pages abandoned mid-use after a verify failure
	ReclaimRejected  uint64 // reclaim erases whose verify found residue (page stays quarantined)
	ColdAppends      uint64 // appends that landed on the cold head
	OrderRedirects   uint64 // appends the order rule turned away from a head with room

	Scans              uint64 // predicate scans served by the in-flash index
	ScanFallbacks      uint64 // predicate scans served by the host path
	ScanCandidates     uint64 // candidate records fetched by indexed scans
	ScanFalsePositives uint64 // candidates rejected by the exact re-check (stale bits)
	ScanIndexDisabled  uint64 // times the index degraded to host scans

	// A mount keeps the scan index's bitmaps, or erases and rebuilds them
	// for one of three reasons.
	ScanIndexKept        uint64 // mounts that kept the bitmaps a previous mount sealed
	ScanRebuildsNoHeader uint64 // rebuilds: header missing (first mount, cut reset or seal)
	ScanRebuildsConfig   uint64 // rebuilds: header sealed under another index configuration
	ScanRebuildsDiverged uint64 // rebuilds: a delete or an out-of-order insert since the seal

	Checkpoints        uint64 // index checkpoints committed to a slot
	CheckpointFailures uint64 // checkpoint attempts that failed (oversize, erase/program error, torn)
	CheckpointMounts   uint64 // mounts restored from a checkpoint (the O(tail) path)
	ScanMounts         uint64 // mounts that replayed every page in use (no, stale or rejected checkpoint, or ScanOnly)
	TailPagesReplayed  uint64 // pages replayed past the checkpoint across all mounts
}

// location addresses the newest record for a key. It carries no seq: its
// page is in use, and pageSeq[page] with off is the record's place in time.
type location struct {
	page int
	off  int // offset of the record within the page (past the page header)
	size int // full record size in bytes
	dead bool
}

// Store is a mounted key-value store.
type Store struct {
	b  Backend
	ps int // page size
	np int // data page count (excludes the checkpoint region, when configured)
	// devPage maps each data page to its backend page: the pages below
	// the checkpoint slots and the scan index's bitmaps, in order, then
	// the index's padding pages. Every backend page address the log uses
	// goes through it.
	devPage []int

	// index maps every key to its newest record; a GC pass finds a page's
	// survivors by walking the page against it (walkSurvivors).
	index map[string]location
	// ckptKeys is every index key, sorted, as the last checkpoint encode
	// left it; ckptNew queues the keys added to the index since. nil until
	// the first encode builds it, and cleared by every change that removes
	// keys from the index or replaces it (checkpointKeys).
	ckptKeys []string
	ckptNew  []string
	pageSeq  []uint32 // sequence per page (freeSeq = free)
	pageUsed []int    // bytes consumed per page (including header)
	pageLive []int    // live record bytes per page
	pageBad  []bool   // quarantined: header unrepairable, erase before reuse
	// Running page-table totals, kept by setPage and recounted at mount:
	// nFree counts usable free pages; recBytes sums pageUsed-pageHeaderSize
	// (when positive) and liveBytes sums pageLive over in-use pages.
	nFree, recBytes, liveBytes int
	// freeHint is a lower bound on the first usable free page: no page
	// below it is usable and free. setPage lowers it when a page turns
	// free, openPage raises it to the first free page it finds.
	freeHint int
	// head is the hot append head (new and recently written keys), cold
	// the cold one (GC copies and keys last written long ago); -1 = none.
	head, cold int
	nextSeq    uint32
	inGC       bool
	verify     bool   // read back every committed record
	scratch    []byte // readsBack's read buffer
	victimBuf  []byte // copySurvivors' read of its victim's used bytes, one page
	erased     []byte // one page of 0xFF: what a landing zone must read back as
	sensed     []byte // resense's margin-sense buffer, one page (nil until needed)
	// inv is the record framing's polarity mask: recInvert. Only the
	// differential test mounts a store with the old zero mask.
	inv byte

	wb      WearBackend     // b, when it exposes per-page wear (else nil)
	bw      BulkWearBackend // b, when it also reads wear in bulk (else nil)
	wear    []uint32        // pickVictim's per-pass wear reads, one per page
	wearDev []uint32        // bulk wear snapshot, one per backend page
	comp    *CompactionConfig
	ckpt    *checkpointState
	scanIdx *scanIndexState
	// compactDue limits proactive compaction to once per opened page. The
	// check itself is O(1) (the running totals); the gate exists for
	// behaviour, not cost: checking after every append would run GC at
	// other points and change the device's op sequence.
	compactDue bool

	stats Stats
}

// Option configures the store at mount.
type Option func(*Store)

// WithVerify makes every committed record read back and compare: a
// mismatch (a stuck cell under the landing zone) retires the rest of the
// page and re-appends the record elsewhere. Costs one record read per
// write; without it a silent stuck bit is only caught — and repaired if
// single-bit — at the next mount or Get.
func WithVerify() Option {
	return func(s *Store) { s.verify = true }
}

// Open mounts the store on a FlipBit device directly.
func Open(dev *core.Device, opts ...Option) (*Store, error) {
	return OpenOn(coreBackend{dev}, opts...)
}

// OpenOn mounts the store on any backend. Without a checkpoint (or with a
// stale, torn or rejected one) every page is scanned and the index rebuilt;
// torn records (bad CRC) and torn pages are skipped — single-bit damage is
// repaired in passing — so a store survives power loss during writes. With
// WithCheckpoint, mount restores the index from the newest valid checkpoint
// and replays only the log tail written since it.
func OpenOn(b Backend, opts ...Option) (*Store, error) {
	s, err := layoutStore(b, opts...)
	if err != nil {
		return nil, err
	}
	// With checkpointing configured, read the newest valid image and the
	// nextSeq floor across every valid slot. The floor is honored by every
	// mount, so sequence numbers stay monotonic across mounts and a stale
	// checkpoint can never see a recycled sequence number collide with its
	// page table.
	var img *ckptImage
	var seqFloor uint32
	if s.ckpt != nil {
		if img, seqFloor, err = s.loadCheckpoint(); err != nil {
			return nil, err
		}
	}
	restored := false
	if img != nil && !s.ckpt.cfg.ScanOnly {
		tail, ok, err := s.applyCheckpoint(img)
		if err != nil {
			return nil, err
		}
		if ok {
			restored = true
			s.stats.CheckpointMounts++
			s.stats.TailPagesReplayed += uint64(tail)
		}
	}
	if !restored {
		// A scan mount is the same reconciliation from a blank store's
		// image, against which every page in use is tail.
		if _, _, err := s.applyCheckpoint(s.emptyImage()); err != nil {
			return nil, err
		}
		s.stats.ScanMounts++
	}
	if seqFloor > s.nextSeq {
		s.nextSeq = seqFloor
	}
	if err := s.mountScanIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// layoutStore applies the options and lays out the page array, leaving an
// unmounted store: empty index, zeroed page table.
func layoutStore(b Backend, opts ...Option) (*Store, error) {
	s := &Store{
		b:     b,
		ps:    b.PageSize(),
		np:    b.NumPages(),
		index: make(map[string]location),
		head:  -1,
		cold:  -1,
		inv:   recInvert,
	}
	s.erased = bytes.Repeat([]byte{0xFF}, s.ps)
	s.victimBuf = make([]byte, s.ps)
	for _, o := range opts {
		o(s)
	}
	if s.comp != nil {
		s.comp.normalize()
	}
	if err := s.layoutCheckpoint(); err != nil {
		return nil, err
	}
	if err := s.layoutScanIndex(); err != nil {
		return nil, err
	}
	s.pageSeq = make([]uint32, s.np)
	s.pageUsed = make([]int, s.np)
	s.pageLive = make([]int, s.np)
	s.pageBad = make([]bool, s.np)
	s.wb, _ = b.(WearBackend)
	s.bw, _ = b.(BulkWearBackend)
	s.compactDue = true
	return s, nil
}

// pageInfo pairs a page with its header sequence for replay ordering.
type pageInfo struct {
	page int
	seq  uint32
}

// readPageHeader reads page p's 8-byte header into hdr and classifies it.
// A quarantine verdict is worth a re-sense: retention flicker on top of a
// stuck cell can push a header past single-bit repair on one read and back
// within reach on the next.
func (s *Store) readPageHeader(p int, hdr []byte) (uint32, int, error) {
	if err := s.b.Read(s.pageBase(p), hdr); err != nil {
		return 0, 0, err
	}
	seq, state := parsePageHeader(hdr, &s.stats)
	if state == pageQuarantined {
		if _, err := s.resense(p, 0, hdr, func() bool {
			seq, state = parsePageHeader(hdr, &s.stats)
			return state != pageQuarantined
		}); err != nil {
			return 0, 0, err
		}
	}
	return seq, state, nil
}

// recount rebuilds the running page-table totals and resets the first-free
// hint with one walk of the page table. Mount fills the table directly and
// calls it once at the end; every later change goes through setPage.
func (s *Store) recount() {
	s.nFree, s.recBytes, s.liveBytes, s.freeHint = 0, 0, 0, 0
	for p := 0; p < s.np; p++ {
		s.tally(p, 1)
	}
}

// tally adds sign times page p's share to the running totals.
func (s *Store) tally(p, sign int) {
	if s.pageSeq[p] == freeSeq {
		if !s.pageBad[p] {
			s.nFree += sign
		}
		return
	}
	if u := s.pageUsed[p] - pageHeaderSize; u > 0 {
		s.recBytes += sign * u
	}
	s.liveBytes += sign * s.pageLive[p]
}

// setPage sets page p's table entry, moving the page's share of the
// running totals from its old state to its new one, and lowers the
// first-free hint when the page turns usable and free.
func (s *Store) setPage(p int, seq uint32, used, live int, bad bool) {
	s.tally(p, -1)
	s.pageSeq[p], s.pageUsed[p], s.pageLive[p], s.pageBad[p] = seq, used, live, bad
	s.tally(p, 1)
	if seq == freeSeq && !bad && p < s.freeHint {
		s.freeHint = p
	}
}

// Page header states.
const (
	pageFree = iota
	pageInUse
	pageQuarantined
)

// parsePageHeader classifies a page by its 8-byte header, repairing a
// single drifted bit in passing.
func parsePageHeader(buf []byte, st *Stats) (uint32, int) {
	hdr := buf[:pageHeaderSize]
	if allFF(hdr) {
		return freeSeq, pageFree
	}
	if crc32.ChecksumIEEE(hdr[:4]) != binary.LittleEndian.Uint32(hdr[4:]) {
		if n, ok := bits.CorrectSingleBit(hdr, 4); ok {
			st.CorrectedBits += uint64(n)
		} else {
			return freeSeq, pageQuarantined
		}
	}
	seq := binary.LittleEndian.Uint32(hdr)
	if seq == freeSeq {
		// A "free" sequence with a valid CRC cannot be written by the
		// store; treat it as damage.
		return freeSeq, pageQuarantined
	}
	return seq, pageInUse
}

// pageBase returns the backend address of data page p.
func (s *Store) pageBase(p int) int { return s.devPage[p] * s.ps }

// replayPageFrom parses the records of one page into the index starting at
// byte offset start — pageHeaderSize for a full replay, or the used-bytes
// watermark a checkpoint recorded for the page, so only the tail appended
// since the checkpoint is parsed.
func (s *Store) replayPageFrom(page int, buf []byte, start int) {
	ps := len(buf)
	off := start
	for off+recHeaderSize+crcSize <= ps {
		size, _, _ := s.checkRecord(page, off, buf[off:], "")
		if size == 0 {
			if !allFF(buf[off:min(off+recHeaderSize+crcSize, ps)]) {
				// Torn write or unrepairable damage: the tail is
				// unusable. Appending over its cleared bits would force
				// a read-modify-write erase of the whole page — a crash
				// during that erase destroys every committed record on
				// it — so the tail is retired instead.
				s.stats.TornSkipped++
				off = ps
				s.stats.RetiredPages++
			}
			break // free space from here on
		}
		key := string(buf[off+recHeaderSize : off+recHeaderSize+int(buf[off+2])])
		old, had := s.index[key]
		s.supersede(old, had)
		loc := location{page: page, off: off, size: size, dead: (buf[off+1]^s.inv)&flagTombstone != 0}
		// Tombstones stay indexed (dead) so garbage collection keeps
		// copying them forward; dropping one while an older copy of
		// the key survived elsewhere would resurrect the old value
		// at the next mount.
		s.setLocation(key, loc)
		s.pageLive[page] += size
		off += size
	}
	s.pageUsed[page] = off
}

// resense is the hardened read path's one ladder, run when the bytes read
// into dst from page's offset off failed the caller's check ok. A marginal
// retention cell (flash/retention.go) resolves randomly per read, so dst is
// re-read up to senseRetries times; then, when the backend is a
// PageSenser, the page is margin-sensed and dst's window copied out of it.
// A margin sense strips the read noise, so whatever the caller repairs
// after a failed ladder is persistent damage alone. ok re-checks dst after
// each sense, and resense reports whether one passed; a backend error ends
// the ladder. SenseRetries, SenseRecovered and MarginSenses are counted
// here and nowhere else.
func (s *Store) resense(page, off int, dst []byte, ok func() bool) (bool, error) {
	for try := 0; try < senseRetries; try++ {
		s.stats.SenseRetries++
		if err := s.b.Read(s.pageBase(page)+off, dst); err != nil {
			return false, err
		}
		if ok() {
			s.stats.SenseRecovered++
			return true, nil
		}
	}
	senser, can := s.b.(PageSenser)
	if !can {
		return false, nil
	}
	s.stats.MarginSenses++
	if s.sensed == nil {
		s.sensed = make([]byte, s.ps)
	}
	if err := senser.SensePage(s.devPage[page], s.sensed); err != nil {
		return false, err
	}
	copy(dst, s.sensed[off:])
	if !ok() {
		return false, nil
	}
	s.stats.SenseRecovered++
	return true, nil
}

// checkRecord is the one record check of mount replay, Get and the GC
// copy. rec holds the bytes read from page at offset off, the record
// first. Get and GC pass the record's key: the index gave its size, so rec
// is exactly the record. Replay passes "": the frame claims the size, and
// rec runs to the end of the page. A CRC failure earns the re-sense ladder
// over rec, then one single-bit repair in place (repairBit). checkRecord
// returns the size and whether a bit was repaired. It returns 0 for free
// space, and ErrCorrupt for a record past repair or an indexed frame that
// claims another size. A re-sense error is returned to Get and GC; replay
// judges rec as read.
func (s *Store) checkRecord(page, off int, rec []byte, key string) (size int, repaired bool, err error) {
	indexed := key != ""
	valid := func() bool {
		size = len(rec)
		ok := true
		if !indexed {
			size, ok = recordSize(rec, 0, len(rec), s.inv)
		}
		return ok && recordCRCValid(rec, 0, size)
	}
	if !valid() {
		if !indexed && allFF(rec[:recHeaderSize+crcSize]) {
			return 0, false, nil // free space, not damage
		}
		sensed, err := s.resense(page, off, rec, valid)
		if err != nil && indexed {
			return 0, false, err
		}
		if !sensed && !s.repairBit(rec, indexed, valid) {
			return 0, false, fmt.Errorf("%w: %q", ErrCorrupt, key)
		}
		repaired = !sensed
	}
	if indexed && recHeaderSize+int(rec[2])+recordValLen(rec, 0, s.inv)+crcSize != size {
		return 0, false, fmt.Errorf("%w: %q", ErrCorrupt, key)
	}
	return size, repaired, nil
}

// repairBit flips back, in place, the first single bit in (byte, bit)
// order whose flip makes rec pass valid, as a brute force over every bit
// would, and counts it; else it leaves rec unchanged. A flip of a framed
// record's header can change its frame, so each is tried on its own.
// Every other flip leaves the size as claimed, so one syndrome search
// (bits.CorrectSingleBit) over the record decides them all; a hit inside
// a framed header was rejected above and is undone. valid re-derives the
// size checkRecord returns.
func (s *Store) repairBit(rec []byte, indexed bool, valid func() bool) bool {
	size := len(rec)
	if !indexed {
		for i := 0; i < recHeaderSize*8; i++ {
			if rec[i/8] ^= 1 << (i % 8); valid() {
				s.stats.CorrectedBits++
				return true
			}
			rec[i/8] ^= 1 << (i % 8)
		}
		var ok bool
		if size, ok = recordSize(rec, 0, len(rec), s.inv); !ok {
			return false
		}
	}
	hdr := [recHeaderSize]byte(rec)
	if _, ok := bits.CorrectSingleBit(rec[:size], size-crcSize); ok && (indexed || [recHeaderSize]byte(rec) == hdr) {
		s.stats.CorrectedBits++
		return valid()
	}
	copy(rec, hdr[:])
	return false
}

// encodeRecord frames one record under polarity mask inv.
func encodeRecord(key string, val []byte, flags, inv byte) []byte {
	n := recHeaderSize + len(key) + len(val)
	rec := make([]byte, n+crcSize)
	rec[0] = recMagic
	rec[1] = flags ^ inv
	rec[2] = byte(len(key))
	rec[3] = byte(len(val)) ^ inv
	rec[4] = byte(len(val)>>8) ^ inv
	copy(rec[recHeaderSize:], key)
	copy(rec[recHeaderSize+len(key):], val)
	binary.LittleEndian.PutUint32(rec[n:], crc32.ChecksumIEEE(rec[:n]))
	return rec
}

// recordValLen decodes the value length of the record at off under
// polarity mask inv.
func recordValLen(buf []byte, off int, inv byte) int {
	return int(buf[off+3]^inv) | int(buf[off+4]^inv)<<8
}

// recordSize reads the record framing at off under polarity mask inv;
// ok=false if the header is not a plausible record within buf[:ps].
func recordSize(buf []byte, off, ps int, inv byte) (int, bool) {
	if off+recHeaderSize+crcSize > ps || buf[off] != recMagic {
		return 0, false
	}
	keyLen := int(buf[off+2])
	size := recHeaderSize + keyLen + recordValLen(buf, off, inv) + crcSize
	if keyLen == 0 || off+size > ps {
		return 0, false
	}
	return size, true
}

// recordCRCValid checks the trailer CRC of the record at [off, off+size).
func recordCRCValid(buf []byte, off, size int) bool {
	body := buf[off : off+size-crcSize]
	return crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(buf[off+size-crcSize:])
}

// setLocation points key's index entry at loc and queues a key new to the
// index for the kept checkpoint key list (checkpointKeys) once that list
// exists.
func (s *Store) setLocation(key string, loc location) {
	n := len(s.index)
	s.index[key] = loc
	if s.ckptKeys != nil && len(s.index) != n {
		s.ckptNew = append(s.ckptNew, key)
	}
}

// supersede removes a key's previous copy old, when it had one, from its
// page's must-preserve accounting.
func (s *Store) supersede(old location, had bool) {
	if had {
		p := old.page
		s.setPage(p, s.pageSeq[p], s.pageUsed[p], s.pageLive[p]-old.size, s.pageBad[p])
	}
}

// Get returns the value stored for key, verifying the record through
// checkRecord; a record past repair is ErrCorrupt.
func (s *Store) Get(key string) ([]byte, error) {
	loc, ok := s.index[key]
	if !ok || loc.dead {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	rec := make([]byte, loc.size)
	if err := s.b.Read(s.pageBase(loc.page)+loc.off, rec); err != nil {
		return nil, err
	}
	_, repaired, err := s.checkRecord(loc.page, loc.off, rec, key)
	if err != nil {
		return nil, err
	}
	val := slices.Clone(rec[recHeaderSize+int(rec[2]) : len(rec)-crcSize])
	if repaired {
		// Read repair: the on-flash copy still carries the drifted cell,
		// and a second drift in the same record would be beyond repair.
		// Re-appending moves the data to a clean copy; best-effort.
		_ = s.append(key, rec)
	}
	return val, nil
}

// Put stores key → val, appending a new record.
func (s *Store) Put(key string, val []byte) error {
	if len(key) == 0 || len(key) > 255 {
		return fmt.Errorf("%w: %d bytes", ErrBadKey, len(key))
	}
	if size := recHeaderSize + len(key) + len(val) + crcSize; pageHeaderSize+size > s.ps {
		return fmt.Errorf("%w: %d bytes in a %d-byte page", ErrTooLarge, size, s.ps)
	}
	s.noteScanOrder(key, false)
	if err := s.append(key, encodeRecord(key, val, 0, s.inv)); err != nil {
		return err
	}
	s.noteScanPut(key, val)
	return nil
}

// Delete removes key by appending a tombstone, which fits wherever the
// key's record did. Deleting an absent or already-deleted key is a no-op.
func (s *Store) Delete(key string) error {
	if loc, ok := s.index[key]; !ok || loc.dead {
		return nil
	}
	s.noteScanOrder(key, true)
	return s.append(key, encodeRecord(key, nil, flagTombstone, s.inv))
}

// Keys returns the live keys in sorted order.
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.index))
	for k, loc := range s.index {
		if !loc.dead {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	n := 0
	for _, loc := range s.index {
		if !loc.dead {
			n++
		}
	}
	return n
}

// DataPages returns the number of pages available to the log — the whole
// backend, minus the checkpoint region when one is configured.
func (s *Store) DataPages() int { return s.np }

// Usage returns the store's live record bytes and the bytes consumed on
// in-use pages (page headers included; quarantined pages count as fully
// consumed — they are capacity lost until reclaimed).
func (s *Store) Usage() (liveBytes, usedBytes int) {
	for p := 0; p < s.np; p++ {
		if s.pageSeq[p] == freeSeq {
			if s.pageBad[p] {
				usedBytes += s.ps
			}
			continue
		}
		usedBytes += s.pageUsed[p]
		liveBytes += s.pageLive[p]
	}
	return liveBytes, usedBytes
}

// SpaceAmplification is the ratio of physical bytes consumed to live
// record bytes — 1.0 is a perfectly packed log. An empty store reports 1.
func (s *Store) SpaceAmplification() float64 {
	live, used := s.Usage()
	if live == 0 {
		return 1
	}
	return float64(used) / float64(live)
}

// Stats returns the store's resilience counters.
func (s *Store) Stats() Stats { return s.stats }

// append writes rec, one framed record of key (for a GC copy, the victim's
// bytes as read), garbage collecting as needed. The key's current record is
// looked up once per attempt and handed to reserve (the order rule and the
// hot/cold choice) and to commit (its supersession); only a forced GC
// between attempts can move it.
func (s *Store) append(key string, rec []byte) error {
	gcBudget := 1
	for attempt := 0; attempt < 2+verifyRetries; attempt++ {
		old, had := s.index[key]
		var minSeq uint32
		if had {
			minSeq = s.pageSeq[old.page]
		}
		cold := s.inGC || had && int(s.nextSeq-minSeq) > s.np/coldWindowDivisor
		if had && s.inGC {
			minSeq++ // a GC copy must land above its victim
		}
		page, off, err := s.reserve(len(rec), minSeq, cold)
		if errors.Is(err, ErrFull) {
			if gcBudget == 0 || s.inGC {
				return s.fullErr()
			}
			gcBudget--
			if err := s.gc(); err != nil {
				if errors.Is(err, ErrFull) {
					return s.fullErr()
				}
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		err = s.commit(key, old, had, page, off, rec)
		if err == nil {
			if page == s.cold {
				s.stats.ColdAppends++
			}
			if s.inGC {
				return nil
			}
			// Post-commit maintenance: the record is durable, so a crash in
			// here settles the in-flight operation to its new value.
			if err := s.maybeCompact(); err != nil {
				return err
			}
			return s.maybeCheckpoint()
		}
		if !errors.Is(err, errVerifyMismatch) {
			return err
		}
		// The landing zone has a stuck cell: the page tail is retired
		// (commit did that); try again on fresh space.
	}
	return s.fullErr()
}

// fullErr classifies a terminal append failure: when unreclaimable pages
// have eaten the free pool, the store is read-only because the device is
// exhausted; otherwise it is logically full.
func (s *Store) fullErr() error {
	bad := 0
	for _, b := range s.pageBad {
		if b {
			bad++
		}
	}
	if bad > 0 && !s.hasFree(1) {
		return fmt.Errorf("%w: %d of %d pages out of service", ErrDeviceReadOnly, bad, s.np)
	}
	return ErrFull
}

// errVerifyMismatch is the internal signal that a committed record did not
// read back correctly.
var errVerifyMismatch = errors.New("kvs: record read-back mismatch")

// reserve finds space for a record of size bytes on the cold head when
// cold is set, else on the hot head, under the order rule: the page's seq
// must be at least minSeq. For a user append minSeq is the seq of the page
// holding the key's current record; for a GC copy, whose current record
// sits on the victim, it is one more, so a copy never lands on the page
// about to be erased. A preferred head with room that breaks the rule
// passes the record to the other head if that one has room and obeys.
// Otherwise a fresh page, whose seq is nextSeq and so always obeys,
// replaces the preferred head, stranding its tail until GC. A full
// preferred head never passes a record to the other head: that would mix
// the streams again.
//
// One free page is always held back as the garbage collector's copy
// target; only GC itself may consume it. When free pages run short,
// quarantined pages are reclaimed by erasing them.
func (s *Store) reserve(size int, minSeq uint32, cold bool) (page, off int, err error) {
	pref, other := &s.head, &s.cold
	if cold {
		pref, other = other, pref
	}
	if s.fits(*pref, size) {
		if s.pageSeq[*pref] >= minSeq {
			return *pref, s.pageUsed[*pref], nil
		}
		s.stats.OrderRedirects++
		if s.fits(*other, size) && s.pageSeq[*other] >= minSeq {
			return *other, s.pageUsed[*other], nil
		}
	}
	minFree := 2
	if s.inGC {
		minFree = 1
	}
	if !s.hasFree(minFree) {
		s.reclaimQuarantined()
		if !s.hasFree(minFree) {
			return 0, 0, ErrFull
		}
	}
	p, err := s.openPage()
	if err != nil {
		return 0, 0, err
	}
	*pref = p
	return p, s.pageUsed[p], nil
}

// fits reports whether head h is a page with room for size more bytes.
func (s *Store) fits(h, size int) bool {
	return h >= 0 && s.pageSeq[h] != freeSeq && s.pageUsed[h]+size <= s.ps
}

// hasFree reports whether at least n usable pages are free.
func (s *Store) hasFree(n int) bool { return s.nFree >= n }

// nextFree returns the first usable free page at or after from, or -1.
func (s *Store) nextFree(from int) int {
	for p := from; p < s.np; p++ {
		if s.pageSeq[p] == freeSeq && !s.pageBad[p] {
			return p
		}
	}
	return -1
}

// reclaimQuarantined erases quarantined pages back into the free pool. A
// page whose erase fails (worn out, or interrupted) stays quarantined — and
// so does one whose erase *claims* success while cells stay stuck at 0: a
// worn page's marginal cells can survive the erase pulse silently, and
// returning such a page to the pool would let a fresh header land over
// residue of the quarantined content, serving stale bytes to replay. Every
// reclaim therefore ends with an erase-verify pass; only an all-0xFF page
// rejoins the pool.
func (s *Store) reclaimQuarantined() {
	for p := range s.pageBad {
		if !s.pageBad[p] {
			continue
		}
		if err := s.b.ErasePage(s.devPage[p]); err != nil {
			continue
		}
		if ok, err := s.readsBack(s.pageBase(p), s.erased); err != nil || !ok {
			s.stats.ReclaimRejected++
			continue
		}
		s.setPage(p, freeSeq, 0, 0, false)
		s.stats.QuarantinedPages--
	}
}

// openPage stamps the first free page with the next sequence number and
// returns it. A header that does not land (land) quarantines the page and
// tries the next free one; a failed try changes no other page's state, so
// the walk on from it still visits every free page in order.
// The walk starts at the first-free hint, which it raises to the first
// free page: no usable free page lies below the hint, so the candidates
// come in the same order as a walk from page 0.
func (s *Store) openPage() (int, error) {
	first := s.nextFree(s.freeHint)
	if first >= 0 {
		s.freeHint = first
	}
	for cand := first; cand >= 0; cand = s.nextFree(cand + 1) {
		var hdr [pageHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[:], s.nextSeq)
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(hdr[:4]))
		landed, err := s.land(s.pageBase(cand), hdr[:])
		if err != nil {
			return 0, err
		}
		if !landed {
			s.quarantineFree(cand)
			continue
		}
		s.setPage(cand, s.nextSeq, pageHeaderSize, 0, false)
		s.nextSeq++
		s.compactDue = true
		return cand, nil
	}
	return 0, ErrFull
}

// commit lands the record bytes (land) and updates the index, superseding
// the key's current record old (when it had one). A record that does not
// land retires the rest of the page and reports errVerifyMismatch, so
// append retries on fresh space.
func (s *Store) commit(key string, old location, had bool, page, off int, rec []byte) error {
	landed, err := s.land(s.pageBase(page)+off, rec)
	if err != nil {
		return err
	}
	if !landed {
		s.stats.VerifyFailures++
		s.retireTail(page)
		return errVerifyMismatch
	}
	s.supersede(old, had)
	s.setLocation(key, location{page: page, off: off, size: len(rec), dead: (rec[1]^s.inv)&flagTombstone != 0})
	s.setPage(page, s.pageSeq[page], off+len(rec), s.pageLive[page]+len(rec), s.pageBad[page])
	return nil
}

// land writes data at addr under the store's one write rule: it never
// erases in place. The zone must read back erased first — a cleared cell
// there (read disturb, stuck bit, torn remnant) would make the write fall
// back to a read-modify-write erase of the whole page, and a power loss
// during that erase destroys every committed record on it. A write refused
// for a stuck cell or a degraded page did not land either, nor, under
// WithVerify, did one that does not read back as data. The caller abandons
// a zone that did not land; only other backend errors are returned.
func (s *Store) land(addr int, data []byte) (bool, error) {
	if erased, err := s.readsBack(addr, s.erased[:len(data)]); !erased || err != nil {
		return false, err
	}
	if err := s.b.Write(addr, data); err != nil {
		if errors.Is(err, flash.ErrNeedsErase) || degradedWriteErr(err) {
			return false, nil
		}
		return false, err
	}
	if !s.verify {
		return true, nil
	}
	return s.readsBack(addr, data)
}

// readsBack reports whether the len(want) bytes at addr read back as want,
// reading them into the store's scratch buffer.
func (s *Store) readsBack(addr int, want []byte) (bool, error) {
	if cap(s.scratch) < len(want) {
		s.scratch = make([]byte, len(want))
	}
	got := s.scratch[:len(want)]
	if err := s.b.Read(addr, got); err != nil {
		return false, err
	}
	return bytes.Equal(got, want), nil
}

// degradedWriteErr reports a write refused for page-health reasons: the
// core health gate protecting exact data, or a page fenced off by
// retirement. Both mean "this page is done", so the store routes around it
// the same way it routes around a stuck cell.
func degradedWriteErr(err error) bool {
	return errors.Is(err, core.ErrExactDegraded) || errors.Is(err, flash.ErrPageRetired)
}

// quarantineFree takes a free page out of circulation after it failed to
// open cleanly. The sequence number is burned: a partially landed header
// might already carry it, and replay must never see the same seq twice.
func (s *Store) quarantineFree(p int) {
	s.stats.VerifyFailures++
	s.stats.QuarantinedPages++
	s.setPage(p, s.pageSeq[p], s.ps, s.pageLive[p], true)
	s.nextSeq++
}

// retireTail abandons the unused remainder of a page after damage was
// found in it. The damaged bytes would poison everything appended after
// them (mount replay stops at a bad CRC), so the tail is unusable; the
// page's committed records stay valid and are recycled by GC later.
func (s *Store) retireTail(page int) {
	s.stats.RetiredPages++
	s.setPage(page, s.pageSeq[page], s.ps, s.pageLive[page], s.pageBad[page])
	s.dropHead(page)
}

// isHead reports whether page p is the hot or the cold head.
func (s *Store) isHead(p int) bool { return p == s.head || p == s.cold }

// dropHead stops appending to page p when it is a head.
func (s *Store) dropHead(p int) {
	if s.head == p {
		s.head = -1
	}
	if s.cold == p {
		s.cold = -1
	}
}

// gc is the forced compaction path: append found no space, so the page
// with the least live data is compacted regardless of its garbage ratio —
// minimum live bytes is the guaranteed-progress choice.
func (s *Store) gc() error {
	victim, best := -1, 1<<30
	for p := range s.pageSeq {
		if s.pageSeq[p] == freeSeq || s.isHead(p) {
			continue
		}
		if s.pageLive[p] < best {
			victim, best = p, s.pageLive[p]
		}
	}
	if victim < 0 {
		return ErrFull
	}
	return s.compactPage(victim)
}

// compactPage erases one victim page after copying its survivors to a log
// head, the cold one by preference; a victim with no live bytes is erased
// unread. Crash-safe: the order rule puts every copy above the victim in
// replay order, and a pass cut short leaves the uncopied survivors'
// entries on the victim for the next pass to find.
func (s *Store) compactPage(victim int) error {
	s.inGC = true
	defer func() { s.inGC = false }()
	if s.pageLive[victim] > 0 {
		if err := s.copySurvivors(victim); err != nil {
			return err
		}
	}
	switch err := s.b.ErasePage(s.devPage[victim]); {
	case errors.Is(err, flash.ErrPowerLoss):
		return err
	case err != nil:
		// The victim cannot be erased (worn out, fenced): its live records
		// are already copied forward, so quarantine it as lost capacity
		// instead of failing the append that triggered this GC.
		s.setPage(victim, freeSeq, s.ps, 0, true)
		s.stats.QuarantinedPages++
	default:
		s.setPage(victim, freeSeq, 0, 0, false)
	}
	s.dropHead(victim)
	s.stats.Compactions++
	return nil
}

// copySurvivors reads the victim's used bytes once and appends each
// survivor's bytes as read, in offset order, after the check Get makes
// (checkRecord): a survivor that fails its CRC lands repaired or fails
// the pass with ErrCorrupt. When a damaged dead record stops
// walkSurvivors, one walk of the index finds the survivors instead.
func (s *Store) copySurvivors(victim int) error {
	buf := s.victimBuf[:s.pageUsed[victim]]
	if err := s.b.Read(s.pageBase(victim)+pageHeaderSize, buf[pageHeaderSize:]); err != nil {
		return err
	}
	keys, ok := s.walkSurvivors(victim, buf)
	if !ok {
		for k, loc := range s.index {
			if loc.page == victim {
				keys = append(keys, k)
			}
		}
		slices.SortFunc(keys, func(a, b string) int { return s.index[a].off - s.index[b].off })
	}
	for _, key := range keys {
		loc := s.index[key]
		rec := buf[loc.off : loc.off+loc.size]
		if _, _, err := s.checkRecord(victim, loc.off, rec, key); err != nil {
			return err
		}
		if err := s.append(key, rec); err != nil {
			return err
		}
	}
	return nil
}

// walkSurvivors returns the keys of page victim's survivors in offset
// order, from buf, the page's used bytes: it walks the records by the
// lengths their frames claim and keeps each one its key's index entry
// points at, until they add up to the page's live bytes. Dead records go
// unchecked, so a damaged one can stop the walk: ok=false when a frame
// does not parse or the walk runs off the end.
func (s *Store) walkSurvivors(victim int, buf []byte) (keys []string, ok bool) {
	for off, found := pageHeaderSize, 0; found < s.pageLive[victim]; {
		size, ok := recordSize(buf, off, len(buf), s.inv)
		if !ok {
			return nil, false
		}
		key := buf[off+recHeaderSize : off+recHeaderSize+int(buf[off+2])]
		if loc, ok := s.index[string(key)]; ok && loc.page == victim && loc.off == off {
			keys = append(keys, string(key))
			found, size = found+loc.size, loc.size
		}
		off += size
	}
	return keys, true
}

// allFF reports whether every byte is erased.
func allFF(b []byte) bool {
	for _, v := range b {
		if v != 0xFF {
			return false
		}
	}
	return true
}
