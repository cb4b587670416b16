package kvs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Index checkpointing. A plain mount reads one 8-byte header per page,
// then reads and replays every page in use and CRC-checks every record —
// O(device). WithCheckpoint reserves two slots at the end of the page
// array and periodically serializes the whole in-memory state — index,
// per-page accounting, nextSeq — into a CRC'd blob written ping-pong into
// the older slot, the same discipline as the FTL's map checkpoints
// (internal/ftl/journal.go). Mount then reads the newest valid blob plus
// one 8-byte header per page, and replays only the pages written since
// the checkpoint: O(tail).
//
// Both are one routine, applyCheckpoint: a plain (scan) mount applies the
// empty image of a blank store, against which every page in use is tail.
// The scan stays the universal safety valve: a torn, stale or structurally
// implausible checkpoint — or any page whose header disagrees with the
// blob in a way the divergence rules below cannot explain — is rejected
// wholesale and the store mounts from the empty image instead. Every mount
// honors the nextSeq floor recorded in every valid slot, so sequence
// numbers are monotonic across mounts whichever image was applied, and a
// surviving checkpoint can never mistake a recycled sequence number for a
// page it knew.
//
// Checkpoint blob layout (all integers little-endian):
//
//	magic "FBCP" | version(1) | flags(1) | blobLen(4) | cpSeq(8) |
//	nextSeq(4) | dataPages(4) | keyCount(4)
//	dataPages × [ seq(4) | used(4) | live(4) | flags(1) ]   (bit0 = bad)
//	keyCount  × [ keyLen(1) | key | page(4) | off(2) | size(2) | flags(1) ]
//	crc32(4) over everything before it
const (
	ckptMagic    = "FBCP"
	ckptVersion  = 1
	ckptHdrSize  = 4 + 1 + 1 + 4 + 8 + 4 + 4 + 4
	ckptPageSize = 13 // per-page table entry
	ckptKeyFixed = 10 // per-key entry, excluding the key bytes

	ckptPageBad   = 0x01
	ckptEntryDead = 0x01
)

// ErrNoCheckpoint reports a Checkpoint call on a store mounted without
// WithCheckpoint.
var ErrNoCheckpoint = errors.New("kvs: checkpointing not configured")

// CheckpointConfig tunes index checkpointing.
type CheckpointConfig struct {
	// SlotPages is the size of each of the two checkpoint slots, in pages
	// (default 1). The blob must fit one slot: 30 bytes + 13 per data page
	// + (10 + len(key)) per key + 4.
	SlotPages int
	// Interval auto-checkpoints every Interval committed appends
	// (0 = manual Checkpoint calls only).
	Interval int
	// ScanOnly reserves the region and honors the recorded nextSeq floor,
	// but always mounts by full scan (the empty image, never the loaded
	// one) — the differential baseline for checkpointed mounts.
	ScanOnly bool
}

// WithCheckpoint reserves two checkpoint slots at the end of the page
// array and arms O(tail) mounts.
func WithCheckpoint(cfg CheckpointConfig) Option {
	return func(s *Store) {
		s.ckpt = &checkpointState{cfg: cfg}
	}
}

// checkpointState is the store's runtime checkpoint bookkeeping.
type checkpointState struct {
	cfg      CheckpointConfig
	slotBase [2]int // first absolute page of each slot
	lastSlot int    // slot holding the newest valid checkpoint; writes go to the other
	cpSeq    uint64 // sequence of the newest valid checkpoint
	appends  int    // committed appends since the last checkpoint
}

// layoutCheckpoint carves the checkpoint region out of the page array.
func (s *Store) layoutCheckpoint() error {
	if s.ckpt == nil {
		return nil
	}
	c := &s.ckpt.cfg
	if c.SlotPages <= 0 {
		c.SlotPages = 1
	}
	if s.ps < ckptHdrSize+crcSize {
		return fmt.Errorf("kvs: checkpointing needs pages of at least %d bytes, got %d", ckptHdrSize+crcSize, s.ps)
	}
	if s.ps > 0xFFFF {
		return fmt.Errorf("kvs: checkpointing needs pages of at most 64 KiB, got %d", s.ps)
	}
	reserve := 2 * c.SlotPages
	if s.np-reserve < 3 {
		return fmt.Errorf("kvs: checkpoint region (%d of %d pages) leaves too little data space", reserve, s.np)
	}
	s.np -= reserve
	s.ckpt.slotBase[0] = s.np
	s.ckpt.slotBase[1] = s.np + c.SlotPages
	return nil
}

// Checkpoint serializes the store's state into the older slot. On success
// the next mount restores from it and replays only younger pages. Failures
// (oversized blob, erase or program error, torn read-back) leave the
// previous checkpoint in force; power loss propagates.
func (s *Store) Checkpoint() error {
	if s.ckpt == nil {
		return ErrNoCheckpoint
	}
	c := s.ckpt
	blob := s.encodeCheckpoint(c.cpSeq + 1)
	if cap := c.cfg.SlotPages * s.ps; len(blob) > cap {
		s.stats.CheckpointFailures++
		return fmt.Errorf("kvs: checkpoint blob (%d bytes) exceeds slot capacity (%d bytes)", len(blob), cap)
	}
	slot := 1 - c.lastSlot
	base := c.slotBase[slot]
	pages := (len(blob) + s.ps - 1) / s.ps
	for i := 0; i < pages; i++ {
		if err := s.b.ErasePage(base + i); err != nil {
			s.stats.CheckpointFailures++
			if errors.Is(err, flash.ErrPowerLoss) {
				return err
			}
			return fmt.Errorf("kvs: checkpoint slot erase: %w", err)
		}
	}
	addr := base * s.ps
	if err := s.b.Write(addr, blob); err != nil {
		s.stats.CheckpointFailures++
		if errors.Is(err, flash.ErrPowerLoss) {
			return err
		}
		return fmt.Errorf("kvs: checkpoint program: %w", err)
	}
	// Read-back: a checkpoint that does not verify is worse than none — a
	// stuck cell in the blob would burn a mount's fallback scan every boot.
	if ok, err := s.readsBack(addr, blob); err != nil || !ok {
		s.stats.CheckpointFailures++
		if err != nil {
			return err
		}
		return errors.New("kvs: checkpoint read-back mismatch")
	}
	c.lastSlot = slot
	c.cpSeq++
	c.appends = 0
	s.stats.Checkpoints++
	return nil
}

// maybeCheckpoint is the post-append hook implementing
// CheckpointConfig.Interval. Non-fatal checkpoint failures are absorbed
// (counted in CheckpointFailures; the previous checkpoint stays in force
// and the next interval retries); power loss propagates.
func (s *Store) maybeCheckpoint() error {
	c := s.ckpt
	if c == nil || c.cfg.Interval <= 0 {
		return nil
	}
	c.appends++
	if c.appends < c.cfg.Interval {
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		if errors.Is(err, flash.ErrPowerLoss) {
			return err
		}
		c.appends = 0
	}
	return nil
}

// encodeCheckpoint serializes the store state. Keys are emitted sorted so
// the blob bytes are a deterministic function of the logical state.
func (s *Store) encodeCheckpoint(cpSeq uint64) []byte {
	keys := s.checkpointKeys()
	n := ckptHdrSize + s.np*ckptPageSize + crcSize
	for _, k := range keys {
		n += ckptKeyFixed + len(k)
	}

	blob := make([]byte, n)
	copy(blob, ckptMagic)
	blob[4] = ckptVersion
	blob[5] = 0
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

// checkpointKeys returns every index key, sorted. The list is kept
// between checkpoints: the keys setLocation added since the last call are
// sorted and merged in, so a checkpoint sorts only its new keys. The first
// call, and the first after dropPageEntries or an index replacement
// cleared the list, sorts the whole index.
func (s *Store) checkpointKeys() []string {
	if s.ckptKeys == nil {
		s.ckptKeys = make([]string, 0, len(s.index))
		for k := range s.index {
			s.ckptKeys = append(s.ckptKeys, k)
		}
		sort.Strings(s.ckptKeys)
		s.ckptNew = s.ckptNew[:0]
		return s.ckptKeys
	}
	if len(s.ckptNew) == 0 {
		return s.ckptKeys
	}
	sort.Strings(s.ckptNew)
	// Merge from the back, so the list grows in place.
	keys := slices.Grow(s.ckptKeys, len(s.ckptNew))
	i, j := len(keys)-1, len(s.ckptNew)-1
	keys = keys[:len(keys)+len(s.ckptNew)]
	for k := len(keys) - 1; j >= 0; k-- {
		if i >= 0 && keys[i] > s.ckptNew[j] {
			keys[k] = keys[i]
			i--
		} else {
			keys[k] = s.ckptNew[j]
			j--
		}
	}
	s.ckptKeys, s.ckptNew = keys, s.ckptNew[:0]
	return keys
}

// ckptImage is a decoded, validated checkpoint blob.
type ckptImage struct {
	cpSeq    uint64
	nextSeq  uint32
	pageSeq  []uint32
	pageUsed []int
	pageLive []int
	pageBad  []bool
	entries  map[string]location
}

// emptyImage is the image of a blank store: every page free, no keys,
// nextSeq 0. applyCheckpoint over it finds every page on flash divergent
// and replays them all oldest first: a scan mount.
func (s *Store) emptyImage() *ckptImage {
	img := &ckptImage{
		pageSeq:  make([]uint32, s.np),
		pageUsed: make([]int, s.np),
		pageLive: make([]int, s.np),
		pageBad:  make([]bool, s.np),
		entries:  make(map[string]location),
	}
	for p := range img.pageSeq {
		img.pageSeq[p] = freeSeq
	}
	return img
}

// ckptHeader is a slot's blob header, as read ahead of the blob.
type ckptHeader struct {
	raw     [ckptHdrSize]byte
	ok      bool // right magic and version, and a length the slot can hold
	blobLen int
	cpSeq   uint64
	nextSeq uint32
}

// loadCheckpoint returns the newest valid image (nil when neither slot
// holds one) plus the nextSeq floor across every valid slot. It reads both
// slots' headers, then validates whole blobs newest cpSeq first. The older
// slot is read only when the newer one fails validation or its header
// claims a higher nextSeq: a valid older slot's nextSeq is the one its
// header shows, so a header at or below the newer image's cannot raise the
// floor. It also primes the writer state — slot rotation and checkpoint
// sequence continue from the newest image whichever image the mount
// applies.
func (s *Store) loadCheckpoint() (*ckptImage, uint32, error) {
	var hdrs [2]ckptHeader
	for slot := range hdrs {
		if err := s.readCkptHeader(slot, &hdrs[slot]); err != nil {
			return nil, 0, err
		}
	}
	// Slot 0 goes first on a cpSeq tie.
	order := [2]int{0, 1}
	if hdrs[1].ok && (!hdrs[0].ok || hdrs[1].cpSeq > hdrs[0].cpSeq) {
		order = [2]int{1, 0}
	}
	var best *ckptImage
	var floor uint32
	for _, slot := range order {
		if !hdrs[slot].ok || best != nil && hdrs[slot].nextSeq <= floor {
			continue
		}
		img, err := s.readCkptSlot(slot, &hdrs[slot])
		if err != nil {
			return nil, 0, err
		}
		if img == nil {
			continue
		}
		floor = max(floor, img.nextSeq)
		if best == nil {
			best = img
			s.ckpt.lastSlot = slot
			s.ckpt.cpSeq = img.cpSeq
		}
	}
	return best, floor, nil
}

// readCkptHeader reads one slot's blob header into h; h.ok is false when
// the slot holds no plausible blob. Only backend read errors propagate.
func (s *Store) readCkptHeader(slot int, h *ckptHeader) error {
	if err := s.b.Read(s.ckpt.slotBase[slot]*s.ps, h.raw[:]); err != nil {
		return err
	}
	b := h.raw[:]
	h.blobLen = int(leU32(b[6:]))
	h.cpSeq = leU64(b[10:])
	h.nextSeq = leU32(b[18:])
	h.ok = string(b[:4]) == ckptMagic && b[4] == ckptVersion &&
		h.blobLen >= ckptHdrSize+crcSize && h.blobLen <= s.ckpt.cfg.SlotPages*s.ps
	return nil
}

// readCkptSlot reads the rest of the blob whose header h was read from
// slot, and fully validates it. A nil image (with nil error) means the slot
// holds no usable checkpoint; only backend read errors propagate.
// Validation is strict on purpose: every field an attacker — or a torn
// write — could skew either fails a check here or is caught by the
// divergence rules in applyCheckpoint, and anything suspicious rejects the
// whole blob rather than risking a wrong index.
func (s *Store) readCkptSlot(slot int, h *ckptHeader) (*ckptImage, error) {
	blobLen := h.blobLen
	blob := make([]byte, blobLen)
	copy(blob, h.raw[:])
	if err := s.b.Read(s.ckpt.slotBase[slot]*s.ps+ckptHdrSize, blob[ckptHdrSize:]); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(blob[:blobLen-crcSize]) != leU32(blob[blobLen-crcSize:]) {
		return nil, nil
	}

	img := &ckptImage{
		cpSeq:   leU64(blob[10:]),
		nextSeq: leU32(blob[18:]),
	}
	dataPages := int(leU32(blob[22:]))
	keyCount := int(leU32(blob[26:]))
	if dataPages != s.np || img.nextSeq == freeSeq || keyCount < 0 {
		return nil, nil
	}
	need := ckptHdrSize + dataPages*ckptPageSize + keyCount*ckptKeyFixed + crcSize
	if need > blobLen {
		return nil, nil
	}
	img.pageSeq = make([]uint32, dataPages)
	img.pageUsed = make([]int, dataPages)
	img.pageLive = make([]int, dataPages)
	img.pageBad = make([]bool, dataPages)
	seen := make(map[uint32]bool, dataPages)
	off := ckptHdrSize
	for p := 0; p < dataPages; p++ {
		seq := leU32(blob[off:])
		used := int(leU32(blob[off+4:]))
		live := int(leU32(blob[off+8:]))
		flags := blob[off+12]
		off += ckptPageSize
		if flags&^byte(ckptPageBad) != 0 {
			return nil, nil
		}
		switch {
		case flags&ckptPageBad != 0:
			if seq != freeSeq || used != s.ps || live != 0 {
				return nil, nil
			}
		case seq == freeSeq:
			if used != 0 || live != 0 {
				return nil, nil
			}
		default:
			if seq >= img.nextSeq || seen[seq] {
				return nil, nil
			}
			seen[seq] = true
			if used < pageHeaderSize || used > s.ps || live < 0 || live > used-pageHeaderSize {
				return nil, nil
			}
		}
		img.pageSeq[p] = seq
		img.pageUsed[p] = used
		img.pageLive[p] = live
		img.pageBad[p] = flags&ckptPageBad != 0
	}
	img.entries = make(map[string]location, keyCount)
	entryLive := make([]int, dataPages)
	// Every key is sliced out of one string of the key area: one
	// allocation in place of one per key. The index keeps the area alive,
	// entry bytes included, until every key it holds is replaced.
	area, areaBase := string(blob[off:blobLen-crcSize]), off
	var prev string
	for i := 0; i < keyCount; i++ {
		if off+1 > blobLen-crcSize {
			return nil, nil
		}
		keyLen := int(blob[off])
		if keyLen == 0 || off+1+keyLen+ckptKeyFixed-1 > blobLen-crcSize {
			return nil, nil
		}
		key := area[off+1-areaBase : off+1+keyLen-areaBase]
		off += 1 + keyLen
		page := int(leU32(blob[off:]))
		recOff := int(leU16(blob[off+4:]))
		size := int(leU16(blob[off+6:]))
		flags := blob[off+8]
		off += ckptKeyFixed - 1
		if flags&^byte(ckptEntryDead) != 0 {
			return nil, nil
		}
		if page < 0 || page >= dataPages || img.pageBad[page] || img.pageSeq[page] == freeSeq {
			return nil, nil
		}
		if recOff < pageHeaderSize || size < recHeaderSize+1+crcSize || recOff+size > img.pageUsed[page] {
			return nil, nil
		}
		// The encoder emits keys sorted, so a key at or below its
		// predecessor (a duplicate among them) is damage or forgery. Keys
		// are never empty, so the first key passes.
		if key <= prev {
			return nil, nil
		}
		prev = key
		img.entries[key] = location{page: page, off: recOff, size: size, dead: flags&ckptEntryDead != 0}
		entryLive[page] += size
	}
	if off != blobLen-crcSize {
		return nil, nil
	}
	// Every live byte the page table claims must be exactly accounted for
	// by entries — the store writes checkpoints that balance, so anything
	// else is damage or forgery.
	for p := 0; p < dataPages; p++ {
		if entryLive[p] != img.pageLive[p] {
			return nil, nil
		}
	}
	return img, nil
}

// applyCheckpoint installs a checkpoint image and reconciles it with the
// flash, reading one 8-byte header per page (re-sensed by resense before a
// page is quarantined) to classify each page against the blob's
// page table:
//
//	blob state  header state          meaning                     action
//	─────────── ───────────────────── ──────────────────────────  ──────────
//	in-use      same seq              unchanged (or appended to)  trust; replay tail if used < ps
//	in-use      free                  erased by GC after ckpt     drop its entries (copies live past nextSeq)
//	in-use      seq >= blob nextSeq   erased and reused           drop entries; replay fully
//	in-use      quarantined           damaged after ckpt          drop entries; mark bad
//	free/bad    free                  free (or reclaimed)         free
//	free/bad    seq >= blob nextSeq   opened after ckpt           replay fully
//	bad         quarantined           still bad                   keep bad
//	free        quarantined           torn header after ckpt      mark bad
//	any         seq < blob nextSeq,   a page the checkpoint       REJECT: the caller scans
//	            and != blob seq       cannot explain
//
// The empty image (emptyImage) has every page free and nextSeq 0, so only
// the free/bad rows apply and every in-use page replays: a scan mount.
// Tail pages replay in sequence order after the image's index is
// installed and one pass has dropped the entries on pages that diverged:
// every pre-ckpt page's sequence is below blob nextSeq, every
// replayed page's is at or above it (or is the partially-filled head
// continuing its own page). tail counts the pages whose replay found
// records past the image; ok=false means the image was rejected, and the
// caller falls back to a scan mount.
func (s *Store) applyCheckpoint(img *ckptImage) (tail int, ok bool, err error) {
	saved := s.stats
	copy(s.pageSeq, img.pageSeq)
	copy(s.pageUsed, img.pageUsed)
	copy(s.pageLive, img.pageLive)
	copy(s.pageBad, img.pageBad)
	s.index = img.entries
	s.ckptKeys = nil
	s.nextSeq = img.nextSeq

	var partial, fresh []pageInfo
	dropped := false
	buf := make([]byte, s.ps)
	for p := 0; p < s.np; p++ {
		seq, state, err := s.readPageHeader(p, buf[:pageHeaderSize])
		if err != nil {
			return 0, false, err
		}
		switch {
		case img.pageBad[p] || img.pageSeq[p] == freeSeq: // free or bad at ckpt
			switch state {
			case pageFree:
				s.setPage(p, freeSeq, 0, 0, false)
			case pageQuarantined:
				s.setPage(p, freeSeq, s.ps, 0, true)
			default:
				if seq < img.nextSeq {
					s.stats = saved
					return 0, false, nil
				}
				s.setPage(p, seq, 0, 0, false)
				fresh = append(fresh, pageInfo{p, seq})
			}
		default: // in use at ckpt
			switch {
			case state == pageInUse && seq == img.pageSeq[p]:
				if img.pageUsed[p] < s.ps {
					partial = append(partial, pageInfo{p, seq})
				}
			case state == pageFree:
				s.setPage(p, freeSeq, 0, 0, false)
			case state == pageQuarantined:
				s.setPage(p, freeSeq, s.ps, 0, true)
			case seq >= img.nextSeq:
				s.setPage(p, seq, 0, 0, false)
				fresh = append(fresh, pageInfo{p, seq})
			default:
				s.stats = saved
				return 0, false, nil
			}
			dropped = dropped || s.pageSeq[p] != img.pageSeq[p]
		}
	}

	// Every entry on a page erased, reused or quarantined since the
	// checkpoint goes, in one pass over the index: the page table now
	// disagrees with the image's for exactly those pages. What was live on
	// them lives on in GC copies past the image's nextSeq, which the replay
	// below restores, or is gone with the quarantine, matching a scan. The
	// pass runs before the replay, whose entries on reused pages must stay.
	if dropped {
		for k, loc := range s.index {
			if s.pageSeq[loc.page] != img.pageSeq[loc.page] {
				delete(s.index, k)
			}
		}
	}

	// Replay the divergent pages oldest-first; partially-filled
	// checkpointed pages (sequences below the blob's nextSeq) replay before
	// post-checkpoint pages by construction.
	sort.Slice(partial, func(i, j int) bool { return partial[i].seq < partial[j].seq })
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].seq < fresh[j].seq })
	for _, pi := range partial {
		// Only the suffix past the checkpointed fill point can hold new
		// records; the parse below starts there, so skip re-reading the
		// prefix the blob already described (usually the whole page bar a
		// few slack bytes).
		start := img.pageUsed[pi.page]
		if err := s.b.Read(s.pageBase(pi.page)+start, buf[start:]); err != nil {
			return 0, false, err
		}
		s.replayPageFrom(pi.page, buf, start)
		if s.pageUsed[pi.page] != start {
			tail++
		}
	}
	for _, pi := range fresh {
		if err := s.b.Read(s.pageBase(pi.page), buf); err != nil {
			return 0, false, err
		}
		s.replayPageFrom(pi.page, buf, pageHeaderSize)
		if pi.seq >= s.nextSeq {
			s.nextSeq = pi.seq + 1
		}
		tail++
	}

	// Resume appending into the newest page if it has room, as the hot
	// head with no cold head, and recount the quarantine pool. Every fresh
	// page is younger than every page the image knew, so the newest is the
	// last fresh page when there is one.
	newest := -1
	if len(fresh) > 0 {
		newest = fresh[len(fresh)-1].page
	}
	for p := 0; p < s.np; p++ {
		if s.pageBad[p] {
			s.stats.QuarantinedPages++
		} else if len(fresh) == 0 && s.pageSeq[p] != freeSeq &&
			(newest < 0 || s.pageSeq[p] > s.pageSeq[newest]) {
			newest = p
		}
	}
	s.head, s.cold = -1, -1
	if newest >= 0 && s.pageUsed[newest] < s.ps {
		s.head = newest
	}
	s.recount()
	return tail, true, nil
}

func leU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func putLEU16(b []byte, v uint16) { b[0], b[1] = byte(v), byte(v>>8) }

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

func putLEU64(b []byte, v uint64) {
	putLEU32(b, uint32(v))
	putLEU32(b[4:], uint32(v>>32))
}
