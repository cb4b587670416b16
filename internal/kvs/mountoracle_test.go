package kvs

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// The mount as it was with two routines, kept as the reference the single
// mount path is compared against (FuzzMountReplay and
// TestLoadCheckpointMatchesReference): a scan mount read every page whole
// to classify it, then again to replay it, from a state reset after a
// rejected checkpoint; the checkpoint loader read and decoded both slots
// whole, rejecting duplicate keys by lookup. scanMount, resetMountState,
// the loader and its slot reader are that code unchanged, except that the
// loader and the slot reader are renamed loadBothSlots and readWholeSlot,
// and that scanMount margin-senses and replays through the oracle copies of
// the old read path (ladderoracle_test.go), not the store's resense.

// oracleOpen mounts the store the way OpenOn did with two mount routines.
// Checkpointed mounts share applyCheckpoint with OpenOn; everything else —
// the loader, the fallback and the scan — is the old code.
func oracleOpen(b Backend, opts ...Option) (*Store, error) {
	s, err := layoutStore(b, opts...)
	if err != nil {
		return nil, err
	}
	var img *ckptImage
	var seqFloor uint32
	if s.ckpt != nil {
		img, seqFloor, err = s.loadBothSlots()
		if err != nil {
			return nil, err
		}
	}
	if img != nil && !s.ckpt.cfg.ScanOnly {
		tail, ok, err := s.applyCheckpoint(img)
		if err != nil {
			return nil, err
		}
		if ok {
			if seqFloor > s.nextSeq {
				s.nextSeq = seqFloor
			}
			s.stats.CheckpointMounts++
			s.stats.TailPagesReplayed += uint64(tail)
			if err := s.mountScanIndex(); err != nil {
				return nil, err
			}
			return s, nil
		}
		s.resetMountState()
	}
	if err := s.scanMount(); err != nil {
		return nil, err
	}
	if seqFloor > s.nextSeq {
		s.nextSeq = seqFloor
	}
	s.stats.ScanMounts++
	if err := s.mountScanIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// scanMount rebuilds the store state by reading and replaying every data
// page. It assumes zeroed page accounting (a fresh Store or resetMountState).
func (s *Store) scanMount() error {
	var used []pageInfo
	buf := make([]byte, s.ps)
	for p := 0; p < s.np; p++ {
		if err := s.b.Read(s.pageBase(p), buf); err != nil {
			return err
		}
		seq, state := parsePageHeader(buf, &s.stats)
		// A quarantine verdict is worth a re-sense: retention flicker on
		// top of a stuck cell can push a header past single-bit repair on
		// one read and back within reach on the next.
		for try := 0; try < senseRetries && state == pageQuarantined; try++ {
			s.stats.SenseRetries++
			if err := s.b.Read(s.pageBase(p), buf); err != nil {
				return err
			}
			seq, state = parsePageHeader(buf, &s.stats)
			if state != pageQuarantined {
				s.stats.SenseRecovered++
			}
		}
		if state == pageQuarantined {
			if ok, err := s.oracleMarginSense(p, buf); err != nil {
				return err
			} else if ok {
				if seq2, st2 := parsePageHeader(buf, &s.stats); st2 != pageQuarantined {
					s.stats.SenseRecovered++
					seq, state = seq2, st2
				}
			}
		}
		s.pageSeq[p] = seq
		switch state {
		case pageFree:
			continue
		case pageQuarantined:
			s.pageBad[p] = true
			s.pageSeq[p] = freeSeq // not addressable; reclaimed by erase
			s.pageUsed[p] = s.ps
			s.stats.QuarantinedPages++
			continue
		}
		used = append(used, pageInfo{p, seq})
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	// Replay pages in sequence order so newer records win.
	sort.Slice(used, func(i, j int) bool { return used[i].seq < used[j].seq })
	for _, pi := range used {
		if err := s.b.Read(s.pageBase(pi.page), buf); err != nil {
			return err
		}
		s.oracleReplayPage(pi.page, pi.seq, buf)
	}
	if len(used) > 0 {
		last := used[len(used)-1]
		// Resume appending into the newest page if it has room, as the hot
		// head; the store starts with no cold head.
		if s.pageUsed[last.page] < s.ps {
			s.head = last.page
		}
	}
	s.recount()
	return nil
}

// resetMountState discards everything a rejected checkpoint mount may have
// half-built, so scanMount starts from a clean slate.
func (s *Store) resetMountState() {
	s.index = make(map[string]location)
	s.ckptKeys = nil
	for p := 0; p < s.np; p++ {
		s.pageSeq[p] = 0
		s.pageUsed[p] = 0
		s.pageLive[p] = 0
		s.pageBad[p] = false
	}
	s.head, s.cold = -1, -1
	s.nextSeq = 0
}

// loadBothSlots reads both slots and returns the newest valid image (nil
// when neither slot holds one) plus the nextSeq floor across every valid
// slot. It also primes the writer state — slot rotation and checkpoint
// sequence continue from the newest image whichever mount path runs.
func (s *Store) loadBothSlots() (*ckptImage, uint32, error) {
	var best *ckptImage
	var floor uint32
	bestSlot := 0
	for slot := 0; slot < 2; slot++ {
		img, err := s.readWholeSlot(slot)
		if err != nil {
			return nil, 0, err
		}
		if img == nil {
			continue
		}
		if img.nextSeq > floor {
			floor = img.nextSeq
		}
		if best == nil || img.cpSeq > best.cpSeq {
			best, bestSlot = img, slot
		}
	}
	if best != nil {
		s.ckpt.lastSlot = bestSlot
		s.ckpt.cpSeq = best.cpSeq
	}
	return best, floor, nil
}

// readWholeSlot reads and fully validates one slot. A nil image (with nil
// error) means the slot holds no usable checkpoint; only backend read
// errors propagate. Validation is strict on purpose: every field an
// attacker — or a torn write — could skew either fails a check here or is
// caught by the divergence rules in applyCheckpoint, and anything
// suspicious rejects the whole blob rather than risking a wrong index.
func (s *Store) readWholeSlot(slot int) (*ckptImage, error) {
	base := s.ckpt.slotBase[slot]
	capacity := s.ckpt.cfg.SlotPages * s.ps
	first := make([]byte, s.ps)
	if err := s.b.Read(base*s.ps, first); err != nil {
		return nil, err
	}
	if string(first[:4]) != ckptMagic || first[4] != ckptVersion {
		return nil, nil
	}
	blobLen := int(binary.LittleEndian.Uint32(first[6:]))
	if blobLen < ckptHdrSize+crcSize || blobLen > capacity {
		return nil, nil
	}
	blob := make([]byte, blobLen)
	n := copy(blob, first)
	if n < blobLen {
		if err := s.b.Read(base*s.ps+n, blob[n:]); err != nil {
			return nil, err
		}
	}
	if crc32.ChecksumIEEE(blob[:blobLen-crcSize]) != binary.LittleEndian.Uint32(blob[blobLen-crcSize:]) {
		return nil, nil
	}

	img := &ckptImage{
		cpSeq:   binary.LittleEndian.Uint64(blob[10:]),
		nextSeq: binary.LittleEndian.Uint32(blob[18:]),
	}
	dataPages := int(binary.LittleEndian.Uint32(blob[22:]))
	keyCount := int(binary.LittleEndian.Uint32(blob[26:]))
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
		seq := binary.LittleEndian.Uint32(blob[off:])
		used := int(binary.LittleEndian.Uint32(blob[off+4:]))
		live := int(binary.LittleEndian.Uint32(blob[off+8:]))
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
	for i := 0; i < keyCount; i++ {
		if off+1 > blobLen-crcSize {
			return nil, nil
		}
		keyLen := int(blob[off])
		if keyLen == 0 || off+1+keyLen+ckptKeyFixed-1 > blobLen-crcSize {
			return nil, nil
		}
		key := string(blob[off+1 : off+1+keyLen])
		off += 1 + keyLen
		page := int(binary.LittleEndian.Uint32(blob[off:]))
		recOff := int(binary.LittleEndian.Uint16(blob[off+4:]))
		size := int(binary.LittleEndian.Uint16(blob[off+6:]))
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
		if _, dup := img.entries[key]; dup {
			return nil, nil
		}
		img.entries[key] = location{
			page: page, off: recOff, size: size,
			dead: flags&ckptEntryDead != 0,
		}
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
