// The journal. Open reserves the tail of the device for metadata — a
// scratch copy page, an intent log and two ping-pong map checkpoints — so a
// reboot recovers the translation map, and every swap follows a write-ahead
// protocol so that after a crash at *any* byte offset the mount either
// completes the swap or rolls it back to the previous-good map. Metadata is
// written with exact flash operations (erase + program + read-back verify),
// never through the approximate write path, so a stuck or drifted cell
// cannot silently remap a page.
//
// Physical layout (pages):
//
//	[0, nl)                       data pages, the logical space
//	nl                            swap scratch page
//	nl+1                          intent log
//	nl+2 … nl+2+mapPages          checkpoint slot 0
//	…    … nl+2+2*mapPages        checkpoint slot 1
//	poolBase … poolBase+spares    retirement pool (WithSpares)
//
// Checkpoint blob: seq(4, LE) | l2p entries (2 bytes LE each) | crc32(4, LE).
// Intent record:   magic(0xF7) | seq(4) | a(2) | b(2) | crcA(4) | crcB(4) | crc32(4).
//
// Swap protocol for data pages a, b at sequence s = mapSeq+1:
//
//  1. append intent {s, a, b, crc(A), crc(B)} to the log
//  2. spare ← A
//  3. a     ← B
//  4. b     ← spare
//  5. update the RAM map, write checkpoint s to the older slot
//
// Recovery compares the page CRCs against the intent's recorded crcA/crcB to
// decide how far the swap got, finishes or undoes it, and always commits a
// fresh checkpoint so a half-done intent can never be replayed twice.
package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// ErrNoJournalSpace is returned by Open when the device is too small to
// hold data pages plus the journal metadata.
var ErrNoJournalSpace = errors.New("ftl: device too small for journal metadata")

// errCheckpointVerify is returned when a checkpoint slot cannot be made to
// read back correctly even after retries (worn-out metadata pages).
var errCheckpointVerify = errors.New("ftl: checkpoint read-back verify failed")

const (
	intentMagic   = 0xF7
	intentRecSize = 1 + 4 + 2 + 2 + 4 + 4 + 4

	// writeRetries bounds erase+program+verify attempts on metadata pages;
	// each retry's erase clears recoverable stuck cells.
	writeRetries = 3
)

// layout is the physical geometry of a journaled FTL.
type layout struct {
	ps       int // page size
	nl       int // logical (data) pages
	spare    int // swap scratch page
	intent   int // intent log page
	mapPages int // pages per checkpoint slot
	slot     [2]int
	poolBase int // first retirement-pool page
	spares   int // retirement-pool size
}

// mapBlobSize returns the checkpoint blob size for nl logical pages.
func mapBlobSize(nl int) int { return 4 + 2*nl + 4 }

// computeLayout reserves the largest possible logical space that still
// leaves room for spare + intent + two checkpoint slots + the retirement
// pool. With ns == 0 the layout is identical to one computed before spare
// pools existed, so old checkpoint blobs remain readable.
func computeLayout(ps, np, ns int) (layout, error) {
	if ns < 0 {
		ns = 0
	}
	for nl := np - 4 - ns; nl > 0; nl-- {
		mp := (mapBlobSize(nl) + ps - 1) / ps
		if nl+2+2*mp+ns <= np {
			l := layout{ps: ps, nl: nl, spare: nl, intent: nl + 1, mapPages: mp}
			l.slot[0] = nl + 2
			l.slot[1] = nl + 2 + mp
			l.poolBase = nl + 2 + 2*mp
			l.spares = ns
			return l, nil
		}
	}
	return layout{}, fmt.Errorf("%w: %d pages of %d bytes (%d spares)",
		ErrNoJournalSpace, np, ps, ns)
}

// recover mounts the journaled map: pick the newest valid checkpoint,
// replay intents past it, and repair the one swap that may have been in
// flight when power was lost. Idempotent — a crash during recovery just
// re-runs it.
func (f *FTL) recover() error {
	lay := f.lay

	bestSeq, bestSlot := uint32(0), -1
	var bestMap []int
	for i := 0; i < 2; i++ {
		if m, seq, ok := f.readSlot(i); ok && (bestSlot < 0 || seq > bestSeq) {
			bestSeq, bestSlot, bestMap = seq, i, m
		}
	}
	if bestSlot < 0 {
		// Fresh device (or metadata lost beyond repair — indistinguishable
		// here; the kvs layer's CRCs catch the latter). Identity map.
		for i := range f.l2p {
			f.l2p[i] = i
			f.p2l[i] = i
		}
		f.mapSeq = 1
		if err := f.writeCheckpoint(0); err != nil {
			return err
		}
	} else {
		for lp, pp := range bestMap {
			f.l2p[lp] = pp
			f.p2l[pp] = lp
		}
		f.mapSeq = bestSeq
		f.checkpointSlot = bestSlot
	}

	intents, end := f.parseIntents()
	f.intentOff = end

	var pending []intentRec
	for _, it := range intents {
		if it.seq > f.mapSeq {
			pending = append(pending, it)
		}
	}
	// All but the newest pending intent belong to swaps whose data copies
	// completed long ago (their checkpoints existed once; we fell back to
	// an older slot). Only the mapping needs replaying.
	for i := 0; i+1 < len(pending); i++ {
		f.applySwap(pending[i].a, pending[i].b)
		f.mapSeq = pending[i].seq
	}
	if len(pending) > 0 {
		if err := f.repairIntent(pending[len(pending)-1]); err != nil {
			return err
		}
	}

	// The log now holds only committed intents; reclaim it when dirty so
	// it cannot fill up across many clean reboots.
	if f.intentOff > 0 {
		if err := f.eraseMetaPage(lay.intent); err != nil {
			return err
		}
		f.intentOff = 0
		f.stats.IntentErases++
	}

	// Re-fence retired pages. The retired set is not persisted separately:
	// a data page absent from the recovered map was retired onto a spare,
	// so the flash-level fence (lost across remount) is rebuilt here.
	fl := f.dev.Flash()
	for pp := 0; pp < lay.nl; pp++ {
		if f.p2l[pp] == -1 {
			_ = fl.Retire(pp)
		}
	}
	return nil
}

// intentRec is one parsed intent-log record.
type intentRec struct {
	seq        uint32
	a, b       int
	crcA, crcB uint32
}

// repairIntent finishes or undoes the single swap that may have been
// interrupted, then commits a checkpoint at the intent's sequence so the
// intent can never fire again.
func (f *FTL) repairIntent(it intentRec) error {
	fl := f.dev.Flash()
	ca := f.pageCRC(it.a)
	cb := f.pageCRC(it.b)
	cs := f.pageCRC(f.lay.spare)

	copyPage := func(dst, src int) error {
		buf := make([]byte, f.lay.ps)
		if err := fl.ReadPage(src, buf); err != nil {
			return err
		}
		return f.writeExactPage(dst, buf)
	}

	forward := false
	switch {
	case ca == it.crcA && cb == it.crcB:
		// Nothing durable happened (crash before or during spare ← A).
	case cs == it.crcA && cb == it.crcB:
		// spare ← A done, a ← B torn: redo both remaining copies.
		if err := copyPage(it.a, it.b); err != nil {
			return err
		}
		if err := copyPage(it.b, f.lay.spare); err != nil {
			return err
		}
		forward = true
	case cs == it.crcA && ca == it.crcB:
		// a ← B done, b ← spare torn: redo the last copy.
		if err := copyPage(it.b, f.lay.spare); err != nil {
			return err
		}
		forward = true
	case ca == it.crcB && cb == it.crcA:
		// All copies landed; only the checkpoint was lost.
		forward = true
	default:
		// No recognisable state (metadata pages disturbed past the
		// single-bit repair). Keep the previous-good map — the kvs
		// layer's record CRCs contain the damage.
	}
	if forward {
		f.applySwap(it.a, it.b)
		f.stats.RolledForward++
	} else {
		f.stats.RolledBack++
	}
	// Either way the intent is now settled: bump the map sequence past it.
	f.mapSeq = it.seq
	return f.writeCheckpoint(1 - f.checkpointSlot)
}

// applySwap exchanges the logical owners of physical pages a and b in the
// RAM map, invalidating levelWear's cached pick.
func (f *FTL) applySwap(a, b int) {
	f.coldOK = false
	la, lb := f.p2l[a], f.p2l[b]
	f.l2p[la], f.l2p[lb] = b, a
	f.p2l[a], f.p2l[b] = lb, la
}

// journalSwap is the crash-consistent swap of data pages a and b.
func (f *FTL) journalSwap(a, b int) error {
	fl := f.dev.Flash()
	ps := f.lay.ps
	bufA := make([]byte, ps)
	bufB := make([]byte, ps)
	if err := fl.ReadPage(a, bufA); err != nil {
		return err
	}
	if err := fl.ReadPage(b, bufB); err != nil {
		return err
	}
	seq := f.mapSeq + 1
	if err := f.appendIntent(intentRec{
		seq: seq, a: a, b: b,
		crcA: crc32.ChecksumIEEE(bufA), crcB: crc32.ChecksumIEEE(bufB),
	}); err != nil {
		return err
	}
	if err := f.writeExactPage(f.lay.spare, bufA); err != nil {
		return err
	}
	if err := f.writeExactPage(a, bufB); err != nil {
		return err
	}
	// Read the spare back rather than trusting bufA: the copy chain pays
	// for its own reads, and a torn spare would be caught here.
	bufS := make([]byte, ps)
	if err := fl.ReadPage(f.lay.spare, bufS); err != nil {
		return err
	}
	if err := f.writeExactPage(b, bufS); err != nil {
		return err
	}
	f.applySwap(a, b)
	f.mapSeq = seq
	if err := f.writeCheckpoint(1 - f.checkpointSlot); err != nil {
		return err
	}
	f.stats.Swaps++
	f.stats.SwapReads += 3
	f.stats.SwapWrites += 3
	return nil
}

// appendIntent programs one intent record into the log, erasing the log
// first when it is full (every prior intent is committed by then — a
// checkpoint follows every swap).
func (f *FTL) appendIntent(it intentRec) error {
	fl := f.dev.Flash()
	if f.intentOff+intentRecSize > f.lay.ps {
		if err := f.eraseMetaPage(f.lay.intent); err != nil {
			return err
		}
		f.intentOff = 0
		f.stats.IntentErases++
	}
	rec := make([]byte, intentRecSize)
	rec[0] = intentMagic
	putU32(rec[1:], it.seq)
	putU16(rec[5:], uint16(it.a))
	putU16(rec[7:], uint16(it.b))
	putU32(rec[9:], it.crcA)
	putU32(rec[13:], it.crcB)
	putU32(rec[17:], crc32.ChecksumIEEE(rec[:17]))
	base := f.dev.Flash().PageBase(f.lay.intent) + f.intentOff
	// Mark the space consumed before programming: if the program tears,
	// the dirty bytes must never be reused.
	f.intentOff += intentRecSize
	for i, v := range rec {
		if err := fl.ProgramByte(base+i, v); err != nil {
			return err
		}
	}
	return nil
}

// parseIntents scans the intent log, applying single-bit repair to records
// whose CRC fails, and returns the valid records plus the append offset
// (one past the last non-erased byte, so torn tails are never overwritten).
func (f *FTL) parseIntents() ([]intentRec, int) {
	fl := f.dev.Flash()
	buf := make([]byte, f.lay.ps)
	if err := fl.ReadPage(f.lay.intent, buf); err != nil {
		return nil, 0
	}
	var recs []intentRec
	off := 0
	for off+intentRecSize <= len(buf) {
		rec := buf[off : off+intentRecSize]
		if allFF(rec) {
			break
		}
		if crc32.ChecksumIEEE(rec[:17]) != readU32(rec[17:]) || rec[0] != intentMagic {
			if n, ok := bits.CorrectSingleBit(rec, 17); ok && rec[0] == intentMagic {
				f.stats.CorrectedBits += uint64(n)
			} else {
				// Torn record: it is always the last one written.
				off += intentRecSize
				break
			}
		}
		it := intentRec{
			seq:  readU32(rec[1:]),
			a:    int(readU16(rec[5:])),
			b:    int(readU16(rec[7:])),
			crcA: readU32(rec[9:]),
			crcB: readU32(rec[13:]),
		}
		off += intentRecSize
		if it.a == it.b {
			// Every intent names a swap of two distinct pages; a record
			// that does not is corrupt, and ends the log like a torn one.
			break
		}
		recs = append(recs, it)
	}
	// Skip past any trailing dirt (a torn record's stray bits).
	end := off
	for i := len(buf) - 1; i >= off; i-- {
		if buf[i] != 0xFF {
			end = i + 1
			break
		}
	}
	return recs, end
}

// writeCheckpoint serialises the map at f.mapSeq into the given slot with
// erase + program + read-back verify, retrying so recoverable stuck cells
// get a second erase.
func (f *FTL) writeCheckpoint(slot int) error {
	blob := make([]byte, mapBlobSize(f.lay.nl))
	putU32(blob, f.mapSeq)
	for lp, pp := range f.l2p {
		putU16(blob[4+2*lp:], uint16(pp))
	}
	putU32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))

	fl := f.dev.Flash()
	ps := f.lay.ps
	err := retryMeta(func() error {
		for i := 0; i < f.lay.mapPages; i++ {
			page := f.lay.slot[slot] + i
			chunk := make([]byte, ps)
			for j := range chunk {
				chunk[j] = 0xFF
			}
			copy(chunk, blob[min(i*ps, len(blob)):min((i+1)*ps, len(blob))])
			if err := fl.EraseProgramPage(page, chunk); err != nil {
				return err
			}
			got := make([]byte, ps)
			if err := fl.ReadPage(page, got); err != nil {
				return err
			}
			if !bytes.Equal(got, chunk) {
				return errCheckpointVerify
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.checkpointSlot = slot
	f.stats.Checkpoints++
	return nil
}

// readSlot loads and validates one checkpoint slot, applying single-bit
// repair when the CRC fails. The map must be injective into the data
// region plus the retirement pool — anything else marks the slot invalid.
// (Data pages missing from the image are the retired ones; pool pages
// missing from it are the free spares.)
func (f *FTL) readSlot(slot int) ([]int, uint32, bool) {
	fl := f.dev.Flash()
	ps := f.lay.ps
	blob := make([]byte, f.lay.mapPages*ps)
	for i := 0; i < f.lay.mapPages; i++ {
		if err := fl.ReadPage(f.lay.slot[slot]+i, blob[i*ps:(i+1)*ps]); err != nil {
			return nil, 0, false
		}
	}
	blob = blob[:mapBlobSize(f.lay.nl)]
	if crc32.ChecksumIEEE(blob[:len(blob)-4]) != readU32(blob[len(blob)-4:]) {
		n, ok := bits.CorrectSingleBit(blob, len(blob)-4)
		if !ok {
			return nil, 0, false
		}
		f.stats.CorrectedBits += uint64(n)
	}
	seq := readU32(blob)
	if seq == 0 || seq == ^uint32(0) {
		return nil, 0, false
	}
	m := make([]int, f.lay.nl)
	seen := make([]bool, f.lay.nl+2+2*f.lay.mapPages+f.lay.spares)
	validPhys := func(pp int) bool {
		return pp < f.lay.nl ||
			(pp >= f.lay.poolBase && pp < f.lay.poolBase+f.lay.spares)
	}
	for lp := range m {
		pp := int(readU16(blob[4+2*lp:]))
		if pp >= len(seen) || !validPhys(pp) || seen[pp] {
			return nil, 0, false
		}
		m[lp] = pp
		seen[pp] = true
	}
	return m, seq, true
}

// writeExactPage stores buf into physical page p through the flash layer
// directly (erase + program, no approximation), retrying so a stuck cell
// left by a faulted erase gets cleared by the next one.
func (f *FTL) writeExactPage(p int, buf []byte) error {
	return retryMeta(func() error { return f.dev.Flash().EraseProgramPage(p, buf) })
}

// retryMeta runs a metadata write op up to writeRetries times, until it
// succeeds or fails with an error retryableWriteErr rejects, and returns
// the last attempt's error.
func retryMeta(op func() error) error {
	var err error
	for attempt := 0; attempt < writeRetries; attempt++ {
		if err = op(); err == nil || !retryableWriteErr(err) {
			return err
		}
	}
	return err
}

// retryableWriteErr reports whether a metadata write failure is worth
// another erase + program attempt. A stuck cell left by a faulted erase
// (ErrNeedsErase from the program phase) may clear on the next cycle. A
// worn-out erase never does — wear only grows, so a retry fails again and
// costs one more cycle — and a power loss means the device is down; both
// propagate immediately.
func retryableWriteErr(err error) bool {
	return !errors.Is(err, flash.ErrPowerLoss) && !errors.Is(err, flash.ErrWornOut)
}

// eraseMetaPage erases a metadata page, retrying recoverable failures.
func (f *FTL) eraseMetaPage(p int) error {
	return retryMeta(func() error { return f.dev.Flash().ErasePage(p) })
}

// pageCRC returns the CRC32 of a physical page's current contents.
func (f *FTL) pageCRC(p int) uint32 {
	buf := make([]byte, f.lay.ps)
	if err := f.dev.Flash().ReadPage(p, buf); err != nil {
		return 0
	}
	return crc32.ChecksumIEEE(buf)
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

func readU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func putU16(b []byte, v uint16) { b[0], b[1] = byte(v), byte(v>>8) }
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
