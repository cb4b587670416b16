package kvs

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// The hardened read path as it was with one ladder per site, kept as the
// reference the shared ladder (resense) is compared against
// (FuzzResenseMatchesOracle) and as the read path of the reference scan
// mount (scanMount, mountoracle_test.go). Each function is the old code
// unchanged, except for its oracle name and the oracle names it calls.

// oracleReadPageHeader reads and classifies page p's 8-byte header. A quarantine
// verdict is worth a re-sense: retention flicker on top of a stuck cell can
// push a header past single-bit repair on one read and back within reach
// on the next. So the header is re-read up to senseRetries times, then
// margin-sensed into buf (one page) before the page is given up.
func (s *Store) oracleReadPageHeader(p int, buf []byte) (uint32, int, error) {
	hdr := buf[:pageHeaderSize]
	if err := s.b.Read(s.pageBase(p), hdr); err != nil {
		return 0, 0, err
	}
	seq, state := parsePageHeader(hdr, &s.stats)
	for try := 0; try < senseRetries && state == pageQuarantined; try++ {
		s.stats.SenseRetries++
		if err := s.b.Read(s.pageBase(p), hdr); err != nil {
			return 0, 0, err
		}
		seq, state = parsePageHeader(hdr, &s.stats)
		if state != pageQuarantined {
			s.stats.SenseRecovered++
		}
	}
	if state == pageQuarantined {
		if ok, err := s.oracleMarginSense(p, buf); err != nil {
			return 0, 0, err
		} else if ok {
			if seq2, st2 := parsePageHeader(buf, &s.stats); st2 != pageQuarantined {
				s.stats.SenseRecovered++
				seq, state = seq2, st2
			}
		}
	}
	return seq, state, nil
}

// oracleReplayPage parses the records of one page into the index.
func (s *Store) oracleReplayPage(page int, seq uint32, buf []byte) {
	s.oracleReplayPageFrom(page, seq, buf, pageHeaderSize)
}

// oracleReplayPageFrom parses the records of one page into the index starting at
// byte offset start — pageHeaderSize for a full replay, or the used-bytes
// watermark a checkpoint recorded for the page, so only the tail appended
// since the checkpoint is parsed.
func (s *Store) oracleReplayPageFrom(page int, seq uint32, buf []byte, start int) {
	ps := len(buf)
	off := start
	for off+recHeaderSize+crcSize <= ps {
		size, ok := s.oracleCheckRecord(page, buf, off)
		if !ok {
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
		flags := buf[off+1] ^ s.inv
		keyLen := int(buf[off+2])
		key := string(buf[off+recHeaderSize : off+recHeaderSize+keyLen])
		old, had := s.index[key]
		s.supersede(old, had)
		loc := location{page: page, off: off, size: size, dead: flags&flagTombstone != 0}
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

// oracleMarginSense performs a slow margin-aware controller sense of one store
// page into dst (one full page) when the backend supports it. ok reports
// whether a sense was issued; a read failure (e.g. power loss mid-sense)
// is returned so callers on error-propagating paths can surface it.
func (s *Store) oracleMarginSense(page int, dst []byte) (bool, error) {
	b, can := s.b.(PageSenser)
	if !can {
		return false, nil
	}
	s.stats.MarginSenses++
	if err := b.SensePage(s.devPage[page], dst); err != nil {
		return false, err
	}
	return true, nil
}

// oracleCheckRecord validates (and if needed re-senses or single-bit-repairs, in
// buf) the record of page at off, returning its size. Returns ok=false when
// the bytes are free space or damaged beyond repair.
func (s *Store) oracleCheckRecord(page int, buf []byte, off int) (int, bool) {
	ps := len(buf)
	size, ok := recordSize(buf, off, ps, s.inv)
	if ok && recordCRCValid(buf, off, size) {
		return size, true
	}
	if allFF(buf[off:min(off+recHeaderSize+crcSize, ps)]) {
		return 0, false // free space, not damage
	}
	// Re-sense before repairing: a marginal retention cell flickers per
	// read, so a fresh read of the page tail usually comes back clean —
	// and when flicker stacks on top of a genuinely stuck cell, the
	// re-read narrows the damage back within single-bit reach.
	for try := 0; try < senseRetries; try++ {
		s.stats.SenseRetries++
		if err := s.b.Read(s.pageBase(page)+off, buf[off:]); err != nil {
			break
		}
		if size, ok := recordSize(buf, off, ps, s.inv); ok && recordCRCValid(buf, off, size) {
			s.stats.SenseRecovered++
			return size, true
		}
	}
	// Fast re-reads flicker too; a margin sense strips the read noise so
	// the repair below judges only persistent damage.
	if ok, err := s.oracleMarginSense(page, buf); err == nil && ok {
		if size, ok := recordSize(buf, off, ps, s.inv); ok && recordCRCValid(buf, off, size) {
			s.stats.SenseRecovered++
			return size, true
		}
	}
	// The damage may be a single drifted cell anywhere in the record —
	// including inside the length fields, which is why the repair must
	// re-derive the size after each candidate flip.
	if size, ok := s.repairRecord(buf, off); ok {
		return size, true
	}
	return 0, false
}

// oracleGet returns the value stored for key, verifying the record CRC. A CRC
// failure first earns a bounded re-sense — a marginal retention cell reads
// differently on the next try, and a clean re-read proves the on-flash copy
// is intact — before falling back to single-bit repair of the
// returned copy.
func (s *Store) oracleGet(key string) ([]byte, error) {
	loc, ok := s.index[key]
	if !ok || loc.dead {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	rec := make([]byte, loc.size)
	if err := s.b.Read(s.pageBase(loc.page)+loc.off, rec); err != nil {
		return nil, err
	}
	repaired := false
	if !recordCRCValid(rec, 0, len(rec)) {
		sensed := false
		for try := 0; try < senseRetries; try++ {
			s.stats.SenseRetries++
			if err := s.b.Read(s.pageBase(loc.page)+loc.off, rec); err != nil {
				return nil, err
			}
			if recordCRCValid(rec, 0, len(rec)) {
				s.stats.SenseRecovered++
				sensed = true
				break
			}
		}
		if !sensed {
			pg := make([]byte, s.ps)
			if ok, err := s.oracleMarginSense(loc.page, pg); err != nil {
				return nil, err
			} else if ok {
				copy(rec, pg[loc.off:loc.off+loc.size])
				if recordCRCValid(rec, 0, len(rec)) {
					s.stats.SenseRecovered++
					sensed = true
				}
			}
		}
		if !sensed {
			if _, ok := bits.CorrectSingleBit(rec, len(rec)-crcSize); ok {
				s.stats.CorrectedBits++
				repaired = true
			} else {
				return nil, fmt.Errorf("%w: %q", ErrCorrupt, key)
			}
		}
	}
	keyLen := int(rec[2])
	valLen := recordValLen(rec, 0, s.inv)
	if recHeaderSize+keyLen+valLen+crcSize != len(rec) {
		return nil, fmt.Errorf("%w: %q", ErrCorrupt, key)
	}
	val := make([]byte, valLen)
	copy(val, rec[recHeaderSize+keyLen:recHeaderSize+keyLen+valLen])
	if repaired && !s.inGC {
		// Read repair: the on-flash copy still carries the drifted cell,
		// and a second drift in the same record would be beyond repair.
		// Re-appending moves the data to a clean copy; best-effort.
		_ = s.append(key, encodeRecord(key, val, 0, s.inv))
	}
	return val, nil
}
