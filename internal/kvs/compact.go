package kvs

import "errors"

// Proactive compaction. Without it the store only garbage-collects when an
// append finds no space (the forced path in gc()), so a long-lived store
// runs permanently at the edge of full and every burst of writes stalls on
// back-to-back GC. WithCompaction runs the collector *ahead* of need: once
// per opened page, the store checks whether free pages are short or the
// store-wide garbage ratio has drifted too high, and if so compacts the
// most profitable victim — chosen by garbage ratio, biased toward low-wear
// pages when the backend exposes erase counts (WearBackend), so collection
// pressure doubles as wear leveling. Neither append head is ever a victim.
// A pass walks the victim for the records its keys' index entries point at
// and copies them as read (compactPage) to the cold head, apart from the
// hot keys' appends, so the pages they fill hold long-lived records and
// later victims carry fewer survivors to copy again.

// CompactionConfig tunes the proactive garbage collector. The zero value
// of every field selects a sensible default.
type CompactionConfig struct {
	// TriggerFreePages starts compaction when the number of usable free
	// pages drops below it (default 3; the store itself reserves one free
	// page as the collector's copy target).
	TriggerFreePages int
	// MaxGarbageRatio starts compaction when the store-wide dead fraction
	// of record bytes, (used-live)/used, exceeds it (default 0.5). This is
	// the knob that bounds space amplification: steady-state physical
	// consumption stays under live/(1-MaxGarbageRatio).
	MaxGarbageRatio float64
}

// Fixed compaction tuning.
const (
	// minVictimGarbage is the dead fraction a page must reach to qualify
	// as a proactive victim — compacting a nearly-all-live page rewrites
	// data for almost no reclaimed space.
	minVictimGarbage = 0.25
	// coldWindowDivisor sets the hot/cold split: a user append of a key
	// whose live record was appended more than np/coldWindowDivisor page
	// opens ago goes to the cold head (GC copies always do). perfbench's
	// kvchurn and kvscan gains hold from np/2 to np/8, and kvchurn's falls
	// from about 10% to 3% at np/16 (DESIGN.md §11).
	coldWindowDivisor = 4
	// maxPassesPerOp bounds how many pages one append may compact,
	// keeping worst-case op latency bounded.
	maxPassesPerOp = 2
	// wearWeight scales the low-wear bias in victim scoring. Only
	// effective when the backend implements WearBackend.
	wearWeight = 0.1
)

// normalize fills zero-valued fields with defaults.
func (c *CompactionConfig) normalize() {
	if c.TriggerFreePages <= 0 {
		c.TriggerFreePages = 3
	}
	if c.MaxGarbageRatio <= 0 {
		c.MaxGarbageRatio = 0.5
	}
}

// WithCompaction arms proactive garbage collection with the given tuning.
func WithCompaction(cfg CompactionConfig) Option {
	return func(s *Store) {
		c := cfg
		s.comp = &c
	}
}

// maybeCompact is the post-append hook: while the store needs compaction
// and a qualified victim exists, compact — up to maxPassesPerOp pages.
// Capacity errors are swallowed (the triggering append already committed;
// the next append's forced path will surface them); everything else, power
// loss above all, propagates.
func (s *Store) maybeCompact() error {
	if s.comp == nil || s.inGC || !s.compactDue {
		return nil
	}
	s.compactDue = false
	for pass := 0; pass < maxPassesPerOp; pass++ {
		if !s.compactionNeeded() {
			return nil
		}
		victim := s.pickVictim()
		if victim < 0 {
			return nil
		}
		if err := s.compactPage(victim); err != nil {
			if errors.Is(err, ErrFull) || errors.Is(err, ErrDeviceReadOnly) {
				return nil
			}
			return err
		}
	}
	return nil
}

// compactionNeeded reports whether the free pool is short or the garbage
// ratio has drifted past the configured ceiling, from the running totals.
func (s *Store) compactionNeeded() bool {
	if s.nFree < s.comp.TriggerFreePages {
		return true
	}
	used, live := s.recBytes, s.liveBytes
	return used > 0 && float64(used-live)/float64(used) > s.comp.MaxGarbageRatio
}

// pickVictim scores every garbage-qualified page and returns the best
// proactive victim, or -1 when none qualifies. The score is the fraction
// of the page an erase would reclaim net of the live bytes that must be
// copied out, plus a bias toward pages the device has erased least — so
// sustained collection spreads erases instead of hammering one page.
//
// Each page's wear is read once per pass, into s.wear, since the maximum
// and the scores need the same values: in bulk when the backend implements
// BulkWearBackend (one lock acquisition per bank, into a buffer indexed by
// backend page and gathered through the data-page table), else one
// PageWear per page.
func (s *Store) pickVictim() int {
	var maxWear uint32 = 1
	useWear := s.wb != nil
	if useWear {
		if s.wear == nil {
			s.wear = make([]uint32, s.np)
		}
		if s.bw != nil {
			if s.wearDev == nil {
				s.wearDev = make([]uint32, s.b.NumPages())
			}
			s.bw.WearInto(s.wearDev)
			for p, d := range s.devPage {
				s.wear[p] = s.wearDev[d]
			}
		} else {
			for p, d := range s.devPage {
				s.wear[p] = s.wb.PageWear(d)
			}
		}
		for _, w := range s.wear {
			maxWear = max(maxWear, w)
		}
	}
	victim, best := -1, 0.0
	for p := 0; p < s.np; p++ {
		if s.pageSeq[p] == freeSeq || s.isHead(p) {
			continue
		}
		recBytes := s.pageUsed[p] - pageHeaderSize
		if recBytes <= 0 {
			continue
		}
		garbage := float64(recBytes-s.pageLive[p]) / float64(recBytes)
		if garbage < minVictimGarbage {
			continue
		}
		score := float64(s.ps-s.pageLive[p]) / float64(s.ps)
		if useWear {
			score += wearWeight * (1 - float64(s.wear[p])/float64(maxWear))
		}
		if score > best {
			victim, best = p, score
		}
	}
	return victim
}
