package kvs

import (
	"errors"
	"fmt"
	"sort"

	"github.com/flipbit-sim/flipbit/internal/isc"
)

// InFlashBackend is an optional Backend extension: the in-storage compute
// surface (multi-page bitwise senses, raw byte programs and page erases)
// the scan index rides on, plus the geometry that lays the index out.
// coreBackend implements it; backends without it (an FTL, whose remapping
// would scramble the bitmap layout) silently fall back to host scans.
type InFlashBackend interface {
	isc.Device
	Banks() int
	MaxSensePages() int
}

// IndexField declares one indexed attribute of the records: how many
// buckets it quantises into and how to derive a record's bucket. Extract
// may return a negative value for records the field does not apply to;
// such records match no positive predicate on the field, and — because
// negated predicates are planned as "any other bucket" to stay sound
// against stale bits — they are invisible to negated predicates on it too.
// Fields queried under Not should therefore bucket every record.
type IndexField struct {
	Name    string
	Buckets int
	Extract func(key string, val []byte) int
}

// IndexSpec configures the in-flash scan index: the slot capacity and the
// indexed fields. Keys beyond MaxKeys disable the index (scans fall back
// to the host path) rather than failing writes.
type IndexSpec struct {
	MaxKeys int
	Fields  []IndexField
}

// WithScanIndex arms predicate-pushdown scans: per-(field,bucket) bitmaps
// are kept in a carved flash region and Scan evaluates predicates inside
// the array with multi-page senses, reading only matching records.
func WithScanIndex(spec IndexSpec) Option {
	return func(s *Store) { s.scanIdx = &scanIndexState{spec: spec} }
}

// KV is one scan result.
type KV struct {
	Key string
	Val []byte
}

// scanIndexState is the store's runtime scan-index bookkeeping. Slots are
// assigned to keys on first Put and stay stable for the key's lifetime;
// updates and deletes leave stale member bits behind (the bitmaps only
// ever program 1→0), which surface as false-positive candidates that the
// exact re-check on the fetched record filters out.
type scanIndexState struct {
	spec     IndexSpec
	ix       *isc.Index
	slotOf   map[string]int
	slotKey  []string
	disabled bool // capacity overflow or maintenance failure: host scans only
	dev      isc.Device
	flag     int  // device address of the index header's diverged flag
	diverged bool // the flag is programmed
}

// layoutScanIndex carves the bitmap region (below the checkpoint slots,
// when both are configured), builds the index, and builds the store's
// data-page table: every page below the carved regions, then the index's
// padding pages, which no bitmap uses and the log takes back. Runs at
// mount, after layoutCheckpoint.
func (s *Store) layoutScanIndex() error {
	spare, err := s.carveScanIndex()
	if err != nil {
		return err
	}
	s.devPage = make([]int, s.np, s.np+len(spare))
	for p := range s.devPage {
		s.devPage[p] = p
	}
	s.devPage = append(s.devPage, spare...)
	s.np = len(s.devPage)
	return nil
}

// carveScanIndex reserves the bitmap region at the top of the data pages
// and builds the index over it, returning the region's padding pages.
func (s *Store) carveScanIndex() ([]int, error) {
	si := s.scanIdx
	if si == nil {
		return nil, nil
	}
	ifb, ok := s.b.(InFlashBackend)
	if !ok {
		si.disabled = true // backend cannot sense; Scan uses the host path
		return nil, nil
	}
	if si.spec.MaxKeys <= 0 {
		return nil, fmt.Errorf("kvs: scan index needs MaxKeys > 0, got %d", si.spec.MaxKeys)
	}
	cfg := isc.IndexConfig{
		PageSize:      s.ps,
		Banks:         ifb.Banks(),
		MaxSensePages: ifb.MaxSensePages(),
		Slots:         si.spec.MaxKeys,
	}
	for _, f := range si.spec.Fields {
		cfg.Fields = append(cfg.Fields, isc.Field{Name: f.Name, Buckets: f.Buckets})
	}
	reserve := cfg.Pages()
	if s.np-reserve < 3 {
		return nil, fmt.Errorf("kvs: scan index region (%d of %d pages) leaves too little data space", reserve, s.np)
	}
	s.np -= reserve
	cfg.FirstPage = s.np
	ix, err := isc.NewIndex(ifb, cfg)
	if err != nil {
		return nil, err
	}
	si.ix = ix
	si.dev, si.flag = ifb, ix.DivergedFlag()
	si.slotOf = make(map[string]int)
	return ix.SparePages(), nil
}

// mountScanIndex reattaches the bitmaps at mount. Slots are derived the
// same way on every mount, in sorted live-key order, and every live record
// is re-added; an Add is idempotent and erase-free, so the re-add restores
// the bits of a Put cut before it indexed and finishes a torn bitmap
// program. The bitmaps a previous mount left are kept unless the region
// header is missing, was sealed under another configuration, or carries
// the diverged flag (noteScanOrder): then the region is erased first and
// the header sealed last. A kept index may carry bits of slots that now
// hold other keys; like stale bits they only add false positives, which
// Scan's exact re-check filters.
func (s *Store) mountScanIndex() error {
	si := s.scanIdx
	if si == nil || si.ix == nil || si.disabled {
		return nil
	}
	res, err := si.ix.Load()
	if err != nil {
		return err
	}
	switch res {
	case isc.Loaded:
		s.stats.ScanIndexKept++
	case isc.NoHeader:
		s.stats.ScanRebuildsNoHeader++
	case isc.ConfigChanged:
		s.stats.ScanRebuildsConfig++
	case isc.SlotsDiverged:
		s.stats.ScanRebuildsDiverged++
	}
	if res != isc.Loaded {
		if err := si.ix.Reset(); err != nil {
			return err
		}
	}
	si.slotOf = make(map[string]int)
	si.slotKey = si.slotKey[:0]
	for _, key := range s.Keys() {
		val, err := s.Get(key)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				continue // unreadable record: it cannot match a scan either
			}
			return err
		}
		s.noteScanPut(key, val)
	}
	if res != isc.Loaded && !si.disabled {
		if err := si.ix.Seal(); err != nil {
			si.disabled = true
			s.stats.ScanIndexDisabled++
		}
	}
	return nil
}

// noteScanOrder runs before the append of a Put or a Delete. A delete of a
// slotted key, or a new key that sorts before the last slotted one, makes
// the slots the next mount derives differ from the ones the bits sit at;
// the header's diverged flag, programmed before the append lands, makes
// that mount rebuild the index rather than keep it.
func (s *Store) noteScanOrder(key string, del bool) {
	si := s.scanIdx
	if si == nil || si.ix == nil || si.diverged {
		return
	}
	_, slotted := si.slotOf[key]
	if del != slotted {
		return // an update of a slotted key, or a delete of an unslotted one
	}
	if !del && (len(si.slotKey) == 0 || key > si.slotKey[len(si.slotKey)-1]) {
		return // a new key that sorts last keeps the order
	}
	si.diverged = true
	if err := si.dev.ProgramByte(si.flag, 0); err != nil && !si.disabled {
		si.disabled = true
		s.stats.ScanIndexDisabled++
	}
}

// noteScanPut indexes a committed record. Failures degrade, never corrupt:
// running out of slots or a program error disables the index, and scans
// fall back to the exact host path — a disabled index can only cost reads,
// not results.
func (s *Store) noteScanPut(key string, val []byte) {
	si := s.scanIdx
	if si == nil || si.ix == nil || si.disabled {
		return
	}
	slot, ok := si.slotOf[key]
	if !ok {
		if len(si.slotKey) >= si.ix.Slots() {
			si.disabled = true
			s.stats.ScanIndexDisabled++
			return
		}
		slot = len(si.slotKey)
		si.slotOf[key] = slot
		si.slotKey = append(si.slotKey, key)
	}
	for _, f := range si.spec.Fields {
		b := f.Extract(key, val)
		if b < 0 || b >= f.Buckets {
			continue
		}
		if err := si.ix.Add(slot, f.Name, b); err != nil {
			si.disabled = true
			s.stats.ScanIndexDisabled++
			return
		}
	}
}

// bucketsOf returns the Eval callback for one record.
func (si *scanIndexState) bucketsOf(key string, val []byte) func(string) int {
	return func(field string) int {
		for _, f := range si.spec.Fields {
			if f.Name == field {
				return f.Extract(key, val)
			}
		}
		return -1
	}
}

// Scan returns the records matching the predicate, sorted by key. With a
// live scan index the predicate is evaluated inside the flash array —
// bitmap senses, never bitmap reads — and only candidate records are
// fetched; each candidate is re-checked exactly on its bytes, so stale
// index bits (from updates and deletes) can add reads but never wrong
// results. Without an index (none configured, backend can't sense, or the
// index degraded), and for a predicate that names a field the index lacks
// or a bucket outside a field's range, the host path scans every record.
func (s *Store) Scan(p isc.Pred) ([]KV, error) {
	si := s.scanIdx
	if si == nil || si.ix == nil || si.disabled || si.ix.CheckPred(p) != nil {
		s.stats.ScanFallbacks++
		return s.ScanHost(p)
	}
	s.stats.Scans++
	// Plan the positive rewrite: index bits are a superset of the truth
	// (updates and deletes leave stale members), which only stays a
	// superset — recoverable by the re-check below — if no plan node
	// complements a bitmap. Not(Eq) becomes an In over the other buckets.
	plan := isc.Positive(p, func(field string) int {
		for _, f := range si.spec.Fields {
			if f.Name == field {
				return f.Buckets
			}
		}
		return 0
	})
	bm := make([]byte, si.ix.BitmapBytes())
	if err := si.ix.Query(plan, bm); err != nil {
		return nil, err
	}
	var out []KV
	for slot, key := range si.slotKey {
		if bm[slot/8]&(1<<(slot%8)) == 0 {
			continue
		}
		loc, ok := s.index[key]
		if !ok || loc.dead {
			continue // deleted since its bits were programmed
		}
		s.stats.ScanCandidates++
		val, err := s.Get(key)
		if err != nil {
			return nil, err
		}
		if !isc.Eval(p, si.bucketsOf(key, val)) {
			s.stats.ScanFalsePositives++
			continue // stale bit from an updated record
		}
		out = append(out, KV{Key: key, Val: val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ScanHost evaluates the predicate by reading every live record — the
// read-everything-to-host baseline Scan is measured against, and its
// exact-semantics oracle.
func (s *Store) ScanHost(p isc.Pred) ([]KV, error) {
	var out []KV
	for _, key := range s.Keys() {
		val, err := s.Get(key)
		if err != nil {
			return nil, err
		}
		of := func(field string) int {
			if s.scanIdx != nil {
				return s.scanIdx.bucketsOf(key, val)(field)
			}
			return -1
		}
		if isc.Eval(p, of) {
			out = append(out, KV{Key: key, Val: val})
		}
	}
	return out, nil
}

// ScanIndexed reports whether scans are currently served by the in-flash
// index.
func (s *Store) ScanIndexed() bool {
	return s.scanIdx != nil && s.scanIdx.ix != nil && !s.scanIdx.disabled
}
