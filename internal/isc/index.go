package isc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Field names one indexed attribute and how many buckets its values hash
// or quantise into. Every (field, bucket) pair owns one membership bitmap.
type Field struct {
	Name    string
	Buckets int
}

// IndexConfig describes an Index: device geometry, the page region the
// bitmaps live in, the slot capacity and the indexed fields.
type IndexConfig struct {
	PageSize      int // device page size in bytes
	Banks         int // device bank count (pages interleave p % Banks)
	MaxSensePages int // device limit on wordlines per simultaneous sense

	FirstPage int // first page of the bitmap region
	Slots     int // record slots each bitmap covers
	Fields    []Field
}

// totalBuckets sums the bucket counts across fields.
func (c IndexConfig) totalBuckets() int {
	n := 0
	for _, f := range c.Fields {
		n += f.Buckets
	}
	return n
}

// Pages returns how many flash pages the index region occupies, so callers
// can carve the region before constructing the index: the bitmaps' pages,
// plus one for the header when it has no room in a bitmap page.
func (c IndexConfig) Pages() int {
	lay := newBitmapLayout(c.Slots, c.PageSize, c.Banks, c.FirstPage)
	n := lay.requiredPages(c.totalBuckets())
	if _, _, own := headerAt(lay, c.totalBuckets()); own {
		n++
	}
	return n
}

// digest fingerprints every field of the configuration (FNV-1a), so a
// header sealed under one configuration never vouches for another.
func (c IndexConfig) digest() uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%d/%d/%d/%d", c.PageSize, c.Banks, c.MaxSensePages, c.FirstPage, c.Slots)
	for _, f := range c.Fields {
		fmt.Fprintf(h, "|%q:%d", f.Name, f.Buckets)
	}
	return h.Sum32()
}

// The region header tells a remount whether the bitmaps in the array are
// this index's: a flag byte, the config digest (little-endian) and a magic
// byte, programmed last so a cut seal leaves no header.
const (
	hdrFlag     = 0 // 0xFF until the owner programs it (DivergedFlag)
	hdrDigest   = 1
	hdrMagic    = 5
	headerLen   = 6
	headerMagic = 0xB5
)

// headerAt locates the header of an index with n bitmaps: in the unused
// tail of bitmap 0's last chunk when headerLen bytes fit there, so a Reset
// erases it with a page it erases anyway; else on a page of its own (own)
// just past the bitmaps.
func headerAt(l bitmapLayout, n int) (page, off int, own bool) {
	last := l.chunkPages - 1
	if used := l.chunkLen(last); l.pageSize-used >= headerLen {
		return l.page(0, last), used, false
	}
	return l.firstPage + l.requiredPages(n), 0, true
}

// Validate rejects malformed configurations.
func (c IndexConfig) Validate() error {
	if err := checkGeometry(c.PageSize, c.Banks, c.MaxSensePages, c.FirstPage, c.Slots); err != nil {
		return err
	}
	if len(c.Fields) == 0 {
		return fmt.Errorf("%w: no fields", ErrConfig)
	}
	seen := map[string]bool{}
	for _, f := range c.Fields {
		switch {
		case f.Name == "":
			return fmt.Errorf("%w: empty field name", ErrConfig)
		case f.Buckets <= 0:
			return fmt.Errorf("%w: field %q has %d buckets", ErrConfig, f.Name, f.Buckets)
		case seen[f.Name]:
			return fmt.Errorf("%w: duplicate field %q", ErrConfig, f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// Index is a set of per-bucket membership bitmaps over record slots,
// stored inverted (0 = member) so additions are erase-free programs and
// membership is read with an inverted sense. Queries are predicate trees
// lowered onto batched multi-page senses; the host never reads a bitmap
// page on the in-flash path.
type Index struct {
	cfg    IndexConfig
	r      *region
	fields map[string]fieldRange
	hdr    int // device address of the region header
}

// fieldRange locates one field's bitmaps: buckets consecutive bitmaps
// starting at off.
type fieldRange struct{ off, buckets int }

// NewIndex builds the controller state of an index over a carved region
// and touches no page. Before any Add, either Load to keep the bitmaps a
// previous index sealed there, or Reset to start empty and Seal once the
// bitmaps are rebuilt.
func NewIndex(dev Device, cfg IndexConfig) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		cfg:    cfg,
		fields: map[string]fieldRange{},
	}
	off := 0
	for _, f := range cfg.Fields {
		ix.fields[f.Name] = fieldRange{off, f.Buckets}
		off += f.Buckets
	}
	lay := newBitmapLayout(cfg.Slots, cfg.PageSize, cfg.Banks, cfg.FirstPage)
	ix.r = newRegion(dev, lay, off, cfg.MaxSensePages)
	page, hoff, _ := headerAt(lay, off)
	ix.hdr = page*cfg.PageSize + hoff
	return ix, nil
}

// BitmapBytes returns the length Query result buffers must have.
func (ix *Index) BitmapBytes() int { return ix.r.bytes }

// Slots returns the slot capacity.
func (ix *Index) Slots() int { return ix.cfg.Slots }

// SparePages lists the region's padding pages, in address order: pages
// that round each bitmap's stride up to the bank count and that no bitmap
// ever programs, senses or erases. The region's owner may use them.
func (ix *Index) SparePages() []int {
	var spare []int
	// The callback never fails, so neither can the walk.
	_ = ix.r.walk(ix.r.n, func(p int, used bool) error {
		if !used {
			spare = append(spare, p)
		}
		return nil
	})
	return spare
}

// Reset erases every bitmap page, emptying every bucket, and the header's
// page first: a reset cut after that erase leaves no header. Padding
// pages are left alone.
func (ix *Index) Reset() error {
	hp := ix.hdr / ix.cfg.PageSize
	if err := ix.r.dev.ErasePage(hp); err != nil {
		return err
	}
	return ix.r.reset(hp)
}

// LoadResult is Load's verdict on the bitmaps a previous index left.
type LoadResult uint8

// Load verdicts: only Loaded keeps the bitmaps.
const (
	Loaded        LoadResult = iota // header valid: the mirror holds the array's bitmaps
	NoHeader                        // never sealed, or a reset or seal was cut
	ConfigChanged                   // sealed under another IndexConfig
	SlotsDiverged                   // the flag at DivergedFlag was programmed since the seal
)

// Load reattaches to the bitmaps a previous index sealed in the region. It
// senses the header page and, when the header is valid, reloads the mirror
// from the array with one single-page sense per bitmap page, so later Adds
// stay erase-free programs whatever the array holds: bits of a torn
// program, or bits no Add made. Any other verdict leaves the mirror
// unspecified; Reset before the next Add.
func (ix *Index) Load() (LoadResult, error) {
	buf := ix.r.getBuf()
	defer ix.r.putBuf(buf)
	if err := ix.r.senseInto(ix.hdr/ix.cfg.PageSize, buf); err != nil {
		return 0, err
	}
	h := buf[ix.hdr%ix.cfg.PageSize:][:headerLen]
	switch {
	case h[hdrMagic] != headerMagic:
		return NoHeader, nil
	case binary.LittleEndian.Uint32(h[hdrDigest:]) != ix.cfg.digest():
		return ConfigChanged, nil
	case h[hdrFlag] != 0xFF:
		return SlotsDiverged, nil
	}
	return Loaded, ix.r.load()
}

// Seal programs the header for this configuration with the diverged flag
// clear, magic byte last. Call it after a Reset and the Adds that rebuild
// the bitmaps: until it lands, Load reports NoHeader.
func (ix *Index) Seal() error {
	var h [headerLen]byte
	binary.LittleEndian.PutUint32(h[hdrDigest:], ix.cfg.digest())
	h[hdrMagic] = headerMagic
	for i := hdrDigest; i < headerLen; i++ {
		if err := ix.r.dev.ProgramByte(ix.hdr+i, h[i]); err != nil {
			return err
		}
	}
	return nil
}

// DivergedFlag returns the device address of the header's flag byte.
// Programming it to 0 makes the next Load report SlotsDiverged: the owner
// does so before a change that makes the slots a remount would assign
// differ from the ones its bits sit at.
func (ix *Index) DivergedFlag() int { return ix.hdr + hdrFlag }

// globalBucket resolves (field, bucket) to a bitmap number.
func (ix *Index) globalBucket(field string, bucket int) (int, error) {
	f, ok := ix.fields[field]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownField, field)
	}
	if bucket < 0 || bucket >= f.buckets {
		return 0, fmt.Errorf("%w: %q bucket %d of %d", ErrBucketRange, field, bucket, f.buckets)
	}
	return f.off + bucket, nil
}

// Add marks slot as a member of (field, bucket) by programming its bit to
// 0 — always erase-free, and idempotent (re-adding is a no-op). Stale
// members from updated or deleted records are expected; they surface as
// false positives the caller filters with Eval on the fetched record.
func (ix *Index) Add(slot int, field string, bucket int) error {
	if slot < 0 || slot >= ix.cfg.Slots {
		return fmt.Errorf("%w: slot %d of %d", ErrSlotRange, slot, ix.cfg.Slots)
	}
	g, err := ix.globalBucket(field, bucket)
	if err != nil {
		return err
	}
	return ix.r.clear(g, slot)
}

// Query evaluates the predicate entirely in flash and writes the matching
// slots into dst (1 = match, conventional polarity, length BitmapBytes).
// The device is charged one sense per leaf batch — never a page read.
func (ix *Index) Query(p Pred, dst []byte) error {
	if len(dst) != ix.r.bytes {
		return fmt.Errorf("%w: got %d, want %d", ErrBitmapSize, len(dst), ix.r.bytes)
	}
	if err := ix.CheckPred(p); err != nil {
		return err
	}
	buf := ix.r.getBuf()
	defer ix.r.putBuf(buf)
	for c := 0; c < ix.r.chunkPages; c++ {
		if err := ix.evalFlash(p, c, buf); err != nil {
			return err
		}
		copy(dst[c*ix.cfg.PageSize:], buf[:ix.r.chunkLen(c)])
	}
	maskTail(dst, ix.cfg.Slots)
	return nil
}

// CheckPred validates every leaf against the schema: an unknown field
// fails with ErrUnknownField, a bucket outside the field's range with
// ErrBucketRange. Query runs it up front, so plans never fail
// half-evaluated.
func (ix *Index) CheckPred(p Pred) error {
	var err error
	walk(p, func(n Pred) {
		if eq, ok := n.(predEq); ok && err == nil {
			_, err = ix.globalBucket(eq.field, eq.bucket)
		}
	})
	return err
}

// evalFlash computes the membership bitmap of p for chunk c into out (one
// page), using in-flash senses only.
//
// The lowering rests on the inverted storage: for a leaf with stored page
// P, membership is M = ¬P, so AND(M₁..Mₖ) = SenseAND over the pages with
// every reference inverted, and OR(M₁..Mₖ) = SenseOR likewise — one sense
// for up to MaxSensePages leaves. A negated leaf is the stored page itself
// (¬M = P), so it joins the same batch with its invert flag cleared.
// Non-leaf children are evaluated recursively and folded host-side.
func (ix *Index) evalFlash(p Pred, c int, out []byte) error {
	if page, inv, ok := ix.leafPage(p, c); ok {
		f := ix.r.fold(flash.SenseAND, out)
		if err := f.sense(page, inv); err != nil {
			return err
		}
		return f.flush()
	}
	switch n := p.(type) {
	case predNot:
		if err := ix.evalFlash(n.kid, c, out); err != nil {
			return err
		}
		for i := range out {
			out[i] = ^out[i]
		}
		return nil
	case predAnd:
		return ix.evalGroup(flash.SenseAND, n.kids, c, out)
	case predOr:
		return ix.evalGroup(flash.SenseOR, n.kids, c, out)
	}
	return fmt.Errorf("isc: unknown predicate node %T", p)
}

// evalGroup lowers one And/Or node: leaves are batched into senses of up
// to MaxSensePages pages, then subtrees recurse, and every part folds into
// out with the node's operator.
func (ix *Index) evalGroup(op flash.SenseOp, kids []Pred, c int, out []byte) error {
	f := ix.r.fold(op, out)
	var sub []Pred
	for _, k := range kids {
		page, inv, leaf := ix.leafPage(k, c)
		if !leaf {
			sub = append(sub, k)
			continue
		}
		if err := f.sense(page, inv); err != nil {
			return err
		}
	}
	if err := f.flush(); err != nil {
		return err
	}
	for _, k := range sub {
		buf := ix.r.getBuf()
		err := ix.evalFlash(k, c, buf)
		if err == nil {
			f.part(buf)
		}
		ix.r.putBuf(buf)
		if err != nil {
			return err
		}
	}
	return nil
}

// leafPage reports whether k lowers to a single sensed page in chunk c:
// an equality leaf (inverted reference) or its negation (plain reference).
func (ix *Index) leafPage(k Pred, c int) (page int, invert, ok bool) {
	switch n := k.(type) {
	case predEq:
		g, _ := ix.globalBucket(n.field, n.bucket)
		return ix.r.page(g, c), true, true
	case predNot:
		if eq, isEq := n.kid.(predEq); isEq {
			g, _ := ix.globalBucket(eq.field, eq.bucket)
			return ix.r.page(g, c), false, true
		}
	}
	return 0, false, false
}
