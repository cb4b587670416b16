package isc

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// PlaneConfig describes a PlaneStore: device geometry, the carved page
// region, the sample capacity and the sample width in bits.
type PlaneConfig struct {
	PageSize      int
	Banks         int
	MaxSensePages int

	FirstPage int
	Slots     int // samples the store holds
	Width     int // bits per sample (1..16)
}

// Pages returns the region size in flash pages (Width bit-plane bitmaps).
func (c PlaneConfig) Pages() int {
	lay := newBitmapLayout(c.Slots, c.PageSize, c.Banks, c.FirstPage)
	return lay.requiredPages(c.Width)
}

// Validate rejects malformed configurations.
func (c PlaneConfig) Validate() error {
	if err := checkGeometry(c.PageSize, c.Banks, c.MaxSensePages, c.FirstPage, c.Slots); err != nil {
		return err
	}
	if c.Width < 1 || c.Width > 16 {
		return fmt.Errorf("%w: width %d (want 1..16)", ErrConfig, c.Width)
	}
	return nil
}

// PlaneStore holds W-bit samples bit-planar: plane j is a bitmap whose
// slot-th bit is bit j of sample slot. An erased region therefore reads as
// every sample at full scale (all bits 1), and — because flash programs
// only clear bits — an in-place update can only remove bits from a stored
// value. SetApprox embraces that FlipBit-style: it stores the nearest
// reachable value within an error budget instead of paying an erase, and
// the store tracks the worst error so searches can widen their window and
// never miss a sample (bounded-error approximate search).
//
// Searches are in-flash: equality is a single sense across all planes
// (reference inverted where the target bit is 0), and a range decomposes
// into at most 2·Width binary prefixes, each one sense.
type PlaneStore struct {
	cfg PlaneConfig
	r   *region

	vals     []int  // stored value per slot
	assigned []byte // bitmap: slot holds a sample (erased slots read full-scale)
	maxErr   int    // worst |intended - stored| accepted so far
}

// NewPlaneStore builds a store over a carved region; call Reset to
// (re)initialise the planes.
func NewPlaneStore(dev Device, cfg PlaneConfig) (*PlaneStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay := newBitmapLayout(cfg.Slots, cfg.PageSize, cfg.Banks, cfg.FirstPage)
	ps := &PlaneStore{
		cfg:      cfg,
		r:        newRegion(dev, lay, cfg.Width, cfg.MaxSensePages),
		vals:     make([]int, cfg.Slots),
		assigned: make([]byte, lay.bytes),
	}
	ps.resetSlots()
	return ps, nil
}

// resetSlots returns every slot to unassigned full scale, the value an
// erased region reads as.
func (ps *PlaneStore) resetSlots() {
	full := 1<<ps.cfg.Width - 1
	for i := range ps.vals {
		ps.vals[i] = full
	}
	for i := range ps.assigned {
		ps.assigned[i] = 0
	}
	ps.maxErr = 0
}

// BitmapBytes returns the length match result buffers must have.
func (ps *PlaneStore) BitmapBytes() int { return ps.r.bytes }

// MaxObservedError returns the worst |intended − stored| any SetApprox has
// accepted — the widening margin proximity searches use.
func (ps *PlaneStore) MaxObservedError() int { return ps.maxErr }

// Reset erases every plane page, unassigning every slot. Padding pages
// are left alone.
func (ps *PlaneStore) Reset() error {
	if err := ps.r.reset(-1); err != nil {
		return err
	}
	ps.resetSlots()
	return nil
}

// SetApprox stores the reachable value nearest to v. If even the best
// reachable value misses v by more than maxErr, nothing is written and
// ErrErrorBudget is returned. On success the stored value is returned and
// the store's observed-error bound is updated, keeping MatchNear exact
// with respect to intended values.
func (ps *PlaneStore) SetApprox(slot, v, maxErr int) (int, error) {
	if err := ps.checkSlotVal(slot, v); err != nil {
		return 0, err
	}
	if maxErr < 0 {
		return 0, fmt.Errorf("%w: negative error budget %d", ErrConfig, maxErr)
	}
	r := nearestSubset(ps.vals[slot], v, ps.cfg.Width)
	e := r - v
	if e < 0 {
		e = -e
	}
	if e > maxErr {
		return 0, fmt.Errorf("%w: nearest reachable %#x misses %#x by %d (budget %d)",
			ErrErrorBudget, r, v, e, maxErr)
	}
	if err := ps.program(slot, r); err != nil {
		return 0, err
	}
	if e > ps.maxErr {
		ps.maxErr = e
	}
	return r, nil
}

// nearestSubset returns the bitwise subset of cv closest to v (ties break
// low). Candidates are the greatest subset ≤ v, plus — for every cv bit
// position i where v is 0 and v's bits above i all lie in cv — the least
// subset > v obtained by setting bit i over v's prefix: enumerating those
// raise positions covers every minimal value above v, in O(width) instead
// of walking 2^popcount(cv) subsets.
func nearestSubset(cv, v, width int) int {
	// Greatest subset of cv that is ≤ v: match v's bits from the top while
	// the prefix is tight; the first position where v has a bit cv lacks
	// frees every lower cv bit.
	low, tight := 0, true
	for i := width - 1; i >= 0; i-- {
		bit := 1 << i
		switch {
		case !tight:
			low |= cv & bit
		case v&bit != 0 && cv&bit != 0:
			low |= bit
		case v&bit != 0: // v has the bit, cv cannot supply it: fall below
			tight = false
		}
	}
	best := low
	bestErr := v - low
	for i := 0; i < width; i++ {
		bit := 1 << i
		if cv&bit == 0 || v&bit != 0 {
			continue
		}
		above := -bit * 2 // mask of positions > i
		if v&above&^cv != 0 {
			continue // v's prefix above i is not representable
		}
		cand := v&above | bit
		if e := cand - v; e < bestErr {
			best, bestErr = cand, e
		}
	}
	return best
}

// program clears the plane bits taking the slot from its current value to
// v (a verified subset) and updates the slot's value.
func (ps *PlaneStore) program(slot, v int) error {
	for j := 0; j < ps.cfg.Width; j++ {
		if v&(1<<j) == 0 {
			if err := ps.r.clear(j, slot); err != nil {
				return err
			}
		}
	}
	ps.vals[slot] = v
	ps.assigned[slot/8] |= 1 << (slot % 8)
	return nil
}

func (ps *PlaneStore) checkSlotVal(slot, v int) error {
	if slot < 0 || slot >= ps.cfg.Slots {
		return fmt.Errorf("%w: slot %d of %d", ErrSlotRange, slot, ps.cfg.Slots)
	}
	if v < 0 || v >= 1<<ps.cfg.Width {
		return fmt.Errorf("%w: value %#x exceeds %d bits", ErrConfig, v, ps.cfg.Width)
	}
	return nil
}

// MatchRange writes the slots whose stored value lies in [lo, hi] into
// dst. The interval decomposes into at most 2·Width binary prefixes; each
// prefix is one multi-plane sense (reference inverted where the prefix bit
// is 0) and the prefix results are OR-ed host-side. Unassigned slots never
// match.
func (ps *PlaneStore) MatchRange(lo, hi int, dst []byte) error {
	if len(dst) != ps.r.bytes {
		return fmt.Errorf("%w: got %d, want %d", ErrBitmapSize, len(dst), ps.r.bytes)
	}
	full := 1<<ps.cfg.Width - 1
	if lo < 0 {
		lo = 0
	}
	if hi > full {
		hi = full
	}
	for i := range dst {
		dst[i] = 0
	}
	if lo > hi {
		return nil
	}
	acc := ps.r.getBuf()
	buf := ps.r.getBuf()
	defer ps.r.putBuf(acc)
	defer ps.r.putBuf(buf)
	for c := 0; c < ps.r.chunkPages; c++ {
		for i := range acc {
			acc[i] = 0
		}
		for l, h := lo, hi; l <= h; {
			// Widest aligned block at l that fits in [l, h].
			free := 0
			for free < ps.cfg.Width && l&(1<<(free+1)-1) == 0 && l+1<<(free+1)-1 <= h {
				free++
			}
			if err := ps.sensePrefix(l, free, c, buf); err != nil {
				return err
			}
			for i := range acc {
				acc[i] |= buf[i]
			}
			l += 1 << free
			if l == 0 {
				break
			}
		}
		n := ps.r.chunkLen(c)
		base := c * ps.cfg.PageSize
		for i := 0; i < n; i++ {
			dst[base+i] = acc[i] & ps.assigned[base+i]
		}
	}
	maskTail(dst, ps.cfg.Slots)
	return nil
}

// MatchNear writes the slots whose INTENDED value was within tol of v: the
// stored window widens by the observed SetApprox error bound, so a sample
// written as u with |u − v| ≤ tol can never be missed, whatever the store
// clamped it to (no false negatives; the extra width only adds false
// positives the caller can re-check).
func (ps *PlaneStore) MatchNear(v, tol int, dst []byte) error {
	if tol < 0 {
		return fmt.Errorf("%w: negative tolerance %d", ErrConfig, tol)
	}
	return ps.MatchRange(v-tol-ps.maxErr, v+tol+ps.maxErr, dst)
}

// sensePrefix senses the slots whose top Width−free bits equal those of
// prefix: one SenseAND per batch over the fixed planes, inverted where the
// prefix bit is 0. A fully free prefix matches everything.
func (ps *PlaneStore) sensePrefix(prefix, free, c int, out []byte) error {
	f := ps.r.fold(flash.SenseAND, out)
	for j := free; j < ps.cfg.Width; j++ {
		if err := f.sense(ps.r.page(j, c), prefix&(1<<j) == 0); err != nil {
			return err
		}
	}
	return f.flush()
}
