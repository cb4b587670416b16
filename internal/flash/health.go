package flash

import (
	"errors"
	"fmt"
	"math/bits"
)

// Page-health tracking. The wear counters and the worn-out flag of device.go
// tell a controller when a page *died*; this file adds what endurance
// management needs to act *before* that: which cells have silently drifted
// to 0 since the last erase (the ground truth behind read-back verify, the
// FTL's spare copy and the scrubber's census), and which pages have been
// administratively retired onto a spare.
//
// The drift mask of page p records exactly the 1→0 flips that faults — the
// endurance stuck-at-0 model, FaultStuckBits, FaultReadDisturb — inflicted
// on cells that legitimately held 1. It is maintained so that
// data | mask reconstructs the last intended image:
//
//   - an erase clears the mask (every cell is back at 1);
//   - a fault flip of a legitimate 1 sets the mask bit;
//   - a program (or skip) of value v clears mask bits where v is 0: once
//     the caller *intends* a 0 there, restoring a 1 would corrupt.
//
// Programs can never conflict with the mask in the other direction: a stuck
// cell reads 0, so the reachability check already forces any subsequent
// program of that byte to keep the bit at 0.

// ErrPageRetired is returned by programs and erases that target a page the
// management layer has retired. Retired pages stay readable (the remap copy
// may still be in flight) but accept no further state changes.
var ErrPageRetired = errors.New("flash: page has been retired")

// recordDrift marks the given bits of the byte at (page p, offset off) as
// fault-flipped. Called with page p's bank lock held; flipped must contain
// only bits that actually transitioned 1→0.
func (d *Device) recordDrift(p, off int, flipped byte) {
	if flipped == 0 {
		return
	}
	if d.drift[p] == nil {
		d.drift[p] = make([]byte, d.spec.PageSize)
	}
	d.drift[p][off] |= flipped
}

// clearDrift forgets page p's drift mask (after an erase). Called with the
// bank lock held.
func (d *Device) clearDrift(p int) {
	if d.drift[p] != nil {
		d.drift[p] = nil
	}
}

// StuckMaskInto copies page p's drift mask into dst (one page long) and
// returns the number of stuck cells. A page with no recorded drift zeroes
// dst. The mask is ground truth from the fault model: data | mask is the
// last intended image of the page.
func (d *Device) StuckMaskInto(p int, dst []byte) (int, error) {
	if err := d.checkPage(p); err != nil {
		return 0, err
	}
	if len(dst) != d.spec.PageSize {
		return 0, fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(dst), d.spec.PageSize)
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if d.drift[p] == nil {
		for i := range dst {
			dst[i] = 0
		}
		return 0, nil
	}
	copy(dst, d.drift[p])
	return popcount(d.drift[p]), nil
}

func popcount(mask []byte) int {
	n := 0
	for _, b := range mask {
		n += bits.OnesCount8(b)
	}
	return n
}

// Retire marks page p retired: reads continue to work, programs and erases
// fail with ErrPageRetired, and an OpRetire event is emitted on the op bus.
// Retiring an already-retired page is a no-op.
func (d *Device) Retire(p int) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if d.retired[p] {
		return nil
	}
	d.retired[p] = true
	d.emit(OpEvent{Kind: OpRetire, Bank: b, Addr: p, Bytes: d.spec.PageSize})
	return nil
}

// Retired reports whether page p has been retired.
func (d *Device) Retired(p int) bool {
	if p < 0 || p >= len(d.retired) {
		return false
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.retired[p]
}

// Degraded reports whether page p should no longer hold exact data: it has
// worn out (erases leave cells stuck) or been retired.
func (d *Device) Degraded(p int) bool {
	if p < 0 || p >= len(d.dead) {
		return false
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.dead[p] || d.retired[p]
}

// WearSnapshot returns a consistent copy of every page's erase count (see
// WearInto).
func (d *Device) WearSnapshot() []uint32 {
	out := make([]uint32, len(d.wear))
	d.WearInto(out)
	return out
}

// WearInto copies the erase count of every page p < min(len(dst),
// NumPages) into dst[p], leaving the rest of dst untouched. Each bank's
// pages are copied under one acquisition of that bank's lock, so the copy
// is internally consistent per bank — unlike a loop over Wear(p), which
// re-acquires the lock per page and can interleave with writers.
func (d *Device) WearInto(dst []uint32) {
	n := min(len(dst), len(d.wear))
	nb := len(d.banks)
	for b := 0; b < nb; b++ {
		bk := &d.banks[b]
		bk.mu.Lock()
		for p := b; p < n; p += nb {
			dst[p] = d.wear[p]
		}
		bk.mu.Unlock()
	}
}
