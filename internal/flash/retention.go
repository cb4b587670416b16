package flash

import (
	"fmt"
	"time"
)

// Retention drift modelling. Programmed cells leak charge over time; a cell
// whose level has sagged to the read-threshold boundary is *marginal*: the
// array still holds its programmed 0, but a fast host read resolves it to 0
// or 1 essentially at random until a program pulse recharges it. This file
// tracks marginal cells in a per-page "rise mask" (the retention-drift dual
// of health.go's stuck-at-0 drift mask):
//
//   - AgeRetention (driven by accumulated device busy time between campaign
//     reboots) and FaultRetention (armed on reads) mark cells marginal;
//   - host-facing reads (Read, ReadByteAt) overlay flicker: each marginal
//     bit independently reads as 1 with probability 1/2, drawn from the
//     bank's seeded RNG so runs stay deterministic;
//   - controller reads (ReadPage) are margin-aware senses and never
//     flicker, so the read-modify-write commit path cannot bake noise back
//     into a page;
//   - a program pulse of a byte recharges it (clears its rise bits), an
//     erase clears the whole mask, and RefreshRetention recharges a page in
//     place at program cost without changing its contents.
//
// At most one cell per page is ever marginal at a time: real retention loss
// is a slow per-cell leak, and bounding the density keeps every record
// within reach of the single-bit repair the layers above already carry.

// recordRise marks the given bits of the byte at (page p, offset off) as
// marginal. Called with the page's bank lock held; the bits must currently
// be programmed (0) in the array.
func (d *Device) recordRise(p, off int, bits byte) {
	if bits == 0 {
		return
	}
	if d.rise[p] == nil {
		d.rise[p] = make([]byte, d.spec.PageSize)
	}
	d.rise[p][off] |= bits
}

// clearRise forgets page p's rise mask (after an erase). Called with the
// bank lock held.
func (d *Device) clearRise(p int) {
	if d.rise[p] != nil {
		d.rise[p] = nil
	}
}

// flickerInto overlays retention noise on a host read of page p: each
// marginal bit in the addressed range independently reads as 1 (its drifted
// value) with probability 1/2 from the bank's RNG. dst holds the bytes read
// starting at absolute address addr, which must lie within page p. Called
// with bank b's lock held.
func (d *Device) flickerInto(b, p, addr int, dst []byte) {
	m := d.rise[p]
	if m == nil {
		return
	}
	base := d.PageBase(p)
	rng := d.banks[b].rng
	for i := range dst {
		bits := m[addr-base+i]
		for bits != 0 {
			bit := bits & (-bits)
			bits &^= bit
			if rng.Intn(2) == 1 {
				dst[i] |= bit
			}
		}
	}
}

// markRetention makes one programmed cell of page p marginal, chosen by a
// bounded seeded probe for a 0 bit. Pages that already carry a marginal
// cell, or are retired, are left alone — the model caps retention density
// at one cell per page. Returns how many cells were marked (0 or 1).
// Called with bank b's lock held.
func (d *Device) markRetention(b, p int) int {
	if d.retired[p] {
		return 0
	}
	if m := d.rise[p]; m != nil && popcount(m) > 0 {
		return 0
	}
	base := d.PageBase(p)
	rng := d.banks[b].rng
	// A bounded probe keeps the draw count deterministic; a mostly-erased
	// page may simply dodge the leak this time. Cells in the drift mask are
	// excluded: a stuck-at-0 cell is dead, not marginal — it has no charge
	// left to sit at the read threshold — and letting it flicker would mask
	// the landing-zone prechecks that fence stuck cells off.
	for try := 0; try < 16; try++ {
		off := rng.Intn(d.spec.PageSize)
		bit := byte(1) << uint(rng.Intn(8))
		if d.array[base+off]&bit != 0 {
			continue
		}
		if m := d.drift[p]; m != nil && m[off]&bit != 0 {
			continue
		}
		d.recordRise(p, off, bit)
		return 1
	}
	return 0
}

// AgeRetention applies n cell-leak events to the device: candidate pages
// are drawn per bank round-robin from each bank's seeded RNG, and each
// event makes at most one programmed cell marginal (subject to the one-
// cell-per-page cap). It models time passing while the device is powered
// off, so the campaign engine calls it between reboot and remount, keyed
// to the busy time accumulated since the last aging step. Returns how many
// cells actually went marginal.
func (d *Device) AgeRetention(n int) int {
	marked := 0
	nb := len(d.banks)
	for i := 0; i < n; i++ {
		b := i % nb
		bk := &d.banks[b]
		bk.mu.Lock()
		perBank := (d.spec.NumPages - b + nb - 1) / nb
		if perBank > 0 {
			p := b + nb*bk.rng.Intn(perBank)
			marked += d.markRetention(b, p)
		}
		bk.mu.Unlock()
	}
	return marked
}

// RiseBits returns how many cells of page p are currently marginal.
func (d *Device) RiseBits(p int) int {
	if d.checkPage(p) != nil {
		return 0
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return popcount(d.rise[p])
}

// RiseMaskInto copies page p's rise mask into dst (one page long) and
// returns the number of marginal cells. A page with no marginal cells
// zeroes dst.
func (d *Device) RiseMaskInto(p int, dst []byte) (int, error) {
	if err := d.checkPage(p); err != nil {
		return 0, err
	}
	if len(dst) != d.spec.PageSize {
		return 0, fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(dst), d.spec.PageSize)
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if d.rise[p] == nil {
		for i := range dst {
			dst[i] = 0
		}
		return 0, nil
	}
	copy(dst, d.rise[p])
	return popcount(d.rise[p]), nil
}

// RefreshRetention recharges page p's marginal cells in place: each byte
// holding a marginal cell gets a program pulse back to its stored value
// (full program cost, no state change — the array already holds the
// intended image). Returns the number of bytes recharged. Refreshing a
// retired page is refused; refreshing a clean page is free.
func (d *Device) RefreshRetention(p int) (int, error) {
	if err := d.checkPage(p); err != nil {
		return 0, err
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if d.retired[p] {
		return 0, ErrPageRetired
	}
	m := d.rise[p]
	if m == nil {
		return 0, nil
	}
	base := d.PageBase(p)
	n := 0
	for i := range m {
		if m[i] == 0 {
			continue
		}
		m[i] = 0
		n++
		d.emit(OpEvent{
			Kind: OpProgram, Bank: b, Addr: base + i, Bytes: 1,
			Energy: d.spec.ProgramEnergy, Busy: d.spec.ProgramLatency,
		})
	}
	return n, nil
}

// ChargeWait charges a retry backoff interval to bank b's ledger: busy time
// passes (the controller is waiting out the part's recovery window) but no
// array operation happens and no energy beyond quiescent draw is modelled.
func (d *Device) ChargeWait(b int, dur time.Duration) {
	if b < 0 || b >= len(d.banks) || dur <= 0 {
		return
	}
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	d.emit(OpEvent{Kind: OpWait, Bank: b, Busy: dur})
}
