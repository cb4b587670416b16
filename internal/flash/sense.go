package flash

import (
	"errors"
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
)

// In-storage bulk bitwise compute. Flash-Cosmos and MCFlash show that a
// flash array can evaluate bulk bitwise AND/OR across stored rows by
// activating several wordlines simultaneously: with all selected cells on
// one bitline, the line conducts only if every cell conducts (AND), or if
// any cell conducts (OR, with an inverted reference). The simulator models
// that as SenseMulti: one array operation that reads a page-sized bitwise
// combination of up to Spec.MaxSensePages pages of a single bank, charged
// once per simultaneous sense — not once per participating page — which is
// the entire energy argument for computing filters in flash instead of
// hauling every page to the host.

// SenseOp selects the bitwise combination a multi-page sense computes.
type SenseOp uint8

// Supported sense combinations. NOT is expressed per input: a page sensed
// with its invert flag set contributes its bitwise complement (the sense
// amp's inverted reference), so AND/OR over optionally-inverted inputs
// covers the full monotone-with-negated-literals plan space.
const (
	SenseAND SenseOp = iota
	SenseOR
)

func (o SenseOp) String() string {
	if o == SenseOR {
		return "or"
	}
	return "and"
}

// DefaultMaxSensePages bounds simultaneous wordline activation when the
// spec leaves MaxSensePages zero. Flash-Cosmos demonstrates tens of rows;
// sixteen keeps the sense margin model honest.
const DefaultMaxSensePages = 16

// Sense errors.
var (
	// ErrSensePages is returned when the sensed page list is empty or
	// exceeds Spec.MaxSensePages.
	ErrSensePages = errors.New("flash: sense page count out of range")
	// ErrSenseBanks is returned when the sensed pages do not share a bank:
	// simultaneous wordline activation only works within one array plane.
	ErrSenseBanks = errors.New("flash: multi-page sense requires all pages in one bank")
	// ErrSenseInvert is returned when the invert mask length does not match
	// the page list.
	ErrSenseInvert = errors.New("flash: invert mask length must match the page list")
)

// SenseMulti computes the bitwise op-combination of the given pages into
// dst (exactly one page long). All pages must live in one bank; invert may
// be nil (no inputs inverted) or one flag per page, complementing that
// page's contribution. The operation charges Spec.SenseLatency/SenseEnergy
// per byte of the page once, regardless of how many pages participate, and
// emits a single OpSense event through the bank's event stream.
//
// Like ReadPage, SenseMulti is a controller-issued margin-aware sense:
// marginal retention cells resolve to their stored values rather than
// flickering, so an in-flash plan stays bit-identical to a host-side
// combination of the stored pages. Armed read-disturb and retention faults
// observe senses like reads and damage one of the sensed pages after the
// result is served.
func (d *Device) SenseMulti(op SenseOp, pages []int, invert []bool, dst []byte) error {
	if len(pages) == 0 || len(pages) > d.spec.MaxSensePages {
		return fmt.Errorf("%w: %d pages (1..%d)", ErrSensePages, len(pages), d.spec.MaxSensePages)
	}
	if invert != nil && len(invert) != len(pages) {
		return fmt.Errorf("%w: %d flags for %d pages", ErrSenseInvert, len(invert), len(pages))
	}
	if len(dst) != d.spec.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(dst), d.spec.PageSize)
	}
	for _, p := range pages {
		if err := d.checkPage(p); err != nil {
			return err
		}
	}
	b := d.BankOf(pages[0])
	for _, p := range pages {
		if d.BankOf(p) != b {
			return fmt.Errorf("%w: page %d in bank %d, page %d in bank %d",
				ErrSenseBanks, pages[0], b, p, d.BankOf(p))
		}
	}
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	fill := byte(0xFF) // AND identity
	if op == SenseOR {
		fill = 0x00
	}
	for i := range dst {
		dst[i] = fill
	}
	for j, p := range pages {
		base := d.PageBase(p)
		src := d.array[base : base+d.spec.PageSize]
		inv := invert != nil && invert[j]
		switch {
		case op == SenseAND && !inv:
			for i, v := range src {
				dst[i] &= v
			}
		case op == SenseAND && inv:
			for i, v := range src {
				dst[i] &= ^v
			}
		case op == SenseOR && !inv:
			for i, v := range src {
				dst[i] |= v
			}
		default:
			for i, v := range src {
				dst[i] |= ^v
			}
		}
	}
	d.emit(OpEvent{
		Kind: OpSense, Bank: b, Addr: d.PageBase(pages[0]),
		Bytes: d.spec.PageSize, Pages: len(pages),
		Energy: d.spec.SenseEnergy * energy.Energy(d.spec.PageSize),
		Busy:   d.spec.SenseLatency * time.Duration(d.spec.PageSize),
	})
	if f, fired := d.faultHit(OpSense); fired {
		// The fault lands on one of the activated wordlines, drawn from the
		// bank's RNG, after the result was served — exactly the post-serve
		// semantics reads have.
		d.readFault(b, pages[bk.rng.Intn(len(pages))], f)
	}
	return nil
}
