// Package isc implements in-storage compute over the flash simulator: bulk
// bitwise queries evaluated inside the array with multi-wordline senses
// (flash.SenseMulti) instead of streaming pages to the host.
//
// Two structures are provided:
//
//   - Index: per-field bucket bitmaps over record slots, queried with an
//     AND/OR/NOT predicate tree (Pred). Bitmaps are stored INVERTED — a bit
//     programmed to 0 means "slot is a member" — so index maintenance is
//     always an erase-free 1→0 program, and membership falls out of a sense
//     with the reference inverted (¬stored).
//
//   - PlaneStore: a bit-planar array of W-bit samples (plane j holds bit j
//     of every sample), searched by range or proximity with one
//     sense per prefix term. Writes follow FlipBit semantics: an update may
//     only clear stored bits, so SetApprox clamps to the nearest reachable
//     value and searches widen by the observed error bound — approximate
//     storage with no false negatives.
//
// Both lay their bitmaps out so that chunk c of every bitmap lands in the
// same bank (strides are rounded up to a multiple of the bank count), which
// is exactly the same-bank rule SenseMulti enforces.
package isc

import (
	"errors"
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Device is the slice of the flash simulator in-storage compute needs.
// *flash.Device satisfies it directly; the kvs backend adapts to it so the
// index can ride on a core device.
type Device interface {
	// SenseMulti computes the bitwise op-combination of same-bank pages in
	// one array operation (charged once per sense, not per page).
	SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error
	// Read is a plain host read (per-byte charge), used by the host-side
	// oracle baselines.
	Read(addr int, dst []byte) error
	// ProgramByte clears bits of one byte (1 → 0 only).
	ProgramByte(addr int, v byte) error
	// ErasePage resets a page to all-ones.
	ErasePage(p int) error
}

// Shared errors.
var (
	ErrConfig       = errors.New("isc: invalid configuration")
	ErrUnknownField = errors.New("isc: predicate references an unknown field")
	ErrBucketRange  = errors.New("isc: bucket out of range for field")
	ErrSlotRange    = errors.New("isc: slot out of range")
	ErrErrorBudget  = errors.New("isc: nearest reachable value exceeds the error budget")
	ErrBitmapSize   = errors.New("isc: bitmap buffer length must equal BitmapBytes")
)

// bitmapLayout is the geometry shared by Index and PlaneStore: each bitmap
// (one bucket, or one bit plane) covers Slots bits split into page-sized
// chunks, and consecutive bitmaps are spaced stride pages apart with stride
// a multiple of the bank count, so chunk c of every bitmap sits in the same
// bank and can participate in one SenseMulti.
type bitmapLayout struct {
	pageSize   int
	firstPage  int
	bytes      int // bytes per bitmap: ceil(slots/8)
	chunkPages int // pages per bitmap: ceil(bytes/pageSize)
	stride     int // pages between consecutive bitmaps (chunkPages rounded up to banks)
}

func newBitmapLayout(slots, pageSize, banks, firstPage int) bitmapLayout {
	bytes := (slots + 7) / 8
	chunkPages := (bytes + pageSize - 1) / pageSize
	stride := (chunkPages + banks - 1) / banks * banks
	return bitmapLayout{
		pageSize:   pageSize,
		firstPage:  firstPage,
		bytes:      bytes,
		chunkPages: chunkPages,
		stride:     stride,
	}
}

// page returns the flash page holding chunk c of bitmap b.
func (l bitmapLayout) page(b, c int) int { return l.firstPage + b*l.stride + c }

// chunkLen returns how many bytes of chunk c carry bitmap payload (the last
// chunk of a bitmap is usually partial).
func (l bitmapLayout) chunkLen(c int) int {
	n := l.bytes - c*l.pageSize
	if n > l.pageSize {
		n = l.pageSize
	}
	return n
}

// requiredPages returns the region size for n bitmaps.
func (l bitmapLayout) requiredPages(n int) int { return n * l.stride }

// walk calls fn for every page of an n-bitmap region in address order,
// reporting whether some bitmap occupies it (used) or it is padding that
// rounds a stride up to the bank count. No bitmap ever programs or senses
// a padding page.
func (l bitmapLayout) walk(n int, fn func(p int, used bool) error) error {
	for i := 0; i < l.requiredPages(n); i++ {
		if err := fn(l.firstPage+i, i%l.stride < l.chunkPages); err != nil {
			return err
		}
	}
	return nil
}

// eraseUsed erases the pages some of n bitmaps occupy, skipping padding.
func (l bitmapLayout) eraseUsed(dev Device, n int) error {
	return l.walk(n, func(p int, used bool) error {
		if !used {
			return nil
		}
		return dev.ErasePage(p)
	})
}

// maskTail clears the bits of dst beyond the slot count, so padding bits in
// the final byte can never masquerade as matches.
func maskTail(dst []byte, slots int) {
	if rem := slots % 8; rem != 0 {
		dst[len(dst)-1] &= byte(1<<rem) - 1
	}
}

// checkGeometry validates the fields every in-storage structure shares.
func checkGeometry(pageSize, banks, maxSense, firstPage, slots int) error {
	switch {
	case pageSize <= 0:
		return fmt.Errorf("%w: page size %d", ErrConfig, pageSize)
	case banks <= 0:
		return fmt.Errorf("%w: bank count %d", ErrConfig, banks)
	case maxSense <= 0:
		return fmt.Errorf("%w: max sense pages %d", ErrConfig, maxSense)
	case firstPage < 0:
		return fmt.Errorf("%w: first page %d", ErrConfig, firstPage)
	case slots <= 0:
		return fmt.Errorf("%w: slot count %d", ErrConfig, slots)
	}
	return nil
}
