// Package isc implements in-storage compute over the flash simulator: bulk
// bitwise queries evaluated inside the array with multi-wordline senses
// (flash.SenseMulti) instead of streaming pages to the host.
//
// Index and PlaneStore keep bitmaps over record slots in a carved page
// region, and both are thin layers over one region: it lays chunk c of
// every bitmap in the same bank (strides are rounded up to a multiple of
// the bank count, exactly the same-bank rule SenseMulti enforces), keeps
// a RAM mirror of the bitmap pages, clears bits with erase-free 1→0
// programs, and batches senses of up to MaxSensePages pages.
//
//   - Index: per-field bucket bitmaps, queried with an AND/OR/NOT
//     predicate tree (Pred). Bitmaps are stored INVERTED — a bit
//     programmed to 0 means "slot is a member" — so index maintenance is
//     always an erase-free program, and membership falls out of a sense
//     with the reference inverted (¬stored).
//
//   - PlaneStore: a bit-planar array of W-bit samples (plane j holds bit j
//     of every sample), searched by range or proximity with one sense
//     batch per prefix term. Writes follow FlipBit semantics: an update
//     may only clear stored bits, so SetApprox clamps to the nearest
//     reachable value and searches widen by the observed error bound —
//     approximate storage with no false negatives.
package isc

import (
	"errors"
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Device is the slice of the flash simulator in-storage compute needs.
// *flash.Device satisfies it directly, and a kvs in-flash backend embeds
// it so the index can ride on a core device.
type Device interface {
	// SenseMulti computes the bitwise op-combination of same-bank pages in
	// one array operation (charged once per sense, not per page).
	SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error
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

// eraseUsed erases the pages some of n bitmaps occupy, skipping padding
// and page skip (one the caller has already erased; -1 for none).
func (l bitmapLayout) eraseUsed(dev Device, n, skip int) error {
	return l.walk(n, func(p int, used bool) error {
		if !used || p == skip {
			return nil
		}
		return dev.ErasePage(p)
	})
}

// region is the flash region an Index or a PlaneStore keeps its bitmaps
// in, and the controller state that drives it: one mirror of the bitmap
// pages, the one path that clears a bit, the one sense batcher, and the
// scratch pages queries fold in.
type region struct {
	bitmapLayout
	dev      Device
	n        int // bitmaps in the region
	maxSense int // pages per SenseMulti

	// mirror holds every bitmap page, chunk c of bitmap b at page slot
	// b·chunkPages + c, so a clear computes the post-program byte without
	// a read (controller RAM metadata, exactly like the page map an FTL
	// keeps). Padding pages hold no bitmap and are not mirrored.
	mirror []byte

	scratch [][]byte
	pages   []int  // the pending sense batch
	invert  []bool // its reference inversions
}

func newRegion(dev Device, lay bitmapLayout, n, maxSense int) *region {
	r := &region{
		bitmapLayout: lay,
		dev:          dev,
		n:            n,
		maxSense:     maxSense,
		mirror:       make([]byte, n*lay.chunkPages*lay.pageSize),
		pages:        make([]int, 0, maxSense),
		invert:       make([]bool, 0, maxSense),
	}
	r.fillMirror()
	return r
}

func (r *region) fillMirror() {
	for i := range r.mirror {
		r.mirror[i] = 0xFF
	}
}

// reset erases every bitmap page but skip (-1 for none), leaving the
// padding alone.
func (r *region) reset(skip int) error {
	if err := r.eraseUsed(r.dev, r.n, skip); err != nil {
		return err
	}
	r.fillMirror()
	return nil
}

// load senses every bitmap page into its mirror slot, one single-page
// sense each, so the mirror matches whatever the array holds.
func (r *region) load() error {
	for b := 0; b < r.n; b++ {
		for c := 0; c < r.chunkPages; c++ {
			m := (b*r.chunkPages + c) * r.pageSize
			if err := r.senseInto(r.page(b, c), r.mirror[m:m+r.pageSize]); err != nil {
				return err
			}
		}
	}
	return nil
}

// senseInto copies the stored content of page into dst (one page) with a
// single-page sense: the controller's margin-aware read, never a host one.
func (r *region) senseInto(page int, dst []byte) error {
	f := r.fold(flash.SenseAND, dst)
	if err := f.sense(page, false); err != nil {
		return err
	}
	return f.flush()
}

// clear programs bit slot of bitmap b to 0. A bit already 0 costs no
// program.
func (r *region) clear(b, slot int) error {
	byteIdx := slot / 8
	c, off := byteIdx/r.pageSize, byteIdx%r.pageSize
	m := (b*r.chunkPages+c)*r.pageSize + off
	nv := r.mirror[m] &^ (1 << (slot % 8))
	if nv == r.mirror[m] {
		return nil
	}
	if err := r.dev.ProgramByte(r.page(b, c)*r.pageSize+off, nv); err != nil {
		return err
	}
	r.mirror[m] = nv
	return nil
}

func (r *region) getBuf() []byte {
	if n := len(r.scratch); n > 0 {
		b := r.scratch[n-1]
		r.scratch = r.scratch[:n-1]
		return b
	}
	return make([]byte, r.pageSize)
}

func (r *region) putBuf(b []byte) { r.scratch = append(r.scratch, b) }

// fold accumulates one AND or OR into out, a page: the first part lands
// in out and each later one folds into it with op. With no parts out
// holds op's identity.
type fold struct {
	r     *region
	op    flash.SenseOp
	out   []byte
	empty bool // no part has landed yet
}

// fold starts an op-fold into out.
func (r *region) fold(op flash.SenseOp, out []byte) fold {
	identity := byte(0xFF)
	if op == flash.SenseOR {
		identity = 0
	}
	for i := range out {
		out[i] = identity
	}
	return fold{r: r, op: op, out: out, empty: true}
}

// sense queues page, read with its reference inverted or not, and senses
// the batch once it holds MaxSensePages pages.
func (f *fold) sense(page int, invert bool) error {
	f.r.pages = append(f.r.pages, page)
	f.r.invert = append(f.r.invert, invert)
	if len(f.r.pages) == f.r.maxSense {
		return f.flush()
	}
	return nil
}

// flush senses the pending batch, if any, as one SenseMulti and folds the
// result in. A fold must be flushed before another one starts.
func (f *fold) flush() error {
	if len(f.r.pages) == 0 {
		return nil
	}
	dst := f.out
	if !f.empty {
		dst = f.r.getBuf()
		defer f.r.putBuf(dst)
	}
	err := f.r.dev.SenseMulti(f.op, f.r.pages, f.r.invert, dst)
	f.r.pages = f.r.pages[:0]
	f.r.invert = f.r.invert[:0]
	if err != nil {
		return err
	}
	f.part(dst)
	return nil
}

// part folds one page-sized result into out.
func (f *fold) part(p []byte) {
	switch {
	case f.empty:
		copy(f.out, p)
		f.empty = false
	case f.op == flash.SenseAND:
		for i := range f.out {
			f.out[i] &= p[i]
		}
	default:
		for i := range f.out {
			f.out[i] |= p[i]
		}
	}
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
