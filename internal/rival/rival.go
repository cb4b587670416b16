// Package rival implements the erase-reduction techniques the paper
// compares against in §VII, so the comparison can be *run* rather than
// cited:
//
//   - LogWriter: masked-overwrite / log-structured appending in the spirit
//     of Fazackerley et al. [25] — each record lands in fresh (still-ones)
//     bytes of the page, and the erase only comes once the page has been
//     consumed.
//   - WOM: the Rivest–Shamir write-once-memory code — two writes of 2 bits
//     into 3 cells between erases, at a 1.5× footprint cost (the "coding
//     increases the memory footprint" critique of §VII).
//
// Both are exact (lossless); FlipBit's distinguishing move is spending
// *accuracy* instead of footprint. The exp-related experiment quantifies
// the trade on a shared workload.
package rival

import (
	"errors"
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/core"
)

// ErrRecordSize is returned when a record does not fit the configured slot.
var ErrRecordSize = errors.New("rival: record does not fit the log slot")

// LogWriter appends fixed-size records to a page-sized circular log.
// Within a page, each record is programmed into fresh bytes (no erase);
// when the page is full the next append erases it and starts over. This is
// the masked-overwrite discipline: every byte of a page is written at most
// once per erase cycle.
type LogWriter struct {
	dev      *core.Device
	page     int
	slot     int // record size in bytes
	perPage  int
	nextSlot int
}

// NewLogWriter builds a log over one page of dev with the given record
// size. The page is erased lazily on first wrap, not at construction.
func NewLogWriter(dev *core.Device, page, recordSize int) (*LogWriter, error) {
	ps := dev.Flash().Spec().PageSize
	if recordSize <= 0 || recordSize > ps {
		return nil, fmt.Errorf("%w: %d bytes in a %d-byte page", ErrRecordSize, recordSize, ps)
	}
	return &LogWriter{
		dev:     dev,
		page:    page,
		slot:    recordSize,
		perPage: ps / recordSize,
	}, nil
}

// Append stores one record. Returns the slot index it landed in.
func (l *LogWriter) Append(rec []byte) (int, error) {
	if len(rec) != l.slot {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrRecordSize, len(rec), l.slot)
	}
	fl := l.dev.Flash()
	if l.nextSlot >= l.perPage {
		// Page consumed: erase and wrap (the cost masked overwriting
		// cannot avoid, per §VII).
		if err := fl.ErasePage(l.page); err != nil {
			return 0, err
		}
		l.nextSlot = 0
	}
	base := fl.PageBase(l.page) + l.nextSlot*l.slot
	for i, b := range rec {
		if err := fl.ProgramByte(base+i, b); err != nil {
			return 0, err
		}
	}
	slot := l.nextSlot
	l.nextSlot++
	return slot, nil
}
