package core

import (
	"sync"
)

// Scrubbing. Flash cells drift: repeated reads disturb neighbouring cells,
// worn erases leave cells stuck at 0, and programmed cells leak charge to
// the read threshold. The scrubber is a read-only census of that drift: it
// walks the device bank by bank, samples each page's drift (the fault
// model's ground truth, flash/health.go and flash/retention.go) and counts
// the page into one class:
//
//   - clean pages carry no drift and are not worn (retired pages count as
//     clean: nothing lives there any more);
//   - absorbed pages are approximatable and carry at most MaxStuck drifted
//     cells — stuck bits are just extra 1→0 flips inside the error budget,
//     so the data keeps living there at zero refresh cost (the paper's
//     core insight);
//   - unabsorbed pages are the rest: exact pages with drift, approximatable
//     pages past the budget, and worn-out pages.
//
// The scrubber changes nothing on the device. Data is repaired where it is
// read or written: the store's CRC repair and re-sense ladder, its tail
// retirement, and the FTL's retire-on-write-failure.
//
// The caller drives the scrubber with ScrubBank, one bank and a page count
// at a time. Sampling holds the bank's commit lock, so ScrubBank may run
// alongside writes and never classifies a page mid-commit.

// ScrubConfig parameterises a Scrubber.
type ScrubConfig struct {
	// MaxStuck is the drifted-cell budget an approximatable page may
	// absorb. Zero means every drifted page is unabsorbed.
	MaxStuck int
}

// ScrubStats is the scrubber's census. Every sampled page lands in exactly
// one class: Sampled == Clean + Absorbed + RetentionAbsorbed + Unabsorbed +
// Errors.
type ScrubStats struct {
	Sampled    uint64 // pages examined
	Clean      uint64 // pages with no drift and no wear-out
	Absorbed   uint64 // approximatable pages left carrying stuck cells
	Unabsorbed uint64 // drifted or worn pages the budget cannot absorb
	Errors     uint64 // pages whose drift mask could not be sampled

	// RetentionAbsorbed counts approximatable pages left carrying marginal
	// retention cells (flash/retention.go).
	RetentionAbsorbed uint64
}

// Scrubber is the scrub engine for one device. Construct with NewScrubber
// and drive with ScrubBank. Safe for concurrent use with device commits.
type Scrubber struct {
	d   *Device
	cfg ScrubConfig

	mu     sync.Mutex
	stats  ScrubStats
	cursor []int // per-bank index of the next page to sample
}

// NewScrubber builds a scrubber over d.
func NewScrubber(d *Device, cfg ScrubConfig) *Scrubber {
	return &Scrubber{d: d, cfg: cfg, cursor: make([]int, d.fl.Banks())}
}

// Stats returns a snapshot of the scrubber's census.
func (s *Scrubber) Stats() ScrubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ScrubBank synchronously samples the next n pages of one bank, advancing
// the bank's cursor. It is the scrubber's only entry point; it may be
// called from several goroutines and alongside writes.
func (s *Scrubber) ScrubBank(bank, n int) {
	nb := s.d.fl.Banks()
	pages := s.d.fl.Spec().NumPages
	perBank := (pages - bank + nb - 1) / nb // pages p with p % nb == bank
	if perBank == 0 {
		return
	}
	for i := 0; i < n; i++ {
		s.mu.Lock()
		idx := s.cursor[bank] % perBank
		s.cursor[bank] = idx + 1
		s.mu.Unlock()
		s.scrubPage(bank + idx*nb)
	}
}

// bump increments one stats counter.
func (s *Scrubber) bump(f func(*ScrubStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// scrubPage samples one page and counts it into its census class.
func (s *Scrubber) scrubPage(p int) {
	d := s.d
	fl := d.fl
	s.bump(func(st *ScrubStats) { st.Sampled++ })

	if fl.Retired(p) {
		s.bump(func(st *ScrubStats) { st.Clean++ })
		return
	}

	// Classify under the bank's commit lock so a concurrent commit never
	// interleaves with the sample.
	bank := fl.BankOf(p)
	d.commitMu[bank].Lock()
	stuck, err := fl.StuckMaskInto(p, make([]byte, fl.Spec().PageSize))
	rise := fl.RiseBits(p)
	worn := fl.WornOut(p)
	approx := d.Approximatable(p)
	d.commitMu[bank].Unlock()

	switch {
	case err != nil:
		s.bump(func(st *ScrubStats) { st.Errors++ })
	case stuck == 0 && rise == 0 && !worn:
		s.bump(func(st *ScrubStats) { st.Clean++ })
	// Approximate data lives with drift: the encoder already treats stuck
	// cells as cleared bits of `previous`, and a marginal retention cell
	// is just read noise inside the same error budget, so up to MaxStuck
	// total cells the page needs no action at all.
	case approx && stuck+rise <= s.cfg.MaxStuck && !worn:
		if rise > 0 {
			s.bump(func(st *ScrubStats) { st.RetentionAbsorbed++ })
		} else {
			s.bump(func(st *ScrubStats) { st.Absorbed++ })
		}
	default:
		s.bump(func(st *ScrubStats) { st.Unabsorbed++ })
	}
}
