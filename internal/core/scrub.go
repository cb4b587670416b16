package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Scrubbing. Flash cells drift: repeated reads disturb neighbouring cells
// and worn erases leave cells stuck at 0. The scrubber walks the device
// bank by bank, samples each page's drift mask (the fault model's ground
// truth, flash/health.go) and acts by page class:
//
//   - clean pages are left alone;
//   - approximatable pages absorb drift up to MaxStuck cells — stuck bits
//     are just extra 1→0 flips inside the error budget, so the data keeps
//     living there at zero refresh cost (the paper's core insight);
//   - exact pages with drift, and approximatable pages past the budget,
//     are refreshed in place: the intended image (data | mask) is rewritten
//     with an erase + program + verify, or handed to a caller-supplied
//     Refresh hook (the journaled FTL's crash-consistent path);
//   - worn-out pages that can no longer hold even approximate data are
//     retired, by default fencing them off at the flash layer, or through a
//     caller-supplied Retire hook (the FTL's spare-pool remap).
//
// The caller drives the scrubber with ScrubBank, one bank and a page count
// at a time. Sampling and the raw refresh hold the bank's commit lock, so
// ScrubBank may run alongside writes: an in-flight commit never
// interleaves with a refresh of the same page.

// ScrubConfig parameterises a Scrubber.
type ScrubConfig struct {
	// MaxStuck is the stuck-cell budget an approximatable page may absorb
	// before it is refreshed or retired. Zero means approximatable pages
	// are refreshed as soon as any cell drifts (no absorption).
	MaxStuck int

	// Refresh, when non-nil, replaces the raw in-place erase + program
	// with a managed path (e.g. the journaled FTL's crash-consistent
	// RefreshPage). It receives the physical page and its restored
	// intended image, and is invoked without the bank's commit lock held —
	// the callback must provide its own exclusion if commits can race it.
	Refresh func(p int, restored []byte) error

	// Retire, when non-nil, replaces flash.Device.Retire for worn-out
	// pages (e.g. the FTL's spare-pool remap). Invoked without the bank's
	// commit lock held.
	Retire func(p int) error
}

// ScrubStats counts scrubber decisions.
type ScrubStats struct {
	Sampled   uint64 // pages examined
	Clean     uint64 // pages with no drift and no wear-out
	Absorbed  uint64 // approximatable pages left carrying drift
	Refreshed uint64 // pages rewritten to their intended image
	Retired   uint64 // worn-out pages retired
	Errors    uint64 // refresh/retire attempts that failed

	// Retention-drift decisions (flash/retention.go).
	RetentionAbsorbed  uint64 // approximatable pages left carrying marginal cells
	RetentionRefreshed uint64 // pages recharged in place (program cost, no erase)
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

// Stats returns a snapshot of the scrubber's decision counters.
func (s *Scrubber) Stats() ScrubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ScrubBank synchronously scrubs the next n pages of one bank, advancing
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

// scrubPage samples one page and applies the scrub policy.
func (s *Scrubber) scrubPage(p int) {
	d := s.d
	fl := d.fl
	s.bump(func(st *ScrubStats) { st.Sampled++ })

	if fl.Retired(p) {
		s.bump(func(st *ScrubStats) { st.Clean++ })
		return
	}

	bank := fl.BankOf(p)
	ps := fl.Spec().PageSize
	mask := make([]byte, ps)

	// Sample and decide under the bank's commit lock so a concurrent
	// commit never interleaves with the classification or a raw refresh.
	d.commitMu[bank].Lock()
	stuck, err := fl.StuckMaskInto(p, mask)
	if err != nil {
		d.commitMu[bank].Unlock()
		s.bump(func(st *ScrubStats) { st.Errors++ })
		return
	}
	rise := fl.RiseBits(p)
	worn := fl.WornOut(p)
	if stuck == 0 && rise == 0 && !worn {
		d.commitMu[bank].Unlock()
		s.bump(func(st *ScrubStats) { st.Clean++ })
		return
	}

	// Approximate data lives with drift: the encoder already treats stuck
	// cells as cleared bits of `previous`, and a marginal retention cell
	// is just read noise inside the same error budget, so up to MaxStuck
	// total cells the page needs no action at all.
	if d.Approximatable(p) && stuck+rise <= s.cfg.MaxStuck && !worn {
		d.commitMu[bank].Unlock()
		if rise > 0 {
			s.bump(func(st *ScrubStats) { st.RetentionAbsorbed++ })
		} else {
			s.bump(func(st *ScrubStats) { st.Absorbed++ })
		}
		return
	}

	// A worn page can no longer hold data; a page at its endurance rating
	// still can, but the erase a refresh needs would be the one that kills
	// it. Both retire — through the hook, data moves onto a spare.
	if worn || fl.AtRating(p) {
		d.commitMu[bank].Unlock()
		s.retire(p)
		return
	}

	// Pure retention drift refreshes in place: the array still holds the
	// intended image, so recharging the marginal cells costs one program
	// pulse per affected byte — no erase, no wear, no data movement.
	if stuck == 0 && rise > 0 {
		_, err := fl.RefreshRetention(p)
		d.commitMu[bank].Unlock()
		if err != nil {
			s.bump(func(st *ScrubStats) { st.Errors++ })
			return
		}
		fl.NoteScrub(p)
		s.bump(func(st *ScrubStats) { st.RetentionRefreshed++ })
		return
	}

	// Refresh: rebuild the intended image (data | mask) and rewrite it.
	restored := make([]byte, ps)
	if err := fl.ReadPage(p, restored); err != nil {
		d.commitMu[bank].Unlock()
		s.bump(func(st *ScrubStats) { st.Errors++ })
		return
	}
	for i := range restored {
		restored[i] |= mask[i]
	}
	if s.cfg.Refresh != nil {
		d.commitMu[bank].Unlock()
		err = s.cfg.Refresh(p, restored)
	} else {
		// Under the retry policy a transient erase verify-failure re-issues
		// the whole erase + program, so a torn erase never strands the page
		// with its committed image destroyed.
		err = d.retryOp(bank, p, func() error { return rawRefresh(fl, p, restored) })
		d.commitMu[bank].Unlock()
	}
	if err != nil {
		s.bump(func(st *ScrubStats) { st.Errors++ })
		if errors.Is(err, flash.ErrWornOut) {
			s.retire(p)
		}
		return
	}
	fl.NoteScrub(p)
	s.bump(func(st *ScrubStats) { st.Refreshed++ })
}

// retire takes a worn-out page out of service through the configured hook.
func (s *Scrubber) retire(p int) {
	var err error
	if s.cfg.Retire != nil {
		err = s.cfg.Retire(p)
	} else {
		err = s.d.fl.Retire(p)
	}
	if err != nil {
		s.bump(func(st *ScrubStats) { st.Errors++ })
		return
	}
	s.bump(func(st *ScrubStats) { st.Retired++ })
}

// rawRefresh rewrites page p to restored with erase + program + read-back
// verify — the default refresh for raw (unmanaged) devices.
func rawRefresh(fl *flash.Device, p int, restored []byte) error {
	if err := fl.EraseProgramPage(p, restored); err != nil {
		return err
	}
	got := make([]byte, len(restored))
	if err := fl.ReadPage(p, got); err != nil {
		return err
	}
	for i := range got {
		if got[i] != restored[i] {
			return fmt.Errorf("core: scrub verify failed: page %d byte %d got %02x want %02x",
				p, i, got[i], restored[i])
		}
	}
	return nil
}
