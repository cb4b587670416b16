// Package ftl implements a small page-mapped flash translation layer with
// static wear leveling — the class of technique §II-B discusses. The paper
// argues FlipBit extends lifetime *without* an FTL's memory and management
// overheads, and that the two are orthogonal and composable; this package
// exists to measure both claims (see the exp-wear experiment).
//
// Design, matching embedded NOR practice: logical pages map to physical
// pages through an in-RAM table; writes go in place (so FlipBit's
// previous-content approximation still applies), and when the wear of a hot
// page exceeds the coldest page's wear by a threshold, the two pages swap —
// classic static wear leveling. Each swap costs two page reads, two page
// writes and whatever erases those writes need.
package ftl

import (
	"errors"
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// ErrBounds is returned for out-of-range logical addresses.
var ErrBounds = errors.New("ftl: logical address out of range")

// ErrNoSpares is returned when a failing page should be retired but the
// spare pool is exhausted — the device is out of healthy replacements.
var ErrNoSpares = errors.New("ftl: spare pool exhausted")

// Stats counts the FTL's own activity.
type Stats struct {
	Swaps      uint64 // wear-leveling page swaps performed
	SwapReads  uint64 // pages read by swaps
	SwapWrites uint64 // pages written by swaps

	// Endurance-management counters.
	Retirements uint64 // pages retired onto spares

	// Journaled-mode counters (zero for a volatile FTL built with New).
	Checkpoints   uint64 // map checkpoints written (with read-back verify)
	IntentErases  uint64 // intent-log page reclaims
	RolledForward uint64 // interrupted swaps completed at mount
	RolledBack    uint64 // interrupted swaps undone at mount
	CorrectedBits uint64 // single-bit metadata repairs (read disturb)
}

// FTL is a page-mapped translation layer over a FlipBit device.
type FTL struct {
	dev *core.Device

	// map logical page -> physical page, and its inverse. p2l covers the
	// whole device; entries for unmapped physical pages (free spares,
	// retired pages, journal metadata) hold -1.
	l2p []int
	p2l []int

	// Spare pool for bad-page retirement: poolSize physical pages starting
	// at poolBase. A spare is free while unmapped; retirement remaps a
	// failing data page's logical owner onto a free spare. wantSpares is
	// the construction-time request (clamped by geometry).
	poolBase   int
	poolSize   int
	wantSpares int

	// swapDelta is the wear imbalance (in erase cycles) that triggers a
	// swap between the hottest and coldest pages.
	swapDelta uint32

	// cold is levelWear's cached pick: the first least-worn usable page in
	// l2p order, whose wear was coldW when it was picked. coldOK is false
	// until the first scan and after every l2p write (applySwap,
	// retirePhys); see coldest for why the cache is exact.
	cold   int
	coldW  uint32
	coldOK bool

	// wearPhys is WearInto's physical wear snapshot, reused across calls.
	wearPhys []uint32

	// Journaled mode (journal.go). A volatile FTL built with New keeps
	// journaled false and maps the whole device; Open reserves the tail
	// of the device for the journal and survives crashes.
	journaled      bool
	lay            layout
	mapSeq         uint32 // sequence of the in-RAM map's last durable point
	intentOff      int    // append offset within the intent-log page
	checkpointSlot int    // slot holding the newest durable map

	stats Stats
}

// Option configures the FTL.
type Option func(*FTL)

// WithSwapDelta sets the wear-imbalance threshold that triggers a swap
// (default 16 cycles; smaller = more aggressive leveling, more copy cost).
func WithSwapDelta(d uint32) Option {
	return func(f *FTL) {
		if d > 0 {
			f.swapDelta = d
		}
	}
}

// WithSpares reserves n physical pages as a retirement pool: when a data
// page wears out or is refused by the health gate, its logical page is
// remapped onto a free spare and the bad page is fenced off. The logical
// space shrinks by n pages.
func WithSpares(n int) Option {
	return func(f *FTL) {
		if n > 0 {
			f.wantSpares = n
		}
	}
}

// New builds an FTL mapping every page of dev identity-initialised. The map
// lives only in RAM: a reboot forgets every swap, so New is for lifetime
// experiments, not for data that must survive power loss — use Open for
// that.
func New(dev *core.Device, opts ...Option) *FTL {
	f := &FTL{dev: dev, swapDelta: 16}
	for _, o := range opts {
		o(f)
	}
	np := dev.Flash().Spec().NumPages
	ns := f.wantSpares
	if ns >= np {
		ns = np - 1
	}
	nl := np - ns
	f.l2p = make([]int, nl)
	f.p2l = make([]int, np)
	f.poolBase, f.poolSize = nl, ns
	for pp := range f.p2l {
		f.p2l[pp] = -1
	}
	for lp := range f.l2p {
		f.l2p[lp] = lp
		f.p2l[lp] = lp
	}
	return f
}

// Open mounts a journaled FTL (see journal.go): the tail of the device is
// reserved for a spare page, an intent log, two map checkpoints and the
// retirement pool, and mounting recovers the translation map — finishing or
// rolling back a swap that was interrupted by power loss. The logical space
// (NumPages) is smaller than the device by the journal overhead and the
// spare pool.
func Open(dev *core.Device, opts ...Option) (*FTL, error) {
	f := &FTL{dev: dev, swapDelta: 16, journaled: true}
	for _, o := range opts {
		o(f)
	}
	spec := dev.Flash().Spec()
	lay, err := computeLayout(spec.PageSize, spec.NumPages, f.wantSpares)
	if err != nil {
		return nil, err
	}
	f.lay = lay
	f.poolBase, f.poolSize = lay.poolBase, lay.spares
	f.l2p = make([]int, lay.nl)
	f.p2l = make([]int, spec.NumPages)
	for pp := range f.p2l {
		f.p2l[pp] = -1
	}
	if err := f.recover(); err != nil {
		return nil, err
	}
	return f, nil
}

// Stats returns the FTL's activity counters.
func (f *FTL) Stats() Stats { return f.stats }

// PageSize returns the logical page size (identical to the physical one).
func (f *FTL) PageSize() int { return f.dev.Flash().Spec().PageSize }

// NumPages returns the number of logical pages: the whole device for a
// volatile FTL, the data region for a journaled one.
func (f *FTL) NumPages() int { return len(f.l2p) }

// ErasePage erases the physical page currently backing logical page lp.
// Together with Read, Write, PageSize and NumPages this makes the FTL a
// kvs backend, so the store's log can live on wear-leveled storage. A
// worn-out erase retires the page onto a fresh spare (when the pool has
// one), so the logical page comes back blank and healthy.
func (f *FTL) ErasePage(lp int) error {
	if lp < 0 || lp >= len(f.l2p) {
		return fmt.Errorf("%w: page %d", ErrBounds, lp)
	}
	err := f.dev.ErasePage(f.l2p[lp])
	if err != nil && f.poolSize > 0 && retirableWriteErr(err) {
		if rerr := f.retirePhys(f.l2p[lp], true); rerr == nil {
			return nil
		}
	}
	return err
}

// Translate returns the physical address for a logical address.
func (f *FTL) Translate(laddr int) (int, error) {
	ps := f.dev.Flash().Spec().PageSize
	if laddr < 0 {
		return 0, fmt.Errorf("%w: %#x", ErrBounds, laddr)
	}
	lp := laddr / ps
	if lp >= len(f.l2p) {
		return 0, fmt.Errorf("%w: %#x", ErrBounds, laddr)
	}
	return f.l2p[lp]*ps + laddr%ps, nil
}

// Read fills dst from the logical address, translating page by page.
func (f *FTL) Read(laddr int, dst []byte) error {
	return f.forEachPage(laddr, len(dst), func(paddr, off, n int) error {
		return f.dev.Read(paddr, dst[off:off+n])
	})
}

// SensePage margin-senses logical page lp into dst (one page), resolving
// marginal retention cells to their stored values. It satisfies the
// store's optional sense extension so the hardened read path works through
// the translation layer.
func (f *FTL) SensePage(lp int, dst []byte) error {
	if lp < 0 || lp >= len(f.l2p) {
		return fmt.Errorf("%w: logical page %d", ErrBounds, lp)
	}
	return f.dev.SensePage(f.l2p[lp], dst)
}

// Write stores data at the logical address through the FlipBit device,
// then runs the wear-leveling check on the pages the write touched —
// leveling chases the hot data, not global wear statistics, so cold pages
// are never churned against each other.
//
// When a page fails with the health gate's ErrExactDegraded (or wears out
// mid-write) and the spare pool has a replacement, the physical page is
// retired — its repaired contents move to a spare — and the write retries
// once on the healthy page.
func (f *FTL) Write(laddr int, data []byte) error {
	ps := f.dev.Flash().Spec().PageSize
	var buf [4]int // room for the usual one- or two-page write, on the stack
	touched := buf[:0]
	off := 0
	n := len(data)
	for n > 0 {
		paddr, err := f.Translate(laddr)
		if err != nil {
			return err
		}
		run := ps - laddr%ps
		if run > n {
			run = n
		}
		werr := f.dev.Write(paddr, data[off:off+run])
		if werr != nil && f.poolSize > 0 && retirableWriteErr(werr) {
			pp := paddr / ps
			if rerr := f.retirePhys(pp, false); rerr == nil {
				// The logical page moved; retry once on its new home.
				paddr, _ = f.Translate(laddr)
				werr = f.dev.Write(paddr, data[off:off+run])
			}
		}
		if werr != nil {
			return werr
		}
		touched = append(touched, paddr/ps)
		laddr += run
		off += run
		n -= run
	}
	for _, p := range touched {
		if err := f.levelWear(p); err != nil {
			return err
		}
	}
	return nil
}

// retirableWriteErr reports whether a write failure is fixed by moving the
// page onto a spare: the health gate refusing a degraded page, the page
// wearing out under the write, or the page being fenced (possible after a
// crash rolled the map back to a since-retired page).
func retirableWriteErr(err error) bool {
	return errors.Is(err, core.ErrExactDegraded) ||
		errors.Is(err, flash.ErrWornOut) ||
		errors.Is(err, flash.ErrPageRetired)
}

// forEachPage splits [laddr, laddr+n) into per-page runs and calls fn with
// the translated physical address of each run.
func (f *FTL) forEachPage(laddr, n int, fn func(paddr, off, n int) error) error {
	ps := f.dev.Flash().Spec().PageSize
	off := 0
	for n > 0 {
		paddr, err := f.Translate(laddr)
		if err != nil {
			return err
		}
		run := ps - laddr%ps
		if run > n {
			run = n
		}
		if err := fn(paddr, off, run); err != nil {
			return err
		}
		laddr += run
		off += run
		n -= run
	}
	return nil
}

// levelWear swaps the just-written physical page with the coldest mapped
// page when their wear gap exceeds the threshold. Only mapped pages are
// candidates: journal metadata is not remappable, free spares must stay
// blank for retirement, and retired pages are out of service.
func (f *FTL) levelWear(hot int) error {
	fl := f.dev.Flash()
	cold, coldW := f.coldest()
	// A swap rewrites both pages, so a degraded endpoint could tear the
	// exchange mid-way (the health gate refuses the second write after the
	// first landed). An at-rating endpoint is as bad: the erase the swap
	// needs is the one that corrupts it — that page's future is retirement,
	// not relocation. Leveling is an optimisation; skip rather than risk it.
	if cold < 0 || hot == cold || fl.Degraded(hot) || fl.AtRating(hot) || fl.Wear(hot)-coldW < f.swapDelta {
		return nil
	}
	if f.journaled {
		return f.journalSwap(hot, cold)
	}
	return f.swap(hot, cold)
}

// coldest returns the first least-worn usable (neither degraded nor at
// rating) page in l2p order and its wear, or -1 when no page is usable.
//
// The pick is cached, and reused while the page is not degraded and its
// wear still equals the wear it was picked at. That is exact while l2p is
// unchanged: wear only grows, and a page only ever goes from usable to
// unusable (dead, retired and at-rating are never cleared). Every page
// before the cached one in l2p order was worn strictly more, or unusable,
// at the scan and still is; every page after it was worn at least as much
// and still is. The cached page itself can only turn dead or at-rating by
// being erased, which changes its wear; retirement is the one change the
// wear does not show. So only a write to l2p (which clears coldOK), an
// erase of the cached page or its retirement forces the full scan.
func (f *FTL) coldest() (int, uint32) {
	fl := f.dev.Flash()
	if f.coldOK && fl.Wear(f.cold) == f.coldW && !fl.Degraded(f.cold) {
		return f.cold, f.coldW
	}
	cold := -1
	var coldW uint32
	for _, pp := range f.l2p {
		if fl.Degraded(pp) || fl.AtRating(pp) {
			continue
		}
		if w := fl.Wear(pp); cold < 0 || w < coldW {
			cold, coldW = pp, w
		}
	}
	f.cold, f.coldW, f.coldOK = cold, coldW, cold >= 0
	return cold, coldW
}

// swap exchanges the contents and logical mappings of two physical pages.
func (f *FTL) swap(a, b int) error {
	fl := f.dev.Flash()
	ps := fl.Spec().PageSize
	bufA := make([]byte, ps)
	bufB := make([]byte, ps)
	if err := f.dev.Read(fl.PageBase(a), bufA); err != nil {
		return err
	}
	if err := f.dev.Read(fl.PageBase(b), bufB); err != nil {
		return err
	}
	if err := f.dev.Write(fl.PageBase(a), bufB); err != nil {
		return err
	}
	if err := f.dev.Write(fl.PageBase(b), bufA); err != nil {
		return err
	}
	f.applySwap(a, b)
	f.stats.Swaps++
	f.stats.SwapReads += 2
	f.stats.SwapWrites += 2
	return nil
}

// PageWear returns the erase count of the physical page currently backing
// logical page lp. This makes the FTL a kvs.WearBackend, so the store's
// proactive compaction biases victim selection toward low-wear pages even
// when its log rides on translated storage.
func (f *FTL) PageWear(lp int) uint32 {
	if lp < 0 || lp >= len(f.l2p) {
		return 0
	}
	return f.dev.Flash().Wear(f.l2p[lp])
}

// WearInto copies the erase count of the physical page backing every
// logical page lp < min(len(dst), logical pages) into dst[lp], leaving the
// rest of dst untouched: one device wear snapshot (one lock acquisition per
// bank) into a buffer the FTL keeps, mapped through l2p. It gives the
// store's victim scan PageWear's values without a lock round trip per page.
func (f *FTL) WearInto(dst []uint32) {
	if f.wearPhys == nil {
		f.wearPhys = make([]uint32, len(f.p2l))
	}
	f.dev.Flash().WearInto(f.wearPhys)
	n := min(len(dst), len(f.l2p))
	for lp, pp := range f.l2p[:n] {
		dst[lp] = f.wearPhys[pp]
	}
}
