// Endurance management: bad-page retirement onto a spare pool, and the
// crash-consistent scrub refresh. Retirement needs no intent record — the
// replacement copy is written to a free spare *before* the map flips, so a
// crash at any point either recovers the old map (the bad page still holds
// the data, readable even when fenced) or the new checkpointed map (the
// spare holds it). Which spares are free is derived from the map itself: a
// pool page is free exactly while no logical page maps to it, so a torn
// retirement can never leak a spare.
package ftl

import (
	"fmt"
	"hash/crc32"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// isMeta reports whether pp is journal metadata (swap scratch, intent log
// or a checkpoint slot) — pages with their own integrity machinery that
// must never be remapped or scrub-refreshed through the data path.
func (f *FTL) isMeta(pp int) bool {
	return f.journaled && pp >= f.lay.nl && pp < f.lay.poolBase
}

// freeSpare returns the first usable free spare, or -1. A spare is free
// while unmapped; worn or fenced spares are skipped.
func (f *FTL) freeSpare() int {
	fl := f.dev.Flash()
	for i := 0; i < f.poolSize; i++ {
		pp := f.poolBase + i
		if f.p2l[pp] == -1 && !fl.Retired(pp) && !fl.WornOut(pp) {
			return pp
		}
	}
	return -1
}

// SparesRemaining returns how many usable spares the pool still holds.
func (f *FTL) SparesRemaining() int {
	fl := f.dev.Flash()
	n := 0
	for i := 0; i < f.poolSize; i++ {
		pp := f.poolBase + i
		if f.p2l[pp] == -1 && !fl.Retired(pp) && !fl.WornOut(pp) {
			n++
		}
	}
	return n
}

// RetiredPages returns how many physical pages have been taken out of
// service: unmapped data pages plus unusable spares.
func (f *FTL) RetiredPages() int {
	fl := f.dev.Flash()
	n := 0
	dataEnd := f.dataEnd()
	for pp := 0; pp < dataEnd; pp++ {
		if f.p2l[pp] == -1 {
			n++
		}
	}
	for i := 0; i < f.poolSize; i++ {
		pp := f.poolBase + i
		if f.p2l[pp] == -1 && (fl.Retired(pp) || fl.WornOut(pp)) {
			n++
		}
	}
	return n
}

// dataEnd returns one past the last data-region physical page.
func (f *FTL) dataEnd() int {
	if f.journaled {
		return f.lay.nl
	}
	return f.poolBase
}

// HealthReport augments the flash device's endurance snapshot with the
// FTL's management state.
type HealthReport struct {
	flash.HealthReport
	SparesTotal int // pool size at construction
	SparesFree  int // usable spares remaining
	RetiredData int // physical pages taken out of service
}

// Health returns the combined device + FTL endurance snapshot.
func (f *FTL) Health() HealthReport {
	return HealthReport{
		HealthReport: f.dev.Flash().Health(),
		SparesTotal:  f.poolSize,
		SparesFree:   f.SparesRemaining(),
		RetiredData:  f.RetiredPages(),
	}
}

// RetirePage retires the mapped physical page pp, moving its repaired
// contents onto a spare. This is the scrubber's Retire hook; journal
// metadata is refused.
func (f *FTL) RetirePage(pp int) error {
	if f.isMeta(pp) {
		return fmt.Errorf("ftl: page %d is journal metadata; cannot retire", pp)
	}
	if pp < 0 || pp >= len(f.p2l) || f.p2l[pp] == -1 {
		return fmt.Errorf("ftl: page %d is not mapped; nothing to retire", pp)
	}
	return f.retirePhys(pp, false)
}

// retirePhys remaps the logical owner of physical page pp onto a free
// spare and fences pp off. With blank set the spare starts erased instead
// of carrying a copy (the caller wanted an erased page anyway).
//
// Crash safety without an intent record: the spare is fully written before
// the RAM map flips and the checkpoint lands. Recovering the old map keeps
// reading pp (still intact, still readable while fenced); recovering the
// new one reads the spare. A spare written by a torn retirement stays
// unmapped and is simply reused next time.
func (f *FTL) retirePhys(pp int, blank bool) error {
	lp := f.p2l[pp]
	if lp < 0 {
		return fmt.Errorf("ftl: page %d is not mapped", pp)
	}
	sp := f.freeSpare()
	if sp < 0 {
		return fmt.Errorf("%w: retiring page %d", ErrNoSpares, pp)
	}
	fl := f.dev.Flash()
	if blank {
		if err := f.eraseMetaPage(sp); err != nil {
			return err
		}
	} else {
		// Repair what the bad page still holds — stuck cells read 0 but
		// the drift mask knows which ones were meant to be 1 — and land
		// the restored image on the spare, verified.
		restored := make([]byte, f.PageSize())
		if err := fl.ReadPage(pp, restored); err != nil {
			return err
		}
		mask := make([]byte, f.PageSize())
		if _, err := fl.StuckMaskInto(pp, mask); err != nil {
			return err
		}
		for i := range restored {
			restored[i] |= mask[i]
		}
		if err := f.writeExactPage(sp, restored); err != nil {
			return err
		}
		if err := f.verifyPage(sp, restored); err != nil {
			return err
		}
	}
	f.l2p[lp] = sp
	f.coldOK = false
	f.p2l[sp] = lp
	f.p2l[pp] = -1
	_ = fl.Retire(pp)
	f.stats.Retirements++
	if f.journaled {
		f.mapSeq++
		return f.writeCheckpoint(1 - f.checkpointSlot)
	}
	return nil
}

// RefreshPage rewrites physical page pp to its restored intended image —
// the scrubber's Refresh hook. Journal metadata and unmapped pages are
// skipped (metadata maintains its own integrity; unmapped pages hold no
// data). In journaled mode the refresh follows the intent protocol with
// a == b marking an in-place rewrite, so a power loss mid-refresh recovers
// to either the old or the new image, never a torn one.
func (f *FTL) RefreshPage(pp int, restored []byte) error {
	if len(restored) != f.PageSize() {
		return fmt.Errorf("ftl: refresh buffer %d bytes, page size %d", len(restored), f.PageSize())
	}
	if pp < 0 || pp >= len(f.p2l) {
		return fmt.Errorf("%w: page %d", ErrBounds, pp)
	}
	if f.isMeta(pp) || f.p2l[pp] == -1 {
		return nil
	}
	if !f.journaled {
		if err := f.writeExactPage(pp, restored); err != nil {
			return err
		}
		if err := f.verifyPage(pp, restored); err != nil {
			return err
		}
		f.stats.Refreshes++
		return nil
	}

	seq := f.mapSeq + 1
	if err := f.appendIntent(intentRec{
		seq: seq, a: pp, b: pp,
		crcA: f.pageCRC(pp), crcB: crc32.ChecksumIEEE(restored),
	}); err != nil {
		return err
	}
	// Stage the restored image on the spare first and verify it: once it
	// is durable there, a crash tearing the in-place rewrite rolls
	// forward from the spare at mount.
	if err := f.writeExactPage(f.lay.spare, restored); err != nil {
		return err
	}
	if err := f.verifyPage(f.lay.spare, restored); err != nil {
		return err
	}
	if err := f.writeExactPage(pp, restored); err != nil {
		return err
	}
	f.mapSeq = seq
	if err := f.writeCheckpoint(1 - f.checkpointSlot); err != nil {
		return err
	}
	f.stats.Refreshes++
	return nil
}

// repairRefresh settles an interrupted in-place refresh (intent a == b):
// roll forward from the spare when the staged image made it there, else
// leave the page as it was.
func (f *FTL) repairRefresh(it intentRec) error {
	ca := f.pageCRC(it.a)
	cs := f.pageCRC(f.lay.spare)
	switch {
	case ca == it.crcB:
		// The rewrite landed before the crash.
		f.stats.RolledForward++
	case cs == it.crcB:
		// Staged image is durable on the spare; redo the rewrite.
		buf := make([]byte, f.lay.ps)
		if err := f.dev.Flash().ReadPage(f.lay.spare, buf); err != nil {
			return err
		}
		if err := f.writeExactPage(it.a, buf); err != nil {
			return err
		}
		f.stats.RolledForward++
		f.stats.Refreshes++
	default:
		// Crash before the spare was staged (or everything torn): the
		// page keeps its pre-refresh content — a refresh is always
		// re-derivable, so losing one is safe.
		f.stats.RolledBack++
	}
	f.mapSeq = it.seq
	return f.writeCheckpoint(1 - f.checkpointSlot)
}

// verifyPage reads p back and compares against want.
func (f *FTL) verifyPage(p int, want []byte) error {
	got := make([]byte, len(want))
	if err := f.dev.Flash().ReadPage(p, got); err != nil {
		return err
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("ftl: page %d verify failed at byte %d: got %02x want %02x",
				p, i, got[i], want[i])
		}
	}
	return nil
}
