// Endurance management: bad-page retirement onto a spare pool, driven by
// the write and erase paths when a page fails. Retirement needs no intent
// record — the replacement copy is written to a free spare *before* the map
// flips, so a crash at any point either recovers the old map (the bad page still holds
// the data, readable even when fenced) or the new checkpointed map (the
// spare holds it). Which spares are free is derived from the map itself: a
// pool page is free exactly while no logical page maps to it, so a torn
// retirement can never leak a spare.
package ftl

import "fmt"

// freeSpare returns the first usable free spare, or -1.
func (f *FTL) freeSpare() int {
	for pp := f.lay.poolBase; pp < f.lay.poolBase+f.lay.spares; pp++ {
		if f.isFreeSpare(pp) {
			return pp
		}
	}
	return -1
}

// SparesRemaining returns how many usable spares the pool still holds.
func (f *FTL) SparesRemaining() int {
	n := 0
	for pp := f.lay.poolBase; pp < f.lay.poolBase+f.lay.spares; pp++ {
		if f.isFreeSpare(pp) {
			n++
		}
	}
	return n
}

// isFreeSpare reports whether pool page pp is free and usable: unmapped,
// and neither fenced nor worn out.
func (f *FTL) isFreeSpare(pp int) bool {
	fl := f.dev.Flash()
	return f.p2l[pp] == -1 && !fl.Retired(pp) && !fl.WornOut(pp)
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
		// Copy what the bad page reads back — stuck cells included, since
		// no controller can sense what they were meant to hold — and land
		// the image on the spare, verified.
		img := make([]byte, f.PageSize())
		if err := fl.ReadPage(pp, img); err != nil {
			return err
		}
		if err := f.writeExactPage(sp, img); err != nil {
			return err
		}
		if err := f.verifyPage(sp, img); err != nil {
			return err
		}
	}
	f.l2p[lp] = sp
	f.coldOK = false
	f.p2l[sp] = lp
	f.p2l[pp] = -1
	_ = fl.Retire(pp)
	f.stats.Retirements++
	f.mapSeq++
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
