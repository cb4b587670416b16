package approx

import (
	"testing"
	"testing/quick"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// TestPaperMLCExample replays the §VI worked example: previous = 0101,
// exact = 0011 under the 1-cell algorithm gives approx = 0001.
func TestPaperMLCExample(t *testing.T) {
	got := MustNCell(1).Approximate(0b0101, 0b0011, bits.W8)
	if got != 0b0001 {
		t.Errorf("NCell(1)(0101, 0011) = %04b, want 0001", got)
	}
}

// TestMLCReachability: every output cell level must be <= the previous cell
// level, i.e. reachable through program pulses alone (11→10→01→00).
func TestMLCReachability(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		enc := MustNCell(n)
		f := func(p, e uint32) bool {
			a := enc.Approximate(p, e, bits.W32)
			for c := 0; c < 16; c++ {
				if cellAt(a, c) > cellAt(p, c) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestMLCExactWhenReachable: if every exact cell is reachable, the write
// must be lossless.
func TestMLCExactWhenReachable(t *testing.T) {
	enc := MustNCell(1)
	f := func(p, e uint32) bool {
		// Clamp each cell of e to p's level so everything is reachable.
		var r uint32
		for c := 0; c < 16; c++ {
			x := cellAt(e, c)
			if pc := cellAt(p, c); x > pc {
				x = pc
			}
			r = setCellAt(r, c, x)
		}
		return enc.Approximate(p, r, bits.W32) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMLCOvershootHelps: with lookahead, overshooting a high cell can beat
// the greedy clamp. previous cells (10,00), exact (01,11): 1-cell gives
// 0100 (error 3); 2-cell overshoots to 1000 (error 1).
func TestMLCOvershootHelps(t *testing.T) {
	p, e := uint32(0b1000), uint32(0b0111)
	g1 := MustNCell(1).Approximate(p, e, bits.W8)
	g2 := MustNCell(2).Approximate(p, e, bits.W8)
	if bits.AbsDiff(e, g2) >= bits.AbsDiff(e, g1) {
		t.Errorf("2-cell (%04b, err %d) should beat 1-cell (%04b, err %d)",
			g2, bits.AbsDiff(e, g2), g1, bits.AbsDiff(e, g1))
	}
}

// TestMLCSetToZeroIsFree: level 00 is always reachable, so zeroing a value
// is always exact.
func TestMLCSetToZeroIsFree(t *testing.T) {
	f := func(p uint32) bool {
		return MustNCell(1).Approximate(p, 0, bits.W32) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMLCMeanError2CellNotWorse: statistically the lookahead variant should
// not increase mean error on uniform data.
func TestMLCMeanError2CellNotWorse(t *testing.T) {
	e1, e2 := MustNCell(1), MustNCell(2)
	var sum1, sum2 uint64
	for p := uint32(0); p < 256; p++ {
		for e := uint32(0); e < 256; e++ {
			sum1 += uint64(bits.AbsDiff(e, e1.Approximate(p, e, bits.W8)))
			sum2 += uint64(bits.AbsDiff(e, e2.Approximate(p, e, bits.W8)))
		}
	}
	if sum2 > sum1 {
		t.Errorf("2-cell mean error (%d) exceeds 1-cell (%d)", sum2, sum1)
	}
}

func TestNewNCellRange(t *testing.T) {
	if _, err := NewNCell(0); err == nil {
		t.Error("NewNCell(0) should fail")
	}
	if _, err := NewNCell(MaxN); err == nil {
		t.Error("NewNCell(MaxN) should fail (cells, not bits)")
	}
	if e, err := NewNCell(2); err != nil || e.N() != 2 {
		t.Errorf("NewNCell(2) = %v, %v; want a 2-cell window", e, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNCell(0) should panic")
		}
	}()
	MustNCell(0)
}

func TestCellHelpers(t *testing.T) {
	v := uint32(0b11_01_00_10)
	if cellAt(v, 0) != 0b10 || cellAt(v, 1) != 0b00 || cellAt(v, 2) != 0b01 || cellAt(v, 3) != 0b11 {
		t.Error("cellAt extraction wrong")
	}
	if got := setCellAt(v, 1, 0b11); got != 0b11_01_11_10 {
		t.Errorf("setCellAt = %08b", got)
	}
}
