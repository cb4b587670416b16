package approx

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// MLC approximation (§VI "FlipBit for MLC").
//
// In multi-level-cell flash each cell stores two bits. A fully erased cell
// reads 11 and every program pulse decrements the logical mapping:
// 11 → 10 → 01 → 00. A cell can therefore move to any level less than or
// equal to its current one without an erase, and decisions must be made one
// *cell* (two bits) at a time rather than one bit at a time.

// CellBits is the number of bits per MLC cell.
const CellBits = 2

// cellLevels is the number of logical levels an MLC cell can hold.
const cellLevels = 1 << CellBits

// NCell implements the n-cell approximation algorithm for MLC flash. For
// n == 1 it reproduces the paper's worked example (§VI): each cell is
// clamped to its previous level when the exact level is unreachable, and the
// setOnes/setZeros saturation flags carry across cells exactly as in the
// binary algorithms. It also carries the compiled batch kernel over
// two-bit cells (kernel.go), so it satisfies BatchEncoder.
type NCell struct {
	n    int
	kern *kernel
}

// NewNCell returns the n-cell encoder, n >= 1 cells of lookahead window.
func NewNCell(n int) (*NCell, error) {
	if n < 1 || n > MaxN/CellBits {
		return nil, fmt.Errorf("approx: n-cell window must be in [1,%d], got %d", MaxN/CellBits, n)
	}
	return &NCell{n: n, kern: cachedKernel(CellBits, n)}, nil
}

// MustNCell is NewNCell for static configurations known to be valid.
func MustNCell(n int) *NCell {
	e, err := NewNCell(n)
	if err != nil {
		panic(err)
	}
	return e
}

// N returns the lookahead window size in cells.
func (e *NCell) N() int { return e.n }

// Approximate implements Encoder. The result is reachable from previous
// using only program pulses: every cell of the result is <= the
// corresponding cell of previous.
func (e *NCell) Approximate(previous, exact uint32, w bits.Width) uint32 {
	previous &= w.Mask()
	exact &= w.Mask()
	cells := int(w) / CellBits
	var approx uint32
	setOnes, setZeros := false, false
	for c := cells - 1; c >= 0; c-- {
		p := cellAt(previous, c)
		x := cellAt(exact, c)
		var out uint32
		switch {
		case setZeros:
			out = 0
		case setOnes:
			out = p // saturate to the cell's maximum reachable level
		case x <= p:
			out = x
			if e.n > 1 && x < p && e.overshootCell(previous, exact, c) {
				out = x + 1
				setZeros = true
			}
		default: // x > p: unreachable without an erase
			out = p
			setOnes = true
		}
		approx = setCellAt(approx, c, out)
	}
	return approx
}

// Name implements Encoder.
func (e *NCell) Name() string { return fmt.Sprintf("%d-cell", e.n) }

// overshootCell decides, with a lookahead window of n-1 cells below cell c,
// whether writing exact's cell level + 1 (then saturating low) beats writing
// the exact level and continuing greedily. The minimax rule mirrors
// DeriveTable with radix 4: overshoot iff 4^m - eRest < eRest - gRest + 1,
// where eRest is the lookahead value of exact and gRest what the greedy
// clamp can still recover assuming nothing below the window is reachable.
// The caller only asks when n > 1, so the window holds at least one cell.
func (e *NCell) overshootCell(previous, exact uint32, c int) bool {
	m := e.n - 1
	// Walk lookahead cells c-1 .. c-m (cells below index 0 read as zero).
	var eRest, gRest uint32
	setOnes := false
	for k := 1; k <= m; k++ {
		cc := c - k
		var p, x uint32
		if cc >= 0 {
			p = cellAt(previous, cc)
			x = cellAt(exact, cc)
		}
		g := x
		if setOnes {
			g = p
		} else if x > p {
			setOnes = true
			g = p
		}
		eRest = eRest<<CellBits | x
		gRest = gRest<<CellBits | g
	}
	span := uint32(1) << uint(2*m) // 4^m
	return span-eRest < eRest-gRest+1
}

// cellAt extracts cell c (0 = least significant cell) of v.
func cellAt(v uint32, c int) uint32 {
	return (v >> uint(CellBits*c)) & (cellLevels - 1)
}

// setCellAt returns v with cell c set to level.
func setCellAt(v uint32, c int, level uint32) uint32 {
	shift := uint(CellBits * c)
	return v&^(uint32(cellLevels-1)<<shift) | level<<shift
}
