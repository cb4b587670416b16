// Package approx implements the FlipBit value-approximation algorithms from
// §III-A of the paper.
//
// All algorithms answer the same question: given the value previously stored
// in a group of flash cells (previous) and the value the program wants to
// store (exact), what is a good value (approx) that can be written using only
// 1 → 0 transitions — that is, approx must be a bitwise subset of previous —
// so that no page erase is required?
//
// Three encoders are provided:
//
//   - Optimal: an O(n) exact solver producing the minimum-error result of
//     the paper's baseline formulation, which enumerates the 2^m subsets of
//     the m set bits of previous (that enumeration, OptimalBrute, is the
//     oracle in this package's tests).
//   - OneBit: Algorithm 1 — scan MSB→LSB deciding from the current bit only.
//   - NBit: Algorithm 2 — like OneBit but consulting a precomputed minimax
//     truth table over an n-bit lookahead window (Table II for n = 2).
//
// A multi-level-cell variant (§VI) lives in mlc.go and error metrics in
// metrics.go. kernel.go compiles OneBit, NBit and the MLC variant into one
// batch kernel, the same find-first-break chain over one-bit or two-bit
// cells.
package approx

import (
	"fmt"
	"sync"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// MaxN is the largest supported lookahead window of the n-bit algorithm.
// The paper evaluates and synthesizes hardware for n up to 8 (§III-B).
const MaxN = 8

// Encoder produces an erase-free approximation of exact given the previous
// cell contents. Implementations must guarantee that the result is a bitwise
// subset of previous (only 1→0 transitions needed) and fits in width w.
type Encoder interface {
	// Approximate returns the approximated value to write.
	Approximate(previous, exact uint32, w bits.Width) uint32
	// Name identifies the encoder in reports and benchmarks.
	Name() string
}

// OneBit implements Algorithm 1: the one-bit approximation.
//
// Scanning from the most significant bit, an output bit is set when the
// previous bit allows it (previous[i] == 1) and either the exact bit wants it
// or an earlier, more significant exact bit could not be satisfied (setOnes),
// in which case the result is already strictly below exact and every
// remaining permitted bit should be set to close the gap.
type OneBit struct{}

// Approximate implements Encoder.
func (OneBit) Approximate(previous, exact uint32, w bits.Width) uint32 {
	previous &= w.Mask()
	exact &= w.Mask()
	var approx uint32
	setOnes := false
	for i := int(w) - 1; i >= 0; i-- {
		switch {
		case bits.Bit(previous, i) == 1:
			if bits.Bit(exact, i) == 1 || setOnes {
				approx = bits.SetBit(approx, i, 1)
			}
		case bits.Bit(exact, i) == 1:
			// The exact value needs a bit we cannot set without an
			// erase: everything below should round up (Alg. 1 line 9).
			setOnes = true
		}
	}
	return approx
}

// Name implements Encoder.
func (OneBit) Name() string { return "1-bit" }

// NBit implements Algorithm 2: the n-bit approximation with an n-bit
// lookahead window and a minimax-derived truth table. It also carries the
// compiled batch kernel over one-bit cells (kernel.go), so it satisfies
// BatchEncoder.
type NBit struct {
	n     int
	table *Table
	kern  *kernel
}

// tableCache holds the derived truth tables, one per window size; deriving
// the n = 8 table touches 4^7 entries, so it is worth doing exactly once.
var tableCache [MaxN + 1]struct {
	once  sync.Once
	table *Table
}

// cachedTable returns the shared table for window size n (1 <= n <= MaxN).
func cachedTable(n int) *Table {
	c := &tableCache[n]
	c.once.Do(func() { c.table = DeriveTable(n) })
	return c.table
}

// NewNBit returns the n-bit encoder for 1 <= n <= MaxN. For n == 1 it
// behaves identically to OneBit (the first two truth-table rows).
func NewNBit(n int) (*NBit, error) {
	if n < 1 || n > MaxN {
		return nil, fmt.Errorf("approx: n-bit window must be in [1,%d], got %d", MaxN, n)
	}
	return &NBit{n: n, table: cachedTable(n), kern: cachedKernel(1, n)}, nil
}

// MustNBit is NewNBit for static configurations known to be valid.
func MustNBit(n int) *NBit {
	e, err := NewNBit(n)
	if err != nil {
		panic(err)
	}
	return e
}

// N returns the lookahead window size.
func (e *NBit) N() int { return e.n }

// Approximate implements Encoder.
//
// The loop mirrors the hardware chain of Fig. 7: per bit position a slice
// sees n bits of exact and previous (zero padded below bit 0) plus the
// propagated setOnes/setZeros flags.
func (e *NBit) Approximate(previous, exact uint32, w bits.Width) uint32 {
	previous &= w.Mask()
	exact &= w.Mask()
	var approx uint32
	setOnes, setZeros := false, false
	for i := int(w) - 1; i >= 0; i-- {
		b, newOnes, newZeros := e.table.Decide(
			bits.Field(exact, i, e.n),
			bits.Field(previous, i, e.n),
			setOnes, setZeros,
		)
		approx = bits.SetBit(approx, i, b)
		setOnes, setZeros = newOnes, newZeros
	}
	return approx
}

// Name implements Encoder.
func (e *NBit) Name() string { return fmt.Sprintf("%d-bit", e.n) }

// Exact is a pass-through encoder: it always returns the exact value.
// It models a system without FlipBit and is used as the precise baseline.
type Exact struct{}

// Approximate implements Encoder. Note the result may NOT be a subset of
// previous; writing it may require an erase. This is intentional: Exact
// represents the conventional write path.
func (Exact) Approximate(_, exact uint32, w bits.Width) uint32 { return exact & w.Mask() }

// Name implements Encoder.
func (Exact) Name() string { return "exact" }
