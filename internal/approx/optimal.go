package approx

import "github.com/flipbit-sim/flipbit/internal/bits"

// Optimal computes the minimum-error erase-free value in O(width) time: the
// same result as the paper's baseline, which enumerates every subset of
// previous (OptimalBrute, the oracle in this package's tests). It considers
// the best under-approximation (which is exactly what Algorithm 1 produces)
// and the best over-approximation, and keeps whichever is closer to exact
// (ties go to the smaller value).
type Optimal struct{}

// Approximate implements Encoder.
func (Optimal) Approximate(previous, exact uint32, w bits.Width) uint32 {
	previous &= w.Mask()
	exact &= w.Mask()

	below := OneBit{}.Approximate(previous, exact, w)
	above, ok := minSupersetAbove(previous, exact, w)
	if !ok {
		return below
	}
	errBelow := exact - below
	errAbove := above - exact
	if errAbove < errBelow {
		return above
	}
	return below // ties resolve below: below <= exact <= above
}

// Name implements Encoder.
func (Optimal) Name() string { return "optimal" }

// minSupersetAbove returns the smallest value v >= exact with v a subset of
// previous, and whether one exists.
//
// If exact itself is a subset of previous it is the answer. Otherwise v must
// first differ from exact at some bit j where v has 1 and exact has 0; for v
// to be minimal all bits below j are 0, bits above j must equal exact's
// (which requires every set exact bit above j to be present in previous),
// and previous[j] must be 1. Scanning j from the LSB upward finds the
// smallest such v.
func minSupersetAbove(previous, exact uint32, w bits.Width) (uint32, bool) {
	if bits.IsSubset(exact, previous) {
		return exact, true
	}
	for j := 0; j < int(w); j++ {
		if bits.Bit(previous, j) == 0 || bits.Bit(exact, j) == 1 {
			continue
		}
		hiMask := ^(uint32(1)<<uint(j+1) - 1) & w.Mask()
		hi := exact & hiMask
		if !bits.IsSubset(hi, previous) {
			continue // a higher exact bit is unrepresentable
		}
		return hi | 1<<uint(j), true
	}
	return 0, false
}
