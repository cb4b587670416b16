package approx

import "github.com/flipbit-sim/flipbit/internal/bits"

// ErrorTracker accumulates the error between exact and approximated values
// across a flash page, mirroring the hardware of Fig. 9 (absolute difference
// plus accumulator). The paper gates approximate writes on the mean absolute
// error (MAE) because it is cheaper in hardware than mean squared error;
// both are tracked here so the MAE-vs-MSE design choice can be ablated.
type ErrorTracker struct {
	sumAbs uint64
	sumSq  uint64
	count  uint64
}

// Add records one (exact, approx) pair.
func (t *ErrorTracker) Add(exact, approx uint32) {
	d := uint64(bits.AbsDiff(exact, approx))
	t.sumAbs += d
	t.sumSq += d * d
	t.count++
}

// AddBatch folds the sums a batch kernel computed in-kernel (BatchStats)
// into the tracker, equivalent to count individual Add calls.
func (t *ErrorTracker) AddBatch(count, sumAbs, sumSq uint64) {
	t.sumAbs += sumAbs
	t.sumSq += sumSq
	t.count += count
}

// Count returns the number of values recorded.
func (t *ErrorTracker) Count() int { return int(t.count) }

// SumAbs returns the accumulated absolute error.
func (t *ErrorTracker) SumAbs() uint64 { return t.sumAbs }

// MAE returns the mean absolute error, or 0 for an empty tracker.
func (t *ErrorTracker) MAE() float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.sumAbs) / float64(t.count)
}

// MSE returns the mean squared error, or 0 for an empty tracker.
func (t *ErrorTracker) MSE() float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.sumSq) / float64(t.count)
}
