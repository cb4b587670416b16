// Package core implements the FlipBit controller — the paper's primary
// contribution (§III). The controller sits between the flash chip's SRAM
// write buffers and the memory array. On every page commit it decides, from
// the previous page contents, a per-value approximation and a
// programmer-supplied error threshold, whether the page can be written with
// cheap 1→0 programs only or must fall back to an exact erase-and-program.
package core

import "errors"

// ThresholdFracBits is the number of fractional bits in the threshold
// register. The DNN experiments use sub-integer thresholds (e.g. 0.1), so
// the hardware compares sum(|err|) << 16 against threshold * count.
const ThresholdFracBits = 16

// Errors returned by the register setters and the write path.
var (
	ErrBadWidth  = errors.New("core: width register must be 8, 16 or 32")
	ErrBadRegion = errors.New("core: approximatable region must be page aligned with start <= end")
)

// ThresholdToFixed converts a floating MAE threshold to the Q16.16 register
// encoding, saturating at the register's maximum.
func ThresholdToFixed(mae float64) uint32 {
	if mae <= 0 {
		return 0
	}
	f := mae * (1 << ThresholdFracBits)
	if f >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(f)
}

// FixedToThreshold converts the Q16.16 register encoding back to a float.
func FixedToThreshold(v uint32) float64 {
	return float64(v) / (1 << ThresholdFracBits)
}
