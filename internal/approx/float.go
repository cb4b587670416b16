package approx

import (
	"fmt"
	"math"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// Floating-point extension (§VI "Floating-Point"): FlipBit approximates the
// low M bits of a float32's mantissa while keeping the sign and exponent
// bits precise. More error-tolerant applications use larger M.
//
// The float travels through the flash datapath as its IEEE-754 bit pattern
// (a uint32), so the Float32 encoder composes with the same controller and
// hardware as the integer encoders — only the error *semantics* change,
// which is why §VI notes the error-calculation hardware would switch to
// floating-point adders/subtractors.

// Float32 approximates the low M mantissa bits of IEEE-754 single-precision
// values using an inner bit-level encoder, leaving sign, exponent and the
// high mantissa bits exact. If the precise part cannot be written without
// 0 → 1 flips, the value is returned exactly (forcing the controller's
// erase fallback), because corrupting an exponent is never acceptable.
type Float32 struct {
	m     int     // approximatable low-mantissa bits, 1..23
	inner Encoder // bit-level encoder applied to the low-mantissa field
}

// NewFloat32 builds the encoder. m is the number of low mantissa bits that
// may be approximated (1..23); inner defaults to the 2-bit algorithm.
func NewFloat32(m int, inner Encoder) (*Float32, error) {
	if m < 1 || m > 23 {
		return nil, fmt.Errorf("approx: float32 mantissa window must be 1..23, got %d", m)
	}
	if inner == nil {
		inner = MustNBit(2)
	}
	return &Float32{m: m, inner: inner}, nil
}

// MustFloat32 is NewFloat32 for static configurations known to be valid.
func MustFloat32(m int, inner Encoder) *Float32 {
	e, err := NewFloat32(m, inner)
	if err != nil {
		panic(err)
	}
	return e
}

// Approximate implements Encoder over IEEE-754 bit patterns. Width must be
// W32; other widths return exact (the controller will fall back).
func (e *Float32) Approximate(previous, exact uint32, w bits.Width) uint32 {
	if w != bits.W32 {
		return exact & w.Mask()
	}
	lowMask := uint32(1)<<uint(e.m) - 1
	hiMask := ^lowMask

	// The precise part (sign, exponent, high mantissa) must be writable
	// as-is; otherwise only an erase can store this value faithfully.
	if !bits.IsSubset(exact&hiMask, previous&hiMask) {
		return exact
	}
	low := e.inner.Approximate(previous&lowMask, exact&lowMask, bits.W32) & lowMask
	return exact&hiMask | low
}

// Name implements Encoder.
func (e *Float32) Name() string {
	return fmt.Sprintf("float32-m%d/%s", e.m, e.inner.Name())
}

// RelativeError returns |exact-approx| / |exact| for two float32 bit
// patterns, the quality metric that matters for floating-point data.
// A zero exact value with nonzero approx reports +Inf.
func RelativeError(exactBits, approxBits uint32) float64 {
	ev := float64(math.Float32frombits(exactBits))
	av := float64(math.Float32frombits(approxBits))
	if ev == av {
		return 0
	}
	if ev == 0 {
		return math.Inf(1)
	}
	return math.Abs(ev-av) / math.Abs(ev)
}

// MaxRelativeError bounds the relative error the encoder can introduce for
// normal floats: approximating the low m of 23 mantissa bits perturbs the
// significand by less than 2^(m-23).
func (e *Float32) MaxRelativeError() float64 {
	return math.Pow(2, float64(e.m-23))
}
