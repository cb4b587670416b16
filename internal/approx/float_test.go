package approx

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func TestNewFloat32Range(t *testing.T) {
	for _, m := range []int{0, -1, 24} {
		if _, err := NewFloat32(m, nil); err == nil {
			t.Errorf("m=%d should fail", m)
		}
	}
	e, err := NewFloat32(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.m != 8 || e.Name() != "float32-m8/2-bit" {
		t.Errorf("unexpected encoder: %s", e.Name())
	}
}

// TestFloat32PreservesSignExponent: sign, exponent and high mantissa bits
// must never be approximated.
func TestFloat32PreservesSignExponent(t *testing.T) {
	e := MustFloat32(10, nil)
	f := func(p, x uint32) bool {
		got := e.Approximate(p, x, bits.W32)
		hiMask := ^(uint32(1)<<10 - 1)
		return got&hiMask == x&hiMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFloat32RelativeErrorBounded: for normal floats the relative error is
// below the encoder's analytic bound.
func TestFloat32RelativeErrorBounded(t *testing.T) {
	rng := xrand.New(5)
	for _, m := range []int{4, 8, 12, 16} {
		e := MustFloat32(m, nil)
		bound := e.MaxRelativeError()
		for i := 0; i < 20000; i++ {
			// Normal floats in a reasonable magnitude band.
			exact := float32(rng.NormFloat64() * 100)
			prev := float32(rng.NormFloat64() * 100)
			if exact == 0 {
				continue
			}
			eb := math.Float32bits(exact)
			pb := math.Float32bits(prev)
			got := e.Approximate(pb, eb, bits.W32)
			if rel := RelativeError(eb, got); rel > bound {
				t.Fatalf("m=%d: relative error %g exceeds bound %g (exact %v)", m, rel, bound, exact)
			}
		}
	}
}

// TestFloat32ExactWhenUnreachable: if the precise part needs 0→1 flips the
// encoder must return the exact value (forcing the erase fallback) rather
// than corrupt the exponent.
func TestFloat32ExactWhenUnreachable(t *testing.T) {
	e := MustFloat32(8, nil)
	prev := math.Float32bits(1.0)  // exponent 127
	exact := math.Float32bits(4.0) // exponent 129: needs a 0→1 flip
	if got := e.Approximate(prev, exact, bits.W32); got != exact {
		t.Errorf("unreachable exponent should return exact; got %#x want %#x", got, exact)
	}
}

// TestFloat32SubsetWhenReachable: when the precise part is writable, the
// full result must be writable too (low bits come from a subset encoder).
func TestFloat32SubsetWhenReachable(t *testing.T) {
	e := MustFloat32(12, nil)
	f := func(p, x uint32) bool {
		hiMask := ^(uint32(1)<<12 - 1)
		p |= x & hiMask // force the precise part reachable
		got := e.Approximate(p, x, bits.W32)
		return bits.IsSubset(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFloat32LargerMMoreError: growing the approximatable window must not
// shrink the mean relative error on correlated data.
func TestFloat32LargerMMoreError(t *testing.T) {
	rng := xrand.New(9)
	meanRel := func(m int) float64 {
		e := MustFloat32(m, nil)
		var sum float64
		const n = 5000
		for i := 0; i < n; i++ {
			base := rng.NormFloat64()*50 + 100
			exact := float32(base)
			prev := float32(base * (1 + 0.01*rng.NormFloat64()))
			eb, pb := math.Float32bits(exact), math.Float32bits(prev)
			sum += RelativeError(eb, e.Approximate(pb, eb, bits.W32))
		}
		return sum / n
	}
	m4, m12, m20 := meanRel(4), meanRel(12), meanRel(20)
	if !(m4 <= m12+1e-12 && m12 <= m20+1e-12) {
		t.Errorf("relative error not monotone in M: m4=%g m12=%g m20=%g", m4, m12, m20)
	}
	if m20 == 0 {
		t.Error("m=20 introduced no error on correlated floats; encoder inert?")
	}
}

func TestFloat32NonW32Widths(t *testing.T) {
	e := MustFloat32(8, nil)
	if got := e.Approximate(0xFF, 0xAB, bits.W8); got != 0xAB {
		t.Errorf("non-W32 width should pass through exact, got %#x", got)
	}
}

func TestRelativeError(t *testing.T) {
	a := math.Float32bits(2.0)
	b := math.Float32bits(1.5)
	if rel := RelativeError(a, b); math.Abs(rel-0.25) > 1e-9 {
		t.Errorf("RelativeError(2,1.5) = %v, want 0.25", rel)
	}
	if RelativeError(a, a) != 0 {
		t.Error("identical values should have zero error")
	}
	if !math.IsInf(RelativeError(math.Float32bits(0), b), 1) {
		t.Error("zero exact with different approx should be +Inf")
	}
}
