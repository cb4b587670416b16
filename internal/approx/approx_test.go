package approx

import (
	"testing"
	"testing/quick"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// OptimalBrute is the paper's baseline approximation algorithm (§III-A1):
// it enumerates every bitwise subset of previous — 2^m candidates for m set
// bits — and returns the one minimising |exact - approx|. It is the oracle
// Optimal is validated against, and shows why the paper rejects this
// approach (exponential cost); do not use it on 32-bit values with many
// set bits.
type OptimalBrute struct{}

// Approximate implements Encoder. Ties between an under- and an
// over-approximation of equal error resolve to the smaller value; Optimal
// applies the same rule so the two encoders agree bit-for-bit.
func (OptimalBrute) Approximate(previous, exact uint32, w bits.Width) uint32 {
	previous &= w.Mask()
	exact &= w.Mask()
	best := uint32(0)
	bestErr := bits.AbsDiff(exact, 0)
	// Iterate subsets of previous in decreasing order, ending at 0.
	for sub := previous; sub != 0; sub = (sub - 1) & previous {
		err := bits.AbsDiff(exact, sub)
		if err < bestErr || (err == bestErr && sub < best) {
			best, bestErr = sub, err
		}
	}
	return best
}

// Name implements Encoder.
func (OptimalBrute) Name() string { return "optimal-brute" }

// TestPaperFig4OneBitExample replays the worked example of Fig. 4:
// previous = 0101, exact = 0011 yields approx = 0001 under Algorithm 1.
func TestPaperFig4OneBitExample(t *testing.T) {
	got := OneBit{}.Approximate(0b0101, 0b0011, bits.W8)
	if got != 0b0001 {
		t.Errorf("OneBit(0101, 0011) = %04b, want 0001", got)
	}
}

// TestPaperFig5TwoBitExample replays Fig. 5: the same inputs under the
// 2-bit algorithm yield approx = 0100 (error 1 instead of 2).
func TestPaperFig5TwoBitExample(t *testing.T) {
	got := MustNBit(2).Approximate(0b0101, 0b0011, bits.W8)
	if got != 0b0100 {
		t.Errorf("NBit(2)(0101, 0011) = %04b, want 0100", got)
	}
}

// TestPaperBaselineExample checks §III-A1's statement that the baseline
// algorithm yields 0100 (error 1) for the Fig. 4 inputs.
func TestPaperBaselineExample(t *testing.T) {
	for _, enc := range []Encoder{Optimal{}, OptimalBrute{}} {
		got := enc.Approximate(0b0101, 0b0011, bits.W8)
		if got != 0b0100 {
			t.Errorf("%s(0101, 0011) = %04b, want 0100", enc.Name(), got)
		}
	}
}

// TestDeriveTableMatchesPaperTableII asserts the minimax derivation
// reproduces Table II of the paper for n = 2, row by row.
func TestDeriveTableMatchesPaperTableII(t *testing.T) {
	want := []Row{
		{"x", "x", "0", "x", "0"},
		{"1", "x", "1", "x", "1"},
		{"0", "0", "1", "0", "0"},
		{"0", "0", "1", "1", "0"},
		{"0", "1", "1", "0", "1"},
		{"0", "1", "1", "1", "0"},
	}
	got := PaperTableII()
	if len(got) != len(want) {
		t.Fatalf("PaperTableII returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestNBit1EqualsOneBit: the n=1 table contains only the first two rows of
// Table II, so the 1-bit configuration of the n-bit hardware must match
// Algorithm 1 exactly (§III-B says the single circuit covers all n).
func TestNBit1EqualsOneBit(t *testing.T) {
	nb := MustNBit(1)
	for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
		f := func(p, e uint32) bool {
			return nb.Approximate(p, e, w) == (OneBit{}).Approximate(p, e, w)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %v: %v", w, err)
		}
	}
}

// TestSubsetInvariant: every encoder's output must be writable using only
// 1→0 transitions, i.e. a bitwise subset of previous. This is THE safety
// property of FlipBit — violating it would require a page erase.
func TestSubsetInvariant(t *testing.T) {
	encoders := []Encoder{OneBit{}, Optimal{}, OptimalBrute{}}
	for n := 1; n <= MaxN; n++ {
		encoders = append(encoders, MustNBit(n))
	}
	for _, enc := range encoders {
		enc := enc
		t.Run(enc.Name(), func(t *testing.T) {
			for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
				if enc.Name() == "optimal-brute" && w != bits.W8 {
					continue // exponential; 8-bit coverage is enough
				}
				f := func(p, e uint32) bool {
					a := enc.Approximate(p, e, w)
					return bits.IsSubset(a, p&w.Mask())
				}
				if err := quick.Check(f, nil); err != nil {
					t.Errorf("width %v: %v", w, err)
				}
			}
		})
	}
}

// TestOptimalMatchesBrute: the O(n) optimal encoder must agree with the
// exhaustive subset enumeration everywhere (8-bit exhaustive).
func TestOptimalMatchesBrute(t *testing.T) {
	for p := uint32(0); p < 256; p++ {
		for e := uint32(0); e < 256; e++ {
			fast := Optimal{}.Approximate(p, e, bits.W8)
			brute := OptimalBrute{}.Approximate(p, e, bits.W8)
			if fast != brute {
				t.Fatalf("Optimal(%08b,%08b) = %08b, brute = %08b", p, e, fast, brute)
			}
		}
	}
}

// TestOptimalMatchesBrute16 samples the 16-bit space.
func TestOptimalMatchesBrute16(t *testing.T) {
	rng := xrand.New(1)
	for i := 0; i < 300; i++ {
		p := rng.Uint32() & 0xFFFF
		e := rng.Uint32() & 0xFFFF
		fast := Optimal{}.Approximate(p, e, bits.W16)
		brute := OptimalBrute{}.Approximate(p, e, bits.W16)
		if fast != brute {
			t.Fatalf("Optimal(%016b,%016b) = %016b, brute = %016b", p, e, fast, brute)
		}
	}
}

// TestErrorOrdering: for every input, optimal error <= n-bit error <= 1-bit
// error is NOT guaranteed bit-for-bit between different n (the paper only
// claims it statistically), but optimal must lower-bound everything.
func TestErrorOrdering(t *testing.T) {
	encoders := []Encoder{OneBit{}}
	for n := 2; n <= MaxN; n++ {
		encoders = append(encoders, MustNBit(n))
	}
	for p := uint32(0); p < 256; p++ {
		for e := uint32(0); e < 256; e++ {
			optErr := bits.AbsDiff(e, Optimal{}.Approximate(p, e, bits.W8))
			for _, enc := range encoders {
				err := bits.AbsDiff(e, enc.Approximate(p, e, bits.W8))
				if err < optErr {
					t.Fatalf("%s beat optimal on p=%08b e=%08b (%d < %d)",
						enc.Name(), p, e, err, optErr)
				}
			}
		}
	}
}

// TestNBitMeanErrorImproves: averaged over uniform random data, the 2-bit
// algorithm must produce a strictly lower mean error than the 1-bit
// algorithm, and n=8 must be at least as good as n=2 — the trend of Fig 16.
func TestNBitMeanErrorImproves(t *testing.T) {
	rng := xrand.New(99)
	nb2, nb8 := MustNBit(2), MustNBit(8)
	var sum1, sum2, sum8, sumOpt float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		p := rng.Uint32() & 0xFF
		e := rng.Uint32() & 0xFF
		sum1 += float64(bits.AbsDiff(e, OneBit{}.Approximate(p, e, bits.W8)))
		sum2 += float64(bits.AbsDiff(e, nb2.Approximate(p, e, bits.W8)))
		sum8 += float64(bits.AbsDiff(e, nb8.Approximate(p, e, bits.W8)))
		sumOpt += float64(bits.AbsDiff(e, Optimal{}.Approximate(p, e, bits.W8)))
	}
	if !(sumOpt <= sum8 && sum8 <= sum2 && sum2 < sum1) {
		t.Errorf("mean abs errors not ordered: opt=%.2f n8=%.2f n2=%.2f n1=%.2f",
			sumOpt/trials, sum8/trials, sum2/trials, sum1/trials)
	}
}

// TestExactWhenRepresentable: when exact is already a subset of previous no
// error should be introduced by any encoder.
func TestExactWhenRepresentable(t *testing.T) {
	encoders := []Encoder{OneBit{}, Optimal{}}
	for n := 1; n <= MaxN; n++ {
		encoders = append(encoders, MustNBit(n))
	}
	f := func(p, e uint32) bool {
		e &= p // force representability
		for _, enc := range encoders {
			if enc.Approximate(p, e, bits.W32) != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSetToZeroIsFree: §V-A observes that clearing a value to zero never
// needs an erase; all encoders must return exactly 0 for exact == 0.
func TestSetToZeroIsFree(t *testing.T) {
	encoders := []Encoder{OneBit{}, Optimal{}, MustNBit(2), MustNBit(8)}
	f := func(p uint32) bool {
		for _, enc := range encoders {
			if enc.Approximate(p, 0, bits.W32) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewNBitRange(t *testing.T) {
	for _, n := range []int{0, -1, MaxN + 1} {
		if _, err := NewNBit(n); err == nil {
			t.Errorf("NewNBit(%d) should fail", n)
		}
	}
	for n := 1; n <= MaxN; n++ {
		e, err := NewNBit(n)
		if err != nil {
			t.Errorf("NewNBit(%d): %v", n, err)
			continue
		}
		if e.N() != n || e.table.N() != n {
			t.Errorf("NewNBit(%d): window %d, table window %d", n, e.N(), e.table.N())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNBit(0) should panic")
		}
	}()
	MustNBit(0)
}

func TestEncoderNames(t *testing.T) {
	if (OneBit{}).Name() != "1-bit" {
		t.Error("OneBit name")
	}
	if MustNBit(3).Name() != "3-bit" {
		t.Error("NBit name")
	}
	if (Exact{}).Name() != "exact" {
		t.Error("Exact name")
	}
	if MustNCell(1).Name() != "1-cell" {
		t.Error("NCell name")
	}
}

func TestExactEncoderPassThrough(t *testing.T) {
	f := func(p, e uint32) bool {
		return Exact{}.Approximate(p, e, bits.W16) == e&0xFFFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWidthMasking: encoders must ignore bits above the configured width.
func TestWidthMasking(t *testing.T) {
	enc := MustNBit(2)
	f := func(p, e uint32) bool {
		a := enc.Approximate(p, e, bits.W8)
		b := enc.Approximate(p&0xFF, e&0xFF, bits.W8)
		return a == b && a <= 0xFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
