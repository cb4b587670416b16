package hw

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestUnitMatchesAlgorithmExhaustive8: the fixed-n hardware must equal the
// algorithmic reference on every 8-bit input pair, for every window size.
func TestUnitMatchesAlgorithmExhaustive8(t *testing.T) {
	for n := 1; n <= 8; n++ {
		u, err := NewUnit(8, n)
		if err != nil {
			t.Fatal(err)
		}
		ref := approx.MustNBit(n)
		for p := uint32(0); p < 256; p++ {
			for e := uint32(0); e < 256; e++ {
				hwOut := u.Approximate(p, e, n)
				swOut := ref.Approximate(p, e, bits.W8)
				if hwOut != swOut {
					t.Fatalf("n=%d p=%08b e=%08b: hw %08b != sw %08b", n, p, e, hwOut, swOut)
				}
			}
		}
	}
}

// TestUnitMatchesAlgorithm32Sampled: 32-bit unit vs reference on random
// values.
func TestUnitMatchesAlgorithm32Sampled(t *testing.T) {
	u, err := NewUnit(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := approx.MustNBit(2)
	rng := xrand.New(41)
	for i := 0; i < 2000; i++ {
		p, e := rng.Uint32(), rng.Uint32()
		if got, want := u.Approximate(p, e, 2), ref.Approximate(p, e, bits.W32); got != want {
			t.Fatalf("p=%032b e=%032b: hw %032b != sw %032b", p, e, got, want)
		}
	}
}

// TestConfigurableUnitMatchesEveryN: the masked nmax = 8 hardware must
// reproduce every smaller window size exactly (§III-B's claim that the
// n = 8 table contains all smaller tables).
func TestConfigurableUnitMatchesEveryN(t *testing.T) {
	u, err := NewConfigurableUnit(8)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 8; n++ {
		ref := approx.MustNBit(n)
		for p := uint32(0); p < 256; p += 3 {
			for e := uint32(0); e < 256; e += 3 {
				hwOut := u.Approximate(p, e, n)
				swOut := ref.Approximate(p, e, bits.W8)
				if hwOut != swOut {
					t.Fatalf("cfg n=%d p=%08b e=%08b: hw %08b != sw %08b", n, p, e, hwOut, swOut)
				}
			}
		}
	}
}

// TestConfigurable32 spot-checks the full-width configurable unit.
func TestConfigurable32(t *testing.T) {
	u, err := NewConfigurableUnit(32)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(43)
	for _, n := range []int{1, 2, 4, 8} {
		ref := approx.MustNBit(n)
		for i := 0; i < 300; i++ {
			p, e := rng.Uint32(), rng.Uint32()
			if got, want := u.Approximate(p, e, n), ref.Approximate(p, e, bits.W32); got != want {
				t.Fatalf("n=%d: hw %032b != sw %032b", n, got, want)
			}
		}
	}
}

// TestHardcodedSmallerThanConfigurable: Table IV's key qualitative result —
// fixing n = 2 lets optimization shrink the design.
func TestHardcodedSmallerThanConfigurable(t *testing.T) {
	rows, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	cfg, fixed := rows[0], rows[1]
	if fixed.AreaUm2 >= cfg.AreaUm2 {
		t.Errorf("hardcoded area %.0f µm² >= configurable %.0f µm²", fixed.AreaUm2, cfg.AreaUm2)
	}
	if fixed.Power >= cfg.Power {
		t.Errorf("hardcoded power %v >= configurable %v", fixed.Power, cfg.Power)
	}
	if fixed.Gates >= cfg.Gates {
		t.Errorf("hardcoded gates %d >= configurable %d", fixed.Gates, cfg.Gates)
	}
}

// TestSoCShareTiny: the paper reports ≈0.1% of an M0+ SoC; our structural
// estimate must stay in that regime (well under 1%).
func TestSoCShareTiny(t *testing.T) {
	rows, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SoCShare <= 0 || r.SoCShare > 0.01 {
			t.Errorf("%s: SoC share %.4f%% outside (0, 1%%]", r.Config, r.SoCShare*100)
		}
	}
}

// TestTrackerMatchesReference: the Fig. 9 datapath must accumulate |e-a|
// and flag threshold crossings exactly.
func TestTrackerMatchesReference(t *testing.T) {
	tr, err := NewTracker(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(47)
	const threshold = 1000
	var acc uint64
	var ref uint64
	for i := 0; i < 200; i++ {
		e := rng.Uint32() & 0xFF
		a := rng.Uint32() & 0xFF
		var over bool
		acc, over = tr.Step(acc, e, a, threshold)
		d := uint64(bits.AbsDiff(e, a))
		ref += d
		if acc != ref {
			t.Fatalf("step %d: acc %d != ref %d", i, acc, ref)
		}
		if over != (ref >= threshold) {
			t.Fatalf("step %d: over=%v, ref=%d thr=%d", i, over, ref, threshold)
		}
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 16); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewTracker(16, 16); err == nil {
		t.Error("accumulator narrower than width+1 accepted")
	}
}

func TestUnitValidation(t *testing.T) {
	if _, err := NewUnit(0, 2); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewUnit(8, 0); err == nil {
		t.Error("n 0 accepted")
	}
	if _, err := NewUnit(8, 9); err == nil {
		t.Error("n 9 accepted")
	}
	if _, err := NewConfigurableUnit(33); err == nil {
		t.Error("width 33 accepted")
	}
}

// TestUnitGateScale sanity-checks the synthesis numbers' scale: one value
// circuit must be in the hundreds-to-thousands of gates, not millions — the
// paper's point is that this hardware is tiny.
func TestUnitGateScale(t *testing.T) {
	u, err := NewConfigurableUnit(32)
	if err != nil {
		t.Fatal(err)
	}
	gatesN := numGates(u.Circuit)
	if gatesN < 100 || gatesN > 20000 {
		t.Errorf("configurable 32-bit unit = %d gates; expected hundreds to thousands", gatesN)
	}
	t.Logf("configurable unit: %d gates, depth %d", gatesN, u.Circuit.Depth())
}
