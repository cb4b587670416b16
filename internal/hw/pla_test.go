package hw

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestPLAUnitMatchesAlgorithmExhaustive8: the two-level synthesized slices
// must agree with the algorithmic reference everywhere — an end-to-end
// check of Quine–McCluskey on the real FlipBit decision function.
func TestPLAUnitMatchesAlgorithmExhaustive8(t *testing.T) {
	for n := 1; n <= 3; n++ {
		u, err := NewPLAUnit(8, n)
		if err != nil {
			t.Fatal(err)
		}
		ref := approx.MustNBit(n)
		for p := uint32(0); p < 256; p++ {
			for e := uint32(0); e < 256; e++ {
				if got, want := u.Approximate(p, e, n), ref.Approximate(p, e, bits.W8); got != want {
					t.Fatalf("PLA n=%d p=%08b e=%08b: %08b != %08b", n, p, e, got, want)
				}
			}
		}
	}
}

// TestPLAMatchesStructural32: PLA and structural 32-bit units, two
// completely different syntheses of the same specification, must agree.
func TestPLAMatchesStructural32(t *testing.T) {
	pla, err := NewPLAUnit(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	structural, err := NewUnit(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(53)
	for i := 0; i < 500; i++ {
		p, e := rng.Uint32(), rng.Uint32()
		if got, want := pla.Approximate(p, e, 2), structural.Approximate(p, e, 2); got != want {
			t.Fatalf("p=%032b e=%032b: PLA %032b != structural %032b", p, e, got, want)
		}
	}
}

func TestPLAUnitValidation(t *testing.T) {
	if _, err := NewPLAUnit(8, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewPLAUnit(8, 5); err == nil {
		t.Error("n=5 accepted (PLA capped at 4)")
	}
	if _, err := NewPLAUnit(0, 2); err == nil {
		t.Error("width 0 accepted")
	}
}

// TestPLAGateScaling: the PLA form must grow much faster with n than the
// structural form — the reason the structural design exists.
func TestPLAGateScaling(t *testing.T) {
	pla2, err := NewPLAUnit(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pla4, err := NewPLAUnit(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if numGates(pla4.Circuit) <= numGates(pla2.Circuit) {
		t.Errorf("PLA gates should grow with n: n=2 %d, n=4 %d",
			numGates(pla2.Circuit), numGates(pla4.Circuit))
	}
	t.Logf("PLA gates: n=2 %d, n=4 %d", numGates(pla2.Circuit), numGates(pla4.Circuit))
}
