package core

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestThresholdUnlimitedDisablesGate: the all-ones register value, which
// SetThreshold saturates to at 65536 and above, commits every
// approximatable page erase-free regardless of error.
func TestThresholdUnlimitedDisablesGate(t *testing.T) {
	d := MustNewDevice(testSpec())
	_ = d.SetApproxRegion(0, d.Flash().Spec().Size())
	d.SetThreshold(65536)
	if d.threshold != ThresholdUnlimited {
		t.Fatalf("threshold register = %#x, want ThresholdUnlimited", d.threshold)
	}
	ps := d.Flash().Spec().PageSize
	rng := xrand.New(3)
	buf := make([]byte, ps)
	_ = d.Write(0, buf) // zero page
	for round := 0; round < 10; round++ {
		for i := range buf {
			buf[i] = rng.Byte()
		}
		if err := d.Write(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().PagesExact != 0 {
		t.Errorf("unlimited threshold still fell back %d times", d.Stats().PagesExact)
	}
	if d.Flash().Stats().Erases != 0 {
		t.Errorf("unlimited threshold erased %d times", d.Flash().Stats().Erases)
	}
}

func TestMetricAndPolicyStrings(t *testing.T) {
	if MetricMAE.String() != "MAE" || MetricMSE.String() != "MSE" {
		t.Error("metric strings")
	}
	if FallbackPerPage.String() != "per-page" || FallbackPerValue.String() != "per-value" {
		t.Error("policy strings")
	}
}
