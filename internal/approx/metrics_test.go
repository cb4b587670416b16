package approx

import "testing"

func TestErrorTrackerMAE(t *testing.T) {
	var tr ErrorTracker
	tr.Add(10, 7) // err 3
	tr.Add(5, 5)  // err 0
	tr.Add(0, 9)  // err 9
	if tr.Count() != 3 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if tr.SumAbs() != 12 {
		t.Errorf("SumAbs = %d, want 12", tr.SumAbs())
	}
	if got := tr.MAE(); got != 4 {
		t.Errorf("MAE = %v, want 4", got)
	}
	if got := tr.MSE(); got != (9+0+81)/3.0 {
		t.Errorf("MSE = %v, want 30", got)
	}
}

func TestErrorTrackerEmpty(t *testing.T) {
	var tr ErrorTracker
	if tr.MAE() != 0 || tr.MSE() != 0 || tr.Count() != 0 {
		t.Error("empty tracker should report zeros")
	}
}
