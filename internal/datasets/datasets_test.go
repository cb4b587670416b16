package datasets

import (
	"math"
	"testing"
)

func TestShapes(t *testing.T) {
	cases := []struct {
		set  *Set
		want int
	}{
		{MNISTLike(20, 20, 1), 28 * 28},
		{HARLike(20, 20, 2), 128 * 9},
		{ECGLike(20, 20, 3), 187},
	}
	for _, c := range cases {
		n := 1
		for _, d := range c.set.InputShape {
			n *= d
		}
		if n != c.want {
			t.Errorf("%s: input shape %v holds %d values, want %d", c.set.Name, c.set.InputShape, n, c.want)
		}
		if len(c.set.TrainX) != 20 || len(c.set.TestX) != 20 {
			t.Errorf("%s: wrong split sizes", c.set.Name)
		}
		for _, x := range c.set.TrainX {
			if len(x) != c.want {
				t.Fatalf("%s: sample length %d", c.set.Name, len(x))
			}
		}
	}
}

func TestLabelsInRange(t *testing.T) {
	for _, set := range []*Set{MNISTLike(50, 50, 4), HARLike(50, 50, 5), ECGLike(50, 50, 6)} {
		for _, y := range append(append([]int{}, set.TrainY...), set.TestY...) {
			if y < 0 || y >= set.NumClasses {
				t.Errorf("%s: label %d out of [0,%d)", set.Name, y, set.NumClasses)
			}
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := MNISTLike(10, 10, 42)
	b := MNISTLike(10, 10, 42)
	for i := range a.TrainX {
		for j := range a.TrainX[i] {
			if a.TrainX[i][j] != b.TrainX[i][j] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c := MNISTLike(10, 10, 43)
	diff := false
	for j := range a.TrainX[0] {
		if a.TrainX[0][j] != c.TrainX[0][j] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestAllClassesPresent(t *testing.T) {
	set := MNISTLike(300, 100, 7)
	seen := map[int]bool{}
	for _, y := range set.TrainY {
		seen[y] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d of 10 classes in training data", len(seen))
	}
}

// meanDelta computes the average L1 distance between consecutive samples.
func meanDelta(xs [][]float32) float64 {
	var total float64
	count := 0
	for i := 1; i < len(xs); i++ {
		var d float64
		for j := range xs[i] {
			d += math.Abs(float64(xs[i][j] - xs[i-1][j]))
		}
		total += d / float64(len(xs[i]))
		count++
	}
	return total / float64(count)
}

// TestStreamCorrelation: the test split must be a temporally correlated
// stream — consecutive samples much closer than shuffled training samples.
// This property carries the paper's inter-inference similarity (§V-A).
func TestStreamCorrelation(t *testing.T) {
	for _, set := range []*Set{MNISTLike(64, 64, 8), HARLike(64, 64, 9), ECGLike(64, 64, 10)} {
		test := meanDelta(set.TestX)
		train := meanDelta(set.TrainX)
		if test >= train*0.8 {
			t.Errorf("%s: test stream Δ %.4f not much below train Δ %.4f", set.Name, test, train)
		}
	}
}

func TestECGClassesDiffer(t *testing.T) {
	set := ECGLike(200, 0, 11)
	// Mean absolute difference between a normal and an abnormal beat
	// should exceed in-class jitter.
	var normal, abnormal []float32
	for i, y := range set.TrainY {
		if y == 0 && normal == nil {
			normal = set.TrainX[i]
		}
		if y == 1 && abnormal == nil {
			abnormal = set.TrainX[i]
		}
	}
	if normal == nil || abnormal == nil {
		t.Fatal("both classes should appear in 200 samples")
	}
}
