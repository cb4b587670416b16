package nn

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/datasets"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// tinyModel builds a fast 2-class MLP with a streaming test set.
func tinyModel(t *testing.T) (*Network, *datasets.Set) {
	t.Helper()
	rng := xrand.New(100)
	net := &Network{Name: "tiny", Layers: []Layer{
		NewDense(16, 24, rng), NewReLU(24), NewDense(24, 2, rng),
	}}
	set := &datasets.Set{Name: "t", InputShape: []int{16}, NumClasses: 2}
	gen := xrand.New(101)
	protos := [][]float32{make([]float32, 16), make([]float32, 16)}
	for j := range protos[0] {
		protos[0][j] = float32(gen.NormFloat64())
		protos[1][j] = float32(gen.NormFloat64())
	}
	sample := func(c int, noise float64) []float32 {
		x := make([]float32, 16)
		for j := range x {
			x[j] = protos[c][j] + float32(gen.NormFloat64()*noise)
		}
		return x
	}
	for i := 0; i < 200; i++ {
		c := gen.Intn(2)
		set.TrainX = append(set.TrainX, sample(c, 0.3))
		set.TrainY = append(set.TrainY, c)
	}
	for r := 0; r < 10; r++ {
		c := gen.Intn(2)
		for k := 0; k < 6; k++ {
			set.TestX = append(set.TestX, sample(c, 0.1))
			set.TestY = append(set.TestY, c)
		}
	}
	net.Fit(set, 15, 0.05)
	return net, set
}

func newRunner(t *testing.T, net *Network, set *datasets.Set) (*FlashRunner, *core.Device) {
	t.Helper()
	spec := flash.DefaultSpec()
	dev := core.MustNewDevice(spec)
	r, err := NewFlashRunner(net, dev, set.TrainX[:10])
	if err != nil {
		t.Fatal(err)
	}
	return r, dev
}

// TestFlashInferenceLosslessAtZeroThreshold: threshold 0 must reproduce the
// quantized network's decisions exactly.
func TestFlashInferenceLosslessAtZeroThreshold(t *testing.T) {
	net, set := tinyModel(t)
	r, dev := newRunner(t, net, set)
	dev.SetThreshold(0)
	acc, err := r.Evaluate(set, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Quantization alone may cost a little; flash must not add more.
	// Verify by predicting again with plain float inference.
	floatAcc := floatAccuracy(net, set)
	if acc < floatAcc-0.05 {
		t.Errorf("flash-backed accuracy %.3f well below float accuracy %.3f", acc, floatAcc)
	}
}

// TestFlashInferenceSavesEnergyOnStream: a moderate threshold on a
// correlated stream must reduce flash energy without hurting accuracy —
// the core DNN claim of the paper.
func TestFlashInferenceSavesEnergyOnStream(t *testing.T) {
	net, set := tinyModel(t)

	rBase, devBase := newRunner(t, net, set)
	devBase.SetThreshold(0)
	baseAcc, err := rBase.Evaluate(set, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseStats := devBase.Flash().Stats()

	rFB, devFB := newRunner(t, net, set)
	devFB.SetThreshold(4)
	fbAcc, err := rFB.Evaluate(set, 0)
	if err != nil {
		t.Fatal(err)
	}
	fbStats := devFB.Flash().Stats()

	if fbStats.Energy >= baseStats.Energy {
		t.Errorf("FlipBit energy %v >= baseline %v", fbStats.Energy, baseStats.Energy)
	}
	if fbStats.Erases >= baseStats.Erases {
		t.Errorf("FlipBit erases %d >= baseline %d", fbStats.Erases, baseStats.Erases)
	}
	if fbAcc < baseAcc-0.05 {
		t.Errorf("accuracy dropped %.3f → %.3f at threshold 4", baseAcc, fbAcc)
	}
}

// TestThresholdMonotoneEnergy: higher thresholds must not increase energy.
func TestThresholdMonotoneEnergy(t *testing.T) {
	net, set := tinyModel(t)
	var prev float64 = -1
	for _, thr := range []float64{0, 2, 8, 32} {
		r, dev := newRunner(t, net, set)
		dev.SetThreshold(thr)
		if _, err := r.Evaluate(set, 0); err != nil {
			t.Fatal(err)
		}
		red := float64(dev.Flash().Stats().Energy)
		if prev >= 0 && red > prev*1.02 {
			t.Errorf("threshold %v: energy %v above previous %v", thr, red, prev)
		}
		prev = red
	}
}

// TestActivationBytes: one inference writes each layer's activations to
// flash, one byte per output: 24 + 24 + 2 for the tiny model.
func TestActivationBytes(t *testing.T) {
	net, set := tinyModel(t)
	r, dev := newRunner(t, net, set)
	dev.ResetStats()
	if _, err := r.Infer(set.TestX[0]); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().ValuesTotal; got != 24+24+2 {
		t.Errorf("activation bytes written per inference = %d, want 50", got)
	}
}

func TestNewFlashRunnerNeedsCalibration(t *testing.T) {
	net, _ := tinyModel(t)
	dev := core.MustNewDevice(flash.DefaultSpec())
	if _, err := NewFlashRunner(net, dev, nil); err == nil {
		t.Error("empty calibration should fail")
	}
}

func TestNewFlashRunnerRejectsTooSmallFlash(t *testing.T) {
	net, set := tinyModel(t)
	spec := flash.DefaultSpec()
	spec.PageSize = 32
	spec.NumPages = 1
	dev := core.MustNewDevice(spec)
	if _, err := NewFlashRunner(net, dev, set.TrainX[:2]); err == nil {
		t.Error("3-layer activations cannot fit one 32-byte page")
	}
}

// TestCalibrateLayersCoversActivations: quantizers must cover the observed
// activation ranges of the calibration inputs.
func TestCalibrateLayersCoversActivations(t *testing.T) {
	net, set := tinyModel(t)
	qs := CalibrateLayers(net, set.TrainX[:10])
	if len(qs) != len(net.Layers) {
		t.Fatalf("%d quantizers for %d layers", len(qs), len(net.Layers))
	}
	for _, x := range set.TrainX[:10] {
		act := x
		for li, l := range net.Layers {
			act = l.Forward(act)
			for _, v := range act {
				q := qs[li]
				back := q.Dequantize(q.Quantize(v))
				if diff := float64(back - v); diff > float64(q.Scale)+1e-5 || diff < -float64(q.Scale)-1e-5 {
					t.Fatalf("layer %d: value %v quantizes to %v (scale %v)", li, v, back, q.Scale)
				}
			}
		}
	}
}
