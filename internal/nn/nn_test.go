package nn

import (
	"math"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/datasets"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// floatAccuracy returns the fraction of test samples net classifies
// correctly by plain float inference — the reference the flash-backed
// runner's accuracy is judged against.
func floatAccuracy(net *Network, set *datasets.Set) float64 {
	correct := 0
	for i := range set.TestX {
		if decide(net.Forward(set.TestX[i]), net.Binary) == set.TestY[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(set.TestX))
}

// numericGradCheck compares analytic parameter gradients against central
// differences for a tiny network, the canonical backprop correctness test.
func TestDenseGradientCheck(t *testing.T) {
	rng := xrand.New(1)
	d := NewDense(4, 3, rng)
	net := &Network{Name: "g", Layers: []Layer{d, NewReLU(3), NewDense(3, 2, rng)}}
	x := []float32{0.3, -0.7, 0.9, 0.1}
	label := 1

	loss := func() float32 {
		out := net.Forward(x)
		probs := softmax(out)
		return -log32(clamp32(probs[label], 1e-9, 1))
	}

	// Analytic gradient of d.W[0] via one TrainStep on a clone-free path:
	// compute by hand using Backward.
	out := net.Forward(x)
	probs := softmax(out)
	grad := make([]float32, len(out))
	copy(grad, probs)
	grad[label] -= 1
	g := grad
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	analytic := make([]float32, len(d.W))
	copy(analytic, d.gw)
	// Clear accumulated grads without stepping.
	for _, l := range net.Layers {
		l.Update(0)
	}

	const eps = 1e-3
	for _, idx := range []int{0, 3, 7, 11} {
		orig := d.W[idx]
		d.W[idx] = orig + eps
		up := loss()
		d.W[idx] = orig - eps
		down := loss()
		d.W[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(float64(numeric-analytic[idx])) > 2e-2 {
			t.Errorf("dW[%d]: analytic %v vs numeric %v", idx, analytic[idx], numeric)
		}
	}
}

func TestConv2DGradientCheck(t *testing.T) {
	rng := xrand.New(2)
	c := NewConv2D(5, 5, 2, 3, 2, rng)
	net := &Network{Name: "g", Layers: []Layer{c, NewReLU(c.OutLen()), NewDense(c.OutLen(), 2, rng)}}
	x := make([]float32, 5*5*2)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	label := 0

	loss := func() float32 {
		out := net.Forward(x)
		probs := softmax(out)
		return -log32(clamp32(probs[label], 1e-9, 1))
	}
	out := net.Forward(x)
	probs := softmax(out)
	grad := make([]float32, len(out))
	copy(grad, probs)
	grad[label] -= 1
	g := grad
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	analytic := make([]float32, len(c.Wt))
	copy(analytic, c.gw)
	for _, l := range net.Layers {
		l.Update(0)
	}
	const eps = 1e-3
	for _, idx := range []int{0, 5, 17, 35} {
		orig := c.Wt[idx]
		c.Wt[idx] = orig + eps
		up := loss()
		c.Wt[idx] = orig - eps
		down := loss()
		c.Wt[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(float64(numeric-analytic[idx])) > 2e-2 {
			t.Errorf("dWt[%d]: analytic %v vs numeric %v", idx, analytic[idx], numeric)
		}
	}
}

func TestConv1DGradientCheck(t *testing.T) {
	rng := xrand.New(21)
	c := NewConv1D(8, 3, 3, 2, rng)
	net := &Network{Name: "g", Layers: []Layer{c, NewReLU(c.OutLen()), NewDense(c.OutLen(), 2, rng)}}
	x := make([]float32, 8*3)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	label := 1
	loss := func() float32 {
		out := net.Forward(x)
		probs := softmax(out)
		return -log32(clamp32(probs[label], 1e-9, 1))
	}
	out := net.Forward(x)
	probs := softmax(out)
	grad := make([]float32, len(out))
	copy(grad, probs)
	grad[label] -= 1
	g := grad
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	analytic := make([]float32, len(c.Wt))
	copy(analytic, c.gw)
	for _, l := range net.Layers {
		l.Update(0)
	}
	const eps = 1e-3
	for _, idx := range []int{0, 4, 9, 15} {
		orig := c.Wt[idx]
		c.Wt[idx] = orig + eps
		up := loss()
		c.Wt[idx] = orig - eps
		down := loss()
		c.Wt[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(float64(numeric-analytic[idx])) > 2e-2 {
			t.Errorf("dWt[%d]: analytic %v vs numeric %v", idx, analytic[idx], numeric)
		}
	}
}

func TestConv1DForwardKnown(t *testing.T) {
	rng := xrand.New(3)
	c := NewConv1D(4, 1, 2, 1, rng)
	// Set kernel to [1, 2], bias 0: out[t] = in[t] + 2·in[t+1].
	c.Wt[0], c.Wt[1] = 1, 2
	c.B[0] = 0
	out := c.Forward([]float32{1, 2, 3, 4})
	want := []float32{5, 8, 11}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D(2, 2, 1)
	out := p.Forward([]float32{1, 5, 3, 2})
	if len(out) != 1 || out[0] != 5 {
		t.Fatalf("maxpool out = %v", out)
	}
	din := p.Backward([]float32{7})
	want := []float32{0, 7, 0, 0}
	for i := range want {
		if din[i] != want[i] {
			t.Errorf("din[%d] = %v, want %v", i, din[i], want[i])
		}
	}
}

func TestMaxPool1D(t *testing.T) {
	p := NewMaxPool1D(4, 1)
	out := p.Forward([]float32{1, 3, 7, 2})
	if out[0] != 3 || out[1] != 7 {
		t.Fatalf("maxpool1d out = %v", out)
	}
}

func TestSoftmaxNormalized(t *testing.T) {
	p := softmax([]float32{1, 2, 3})
	var sum float32
	for _, v := range p {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
}

// TestTinyNetworkLearns: a small MLP must fit a separable 2-class problem.
func TestTinyNetworkLearns(t *testing.T) {
	rng := xrand.New(5)
	net := &Network{Name: "tiny", Layers: []Layer{
		NewDense(2, 8, rng), NewReLU(8), NewDense(8, 2, rng),
	}}
	set := &datasets.Set{Name: "xor-ish", InputShape: []int{2}, NumClasses: 2}
	gen := xrand.New(6)
	for i := 0; i < 300; i++ {
		x := []float32{float32(gen.NormFloat64()), float32(gen.NormFloat64())}
		y := 0
		if x[0]+x[1] > 0 {
			y = 1
		}
		if i < 240 {
			set.TrainX = append(set.TrainX, x)
			set.TrainY = append(set.TrainY, y)
		} else {
			set.TestX = append(set.TestX, x)
			set.TestY = append(set.TestY, y)
		}
	}
	net.Fit(set, 20, 0.05)
	if acc := floatAccuracy(net, set); acc < 0.9 {
		t.Errorf("tiny network accuracy %.2f, want >= 0.9", acc)
	}
}

// TestBinaryNetworkLearns: sigmoid + BCE path.
func TestBinaryNetworkLearns(t *testing.T) {
	rng := xrand.New(7)
	net := &Network{Name: "bin", Binary: true, Layers: []Layer{
		NewDense(3, 8, rng), NewReLU(8), NewDense(8, 1, rng), NewSigmoid(1),
	}}
	set := &datasets.Set{Name: "sep", InputShape: []int{3}, NumClasses: 2}
	gen := xrand.New(8)
	for i := 0; i < 300; i++ {
		x := []float32{float32(gen.NormFloat64()), float32(gen.NormFloat64()), float32(gen.NormFloat64())}
		y := 0
		if 2*x[0]-x[1] > 0.2 {
			y = 1
		}
		if i < 240 {
			set.TrainX = append(set.TrainX, x)
			set.TrainY = append(set.TrainY, y)
		} else {
			set.TestX = append(set.TestX, x)
			set.TestY = append(set.TestY, y)
		}
	}
	net.Fit(set, 25, 0.1)
	if acc := floatAccuracy(net, set); acc < 0.85 {
		t.Errorf("binary network accuracy %.2f, want >= 0.85", acc)
	}
}

// TestTableIIIParamCounts: the MLP models must match the paper exactly and
// the CNNs must be within 1%.
func TestTableIIIParamCounts(t *testing.T) {
	exact := map[string]bool{"mnist_mlp": true, "ecg_mlp": true}
	for _, name := range ModelNames() {
		m := BuildModel(name)
		if m == nil {
			t.Fatalf("BuildModel(%q) = nil", name)
		}
		got := m.Net.NumParams()
		if exact[name] {
			if got != m.PaperParams {
				t.Errorf("%s: %d params, paper says %d (exact match required)", name, got, m.PaperParams)
			}
			continue
		}
		ratio := float64(got) / float64(m.PaperParams)
		if ratio < 0.99 || ratio > 1.01 {
			t.Errorf("%s: %d params vs paper %d (%.2f%% off)", name, got, m.PaperParams, 100*(ratio-1))
		}
	}
}

func TestBuildModelUnknown(t *testing.T) {
	if BuildModel("nope") != nil {
		t.Error("unknown model should be nil")
	}
}

func TestQuantizerRoundTrip(t *testing.T) {
	q := NewQuantizer(0, 10)
	for _, v := range []float32{0, 2.5, 5, 9.99, 10} {
		back := q.Dequantize(q.Quantize(v))
		if math.Abs(float64(back-v)) > float64(q.Scale)/2+1e-6 {
			t.Errorf("quantize(%v) round-tripped to %v (scale %v)", v, back, q.Scale)
		}
	}
	if q.Quantize(-5) != 0 || q.Quantize(100) != 255 {
		t.Error("out-of-range values must clamp")
	}
}

func TestQuantizerDegenerate(t *testing.T) {
	q := NewQuantizer(3, 3)
	if q.Quantize(3) != 0 || q.Dequantize(0) != 3 {
		t.Error("degenerate quantizer should map everything to lo")
	}
}
