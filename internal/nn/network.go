package nn

import (
	"math"

	"github.com/flipbit-sim/flipbit/internal/datasets"
)

// Network is a feed-forward stack of layers.
type Network struct {
	Name   string
	Layers []Layer
	// Binary marks single-output sigmoid heads (ECG): classification by
	// 0.5 threshold instead of argmax.
	Binary bool
}

// NumParams returns the total trainable parameter count — the Table III
// figure.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += l.NumParams()
	}
	return total
}

// SizeKB returns the model size in kilobytes assuming float32 storage had
// the model been deployed unquantized, matching Table III's convention of
// size tracking parameter count.
func (n *Network) SizeKB() float64 { return float64(n.NumParams()) * 1.95 / 1000 }

// Forward runs the network and returns the final activation.
func (n *Network) Forward(x []float32) []float32 {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

func decide(out []float32, binary bool) int {
	if binary {
		if out[0] >= 0.5 {
			return 1
		}
		return 0
	}
	best, arg := float32(math.Inf(-1)), 0
	for i, v := range out {
		if v > best {
			best, arg = v, i
		}
	}
	return arg
}

// TrainStep performs one SGD step on (x, label) and returns the loss.
// Multi-class networks train with softmax cross-entropy on the final
// (linear) layer output; binary networks with BCE on the sigmoid output.
func (n *Network) TrainStep(x []float32, label int, lr float32) float32 {
	out := n.Forward(x)
	var loss float32
	grad := make([]float32, len(out))
	if n.Binary {
		y := float32(label)
		p := clamp32(out[0], 1e-6, 1-1e-6)
		loss = -y*log32(p) - (1-y)*log32(1-p)
		// d(BCE)/d(sigmoid input) folds through Sigmoid.Backward; here
		// we provide d(BCE)/d(p).
		grad[0] = (p - y) / (p * (1 - p))
	} else {
		probs := softmax(out)
		loss = -log32(clamp32(probs[label], 1e-9, 1))
		copy(grad, probs)
		grad[label] -= 1
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	for _, l := range n.Layers {
		l.Update(lr)
	}
	return loss
}

// Fit trains for the given number of epochs over the set's training split.
func (n *Network) Fit(set *datasets.Set, epochs int, lr float32) {
	for e := 0; e < epochs; e++ {
		for i := range set.TrainX {
			n.TrainStep(set.TrainX[i], set.TrainY[i], lr)
		}
	}
}

func softmax(logits []float32) []float32 {
	max := logits[0]
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float32
	out := make([]float32, len(logits))
	for i, v := range logits {
		out[i] = exp32(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func log32(x float32) float32 { return float32(math.Log(float64(x))) }

func clamp32(x, lo, hi float32) float32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
