package nn

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/datasets"
)

// FlashRunner executes a trained network the way the paper's IoT device
// does (§IV): the activation output of every layer is quantized to uint8,
// written to flash (through the FlipBit controller), read back, and
// dequantized before feeding the next layer. Layer buffers live at fixed,
// page-aligned flash offsets that are rewritten on every inference, which
// is precisely the access pattern FlipBit exploits.
type FlashRunner struct {
	Net   *Network
	Dev   *core.Device
	Quant []Quantizer
	offs  []int
}

// NewFlashRunner calibrates quantizers on calib inputs, lays the layer
// activation buffers out in flash and configures the device's
// approximatable region to cover them (width 8). The caller chooses the
// encoder and threshold; threshold 0 is the lossless baseline.
func NewFlashRunner(net *Network, dev *core.Device, calib [][]float32) (*FlashRunner, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("nn: flash runner needs calibration inputs")
	}
	quant := CalibrateLayers(net, calib)
	ps := dev.Flash().Spec().PageSize
	offs := make([]int, len(net.Layers))
	next := 0
	for li, l := range net.Layers {
		offs[li] = next
		pages := (l.OutLen() + ps - 1) / ps
		next += pages * ps
	}
	if next > dev.Flash().Spec().Size() {
		return nil, fmt.Errorf("nn: activations need %d B, flash has %d B", next, dev.Flash().Spec().Size())
	}
	if err := dev.SetApproxRegion(0, next); err != nil {
		return nil, err
	}
	if err := dev.SetWidth(bits.W8); err != nil {
		return nil, err
	}
	return &FlashRunner{Net: net, Dev: dev, Quant: quant, offs: offs}, nil
}

// Infer runs one flash-backed inference and returns the predicted class.
func (r *FlashRunner) Infer(x []float32) (int, error) {
	act := x
	for li, l := range r.Net.Layers {
		act = l.Forward(act)
		q := r.Quant[li]
		buf := make([]byte, len(act))
		q.QuantizeSlice(buf, act)
		if err := r.Dev.Write(r.offs[li], buf); err != nil {
			return 0, fmt.Errorf("nn: layer %d (%s): %w", li, l.Name(), err)
		}
		if err := r.Dev.Read(r.offs[li], buf); err != nil {
			return 0, err
		}
		next := make([]float32, len(buf))
		q.DequantizeSlice(next, buf)
		act = next
	}
	return decide(act, r.Net.Binary), nil
}

// Evaluate runs flash-backed inference over up to limit test samples
// (0 = all) and returns the accuracy.
func (r *FlashRunner) Evaluate(set *datasets.Set, limit int) (float64, error) {
	n := len(set.TestX)
	if limit > 0 && limit < n {
		n = limit
	}
	correct := 0
	for i := 0; i < n; i++ {
		pred, err := r.Infer(set.TestX[i])
		if err != nil {
			return 0, err
		}
		if pred == set.TestY[i] {
			correct++
		}
	}
	return float64(correct) / float64(n), nil
}
