package hw

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/gates"
)

// Unit is a complete value-approximation circuit: `width` chained slices
// (Fig. 7). Inputs are the exact and previous values (LSB first) plus, for
// the configurable variant, a 3-bit window configuration; the output is the
// approximate value.
type Unit struct {
	Circuit      *gates.Circuit
	Width        int
	Configurable bool
	n            int // fixed window size when !Configurable
}

// NewUnit builds a fixed window-size unit: width slices, each seeing n bits
// of exact and previous (zero padded past the LSB, as in Fig. 7).
func NewUnit(width, n int) (*Unit, error) {
	if width <= 0 || width > 32 {
		return nil, fmt.Errorf("hw: unit width must be 1..32, got %d", width)
	}
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("hw: window size must be 1..8, got %d", n)
	}
	c := gates.New()
	e := c.Inputs("exact", width)
	p := c.Inputs("previous", width)
	chain(c, e, p, nil, width, n)
	return &Unit{Circuit: c, Width: width, n: n}, nil
}

// NewConfigurableUnit builds the run-time configurable unit with a 3-bit
// window configuration input (cfg = n-1).
func NewConfigurableUnit(width int) (*Unit, error) {
	if width <= 0 || width > 32 {
		return nil, fmt.Errorf("hw: unit width must be 1..32, got %d", width)
	}
	c := gates.New()
	e := c.Inputs("exact", width)
	p := c.Inputs("previous", width)
	cfg := c.Inputs("cfg", 3)
	chain(c, e, p, cfg, width, 8)
	return &Unit{Circuit: c, Width: width, Configurable: true}, nil
}

// chain wires the slices MSB→LSB, propagating setOnes/setZeros (Fig. 7).
func chain(c *gates.Circuit, e, p, cfg []gates.Signal, width, n int) {
	zero := c.Const(false)
	window := func(v []gates.Signal, i int) []gates.Signal {
		w := make([]gates.Signal, n)
		for k := 0; k < n; k++ { // w[n-1] = bit i, w[n-1-k] = bit i-k
			idx := i - (n - 1 - k)
			if idx >= 0 {
				w[k] = v[idx]
			} else {
				w[k] = zero
			}
		}
		return w
	}
	outs := make([]gates.Signal, width)
	so, sz := zero, zero
	for i := width - 1; i >= 0; i-- {
		var io SliceIO
		if cfg != nil {
			io = BuildConfigurableSlice(c, window(e, i), window(p, i), cfg, so, sz)
		} else {
			io = BuildSlice(c, window(e, i), window(p, i), so, sz)
		}
		outs[i] = io.Out
		so, sz = io.SetOnesOut, io.SetZerosOut
	}
	for i := 0; i < width; i++ {
		c.Output(fmt.Sprintf("approx%d", i), outs[i])
	}
}
