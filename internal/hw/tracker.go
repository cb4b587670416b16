package hw

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/gates"
)

// Tracker is the error-tracking datapath of Fig. 9: per committed value it
// computes |exact − approx| and accumulates it; the accumulated sum is
// compared against the threshold to decide whether the approximate buffer
// may be programmed.
//
// The accumulator register is exposed as circuit inputs (acc) and outputs
// (accNext) so one evaluation performs one accumulation step; the DFF nodes
// on accNext make the flops visible to area/power reporting.
type Tracker struct {
	Circuit *gates.Circuit
	Width   int // value width
	AccBits int // accumulator width
}

// NewTracker builds the datapath for values of the given width with an
// accumulator wide enough for a full page of worst-case errors: for a
// 256-byte page of 8-bit values, 256 × 255 needs 16 bits; accBits adds
// headroom for 16/32-bit configurations.
func NewTracker(width, accBits int) (*Tracker, error) {
	if width <= 0 || width > 32 {
		return nil, fmt.Errorf("hw: tracker width must be 1..32, got %d", width)
	}
	if accBits < width+1 {
		return nil, fmt.Errorf("hw: accumulator (%d bits) must exceed value width (%d)", accBits, width)
	}
	c := gates.New()
	e := c.Inputs("exact", width)
	a := c.Inputs("approx", width)
	acc := c.Inputs("acc", accBits)
	thr := c.Inputs("threshold", accBits)

	diff := gates.AbsDiff(c, e, a)
	wide := gates.ZeroExtend(c, diff, accBits)
	next, _ := gates.AddRipple(c, acc, wide, c.Const(false))
	over := c.Not(gates.LessThan(c, next, thr)) // accNext >= threshold
	for i, s := range next {
		c.Output(fmt.Sprintf("accNext%d", i), c.DFF(s))
	}
	c.Output("over", over)
	return &Tracker{Circuit: c, Width: width, AccBits: accBits}, nil
}
