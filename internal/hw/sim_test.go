package hw

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/gates"
)

// The gate-level simulations below are this package's test oracles: they
// evaluate the synthesized circuits on concrete values so the tests can
// compare them with the software encoders and error tracker.

// Approximate runs the circuit on concrete values. For configurable units,
// n selects the window size (1..8); for fixed units n must match the build.
// This is the hardware twin of approx.NBit.Approximate.
func (u *Unit) Approximate(previous, exact uint32, n int) uint32 {
	if !u.Configurable && n != u.n {
		panic(fmt.Sprintf("hw: unit built for n=%d, asked for n=%d", u.n, n))
	}
	numIn := u.Width * 2
	if u.Configurable {
		numIn += 3
	}
	in := make([]bool, numIn)
	for i := 0; i < u.Width; i++ {
		in[i] = exact&(1<<uint(i)) != 0
		in[u.Width+i] = previous&(1<<uint(i)) != 0
	}
	if u.Configurable {
		cfg := uint32(n - 1)
		for i := 0; i < 3; i++ {
			in[2*u.Width+i] = cfg&(1<<uint(i)) != 0
		}
	}
	out := u.Circuit.Eval(in)
	var v uint32
	for i := 0; i < u.Width; i++ {
		if out[i] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Step performs one accumulation: given the current accumulator value, an
// (exact, approx) pair and the threshold, it returns the next accumulator
// value and whether it reached the threshold.
func (t *Tracker) Step(acc uint64, exact, approxVal uint32, threshold uint64) (uint64, bool) {
	in := make([]bool, 2*t.Width+2*t.AccBits)
	for i := 0; i < t.Width; i++ {
		in[i] = exact&(1<<uint(i)) != 0
		in[t.Width+i] = approxVal&(1<<uint(i)) != 0
	}
	for i := 0; i < t.AccBits; i++ {
		in[2*t.Width+i] = acc&(1<<uint(i)) != 0
		in[2*t.Width+t.AccBits+i] = threshold&(1<<uint(i)) != 0
	}
	out := t.Circuit.Eval(in)
	var next uint64
	for i := 0; i < t.AccBits; i++ {
		if out[i] {
			next |= 1 << uint(i)
		}
	}
	return next, out[t.AccBits]
}

// numGates returns the live gate count the synthesis report states.
func numGates(c *gates.Circuit) int { return gates.Synthesize(c, gates.Tech65nm(), 1).Gates }
