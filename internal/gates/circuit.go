// Package gates provides a small combinational-logic framework: a netlist
// builder with structural hashing and constant folding, an evaluator, a
// Quine–McCluskey two-level minimizer, and a 65 nm technology model for
// area/power estimation.
//
// It is the substrate under internal/hw, which builds the FlipBit
// approximation and error-tracking circuits (paper Figs. 6–9) and estimates
// their synthesis cost (Table IV).
package gates

import "fmt"

// Op is a gate type.
type Op uint8

// Supported gate types. Input and Const nodes are free; everything else has
// area and power in a technology library. DFF models a flip-flop for the
// sequential accumulator in the error-tracking datapath.
const (
	OpConst Op = iota
	OpInput
	OpNot
	OpAnd
	OpOr
	OpXor
	OpMux // Mux(sel, a, b) = sel ? a : b
	OpDFF // state element; evaluated combinationally via its D input in Eval
)

func (o Op) String() string {
	switch o {
	case OpConst:
		return "CONST"
	case OpInput:
		return "INPUT"
	case OpNot:
		return "NOT"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpXor:
		return "XOR"
	case OpMux:
		return "MUX"
	case OpDFF:
		return "DFF"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Signal identifies a net in a circuit.
type Signal int32

type node struct {
	op   Op
	a, b Signal // operands (a = sel for MUX)
	c    Signal // third operand for MUX
	val  bool   // for OpConst
}

// Circuit is a combinational netlist under construction. Nodes are stored
// in topological (creation) order, so evaluation is a single forward pass.
//
// The builder performs light logic optimization on the fly: constants fold,
// identical structural nodes are shared, and trivial identities simplify
// (a&0=0, a|1=1, a^a=0, …). This mirrors what synthesis would do and is why
// the hardcoded n = 2 unit comes out smaller than the configurable one.
type Circuit struct {
	nodes   []node
	inputs  []Signal
	outputs []Signal
	hash    map[node]Signal
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{hash: make(map[node]Signal)}
}

// Input declares a primary input and returns its signal. The name only
// labels the netlist at the call site; the circuit does not keep it.
func (c *Circuit) Input(name string) Signal {
	s := c.add(node{op: OpInput, a: Signal(len(c.inputs))})
	c.inputs = append(c.inputs, s)
	return s
}

// Inputs declares count inputs named prefix0..prefixN-1, LSB first.
func (c *Circuit) Inputs(prefix string, count int) []Signal {
	out := make([]Signal, count)
	for i := range out {
		out[i] = c.Input(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// Const returns a constant signal.
func (c *Circuit) Const(v bool) Signal {
	return c.add(node{op: OpConst, val: v})
}

func (c *Circuit) isConst(s Signal) (bool, bool) {
	n := c.nodes[s]
	return n.val, n.op == OpConst
}

// Not returns ¬a.
func (c *Circuit) Not(a Signal) Signal {
	if v, ok := c.isConst(a); ok {
		return c.Const(!v)
	}
	// ¬¬a = a
	if c.nodes[a].op == OpNot {
		return c.nodes[a].a
	}
	return c.add(node{op: OpNot, a: a})
}

// And returns a ∧ b.
func (c *Circuit) And(a, b Signal) Signal {
	if a > b {
		a, b = b, a
	}
	if v, ok := c.isConst(a); ok {
		if !v {
			return c.Const(false)
		}
		return b
	}
	if v, ok := c.isConst(b); ok {
		if !v {
			return c.Const(false)
		}
		return a
	}
	if a == b {
		return a
	}
	return c.add(node{op: OpAnd, a: a, b: b})
}

// Or returns a ∨ b.
func (c *Circuit) Or(a, b Signal) Signal {
	if a > b {
		a, b = b, a
	}
	if v, ok := c.isConst(a); ok {
		if v {
			return c.Const(true)
		}
		return b
	}
	if v, ok := c.isConst(b); ok {
		if v {
			return c.Const(true)
		}
		return a
	}
	if a == b {
		return a
	}
	return c.add(node{op: OpOr, a: a, b: b})
}

// Xor returns a ⊕ b.
func (c *Circuit) Xor(a, b Signal) Signal {
	if a > b {
		a, b = b, a
	}
	if v, ok := c.isConst(a); ok {
		if v {
			return c.Not(b)
		}
		return b
	}
	if v, ok := c.isConst(b); ok {
		if v {
			return c.Not(a)
		}
		return a
	}
	if a == b {
		return c.Const(false)
	}
	return c.add(node{op: OpXor, a: a, b: b})
}

// Mux returns sel ? a : b.
func (c *Circuit) Mux(sel, a, b Signal) Signal {
	if v, ok := c.isConst(sel); ok {
		if v {
			return a
		}
		return b
	}
	if a == b {
		return a
	}
	return c.add(node{op: OpMux, a: sel, b: a, c: b})
}

// DFF declares a flip-flop fed by d. In combinational evaluation the flop
// is transparent; it exists so sequential datapaths (the MAE accumulator)
// are counted in area and power.
func (c *Circuit) DFF(d Signal) Signal {
	return c.add(node{op: OpDFF, a: d})
}

// AndN folds And over signals (true for the empty list).
func (c *Circuit) AndN(ss ...Signal) Signal {
	out := c.Const(true)
	for _, s := range ss {
		out = c.And(out, s)
	}
	return out
}

// OrN folds Or over signals (false for the empty list).
func (c *Circuit) OrN(ss ...Signal) Signal {
	out := c.Const(false)
	for _, s := range ss {
		out = c.Or(out, s)
	}
	return out
}

// Output registers s as a primary output. Like Input's, the name only
// labels the call site.
func (c *Circuit) Output(name string, s Signal) {
	c.outputs = append(c.outputs, s)
}

func (c *Circuit) add(n node) Signal {
	if s, ok := c.hash[n]; ok {
		return s
	}
	s := Signal(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.hash[n] = s
	return s
}

// Eval evaluates the circuit for one input vector (in declaration order)
// and returns the outputs (in declaration order). DFFs are transparent.
func (c *Circuit) Eval(in []bool) []bool {
	if len(in) != len(c.inputs) {
		panic(fmt.Sprintf("gates: Eval with %d inputs, circuit has %d", len(in), len(c.inputs)))
	}
	vals := make([]bool, len(c.nodes))
	for i, n := range c.nodes {
		switch n.op {
		case OpConst:
			vals[i] = n.val
		case OpInput:
			vals[i] = in[n.a]
		case OpNot:
			vals[i] = !vals[n.a]
		case OpAnd:
			vals[i] = vals[n.a] && vals[n.b]
		case OpOr:
			vals[i] = vals[n.a] || vals[n.b]
		case OpXor:
			vals[i] = vals[n.a] != vals[n.b]
		case OpMux:
			if vals[n.a] {
				vals[i] = vals[n.b]
			} else {
				vals[i] = vals[n.c]
			}
		case OpDFF:
			vals[i] = vals[n.a]
		}
	}
	out := make([]bool, len(c.outputs))
	for i, s := range c.outputs {
		out[i] = vals[s]
	}
	return out
}

// Counts returns the number of live gates by type, counting only nodes
// reachable from an output (dead logic is what a synthesis tool would
// sweep). Inputs and constants are excluded.
func (c *Circuit) Counts() map[Op]int {
	live := c.liveSet()
	counts := make(map[Op]int)
	for i, n := range c.nodes {
		if !live[i] || n.op == OpInput || n.op == OpConst {
			continue
		}
		counts[n.op]++
	}
	return counts
}

// Depth returns the longest combinational path length in gates, a proxy for
// the critical path that bounds the clock frequency.
func (c *Circuit) Depth() int {
	depth := make([]int, len(c.nodes))
	longest := 0
	for i, n := range c.nodes {
		switch n.op {
		case OpConst, OpInput:
			depth[i] = 0
		case OpNot, OpDFF:
			depth[i] = depth[n.a] + 1
		case OpAnd, OpOr, OpXor:
			depth[i] = max(depth[n.a], depth[n.b]) + 1
		case OpMux:
			depth[i] = max(depth[n.a], depth[n.b], depth[n.c]) + 1
		}
		longest = max(longest, depth[i])
	}
	return longest
}

func (c *Circuit) liveSet() []bool {
	live := make([]bool, len(c.nodes))
	var stack []Signal
	for _, s := range c.outputs {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[s] {
			continue
		}
		live[s] = true
		n := c.nodes[s]
		switch n.op {
		case OpNot, OpDFF:
			stack = append(stack, n.a)
		case OpAnd, OpOr, OpXor:
			stack = append(stack, n.a, n.b)
		case OpMux:
			stack = append(stack, n.a, n.b, n.c)
		}
	}
	return live
}
