package gates

import (
	"testing"
	"testing/quick"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// numGates returns the live gate count the synthesis report states.
func numGates(c *Circuit) int { return Synthesize(c, Tech65nm(), 1).Gates }

// evalCover evaluates a sum-of-products cover on assignment v: the
// reference the synthesized AND-OR logic is checked against.
func evalCover(cover []Implicant, v uint32) bool {
	for _, im := range cover {
		if im.Covers(v) {
			return true
		}
	}
	return false
}

func TestBasicGates(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	c.Output("and", c.And(a, b))
	c.Output("or", c.Or(a, b))
	c.Output("xor", c.Xor(a, b))
	c.Output("not", c.Not(a))
	for _, tc := range []struct {
		a, b bool
	}{{false, false}, {false, true}, {true, false}, {true, true}} {
		out := c.Eval([]bool{tc.a, tc.b})
		if out[0] != (tc.a && tc.b) || out[1] != (tc.a || tc.b) ||
			out[2] != (tc.a != tc.b) || out[3] != !tc.a {
			t.Fatalf("a=%v b=%v: got %v", tc.a, tc.b, out)
		}
	}
}

func TestMux(t *testing.T) {
	c := New()
	s := c.Input("s")
	a := c.Input("a")
	b := c.Input("b")
	c.Output("m", c.Mux(s, a, b))
	if got := c.Eval([]bool{true, true, false}); !got[0] {
		t.Error("mux sel=1 should pick a")
	}
	if got := c.Eval([]bool{false, true, false}); got[0] {
		t.Error("mux sel=0 should pick b")
	}
}

func TestConstantFolding(t *testing.T) {
	c := New()
	a := c.Input("a")
	one := c.Const(true)
	zero := c.Const(false)
	c.Output("o1", c.And(a, zero)) // == 0
	c.Output("o2", c.Or(a, one))   // == 1
	c.Output("o3", c.Xor(a, a))    // == 0
	c.Output("o4", c.Not(c.Not(a)))
	if numGates(c) != 0 {
		t.Errorf("all outputs fold to constants/wires; got %d gates (%v)", numGates(c), c.Counts())
	}
	out := c.Eval([]bool{true})
	if out[0] || !out[1] || out[2] || !out[3] {
		t.Errorf("folded outputs wrong: %v", out)
	}
}

func TestStructuralHashing(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	x := c.And(a, b)
	y := c.And(b, a) // commutative duplicate
	if x != y {
		t.Error("commutative AND not shared")
	}
	c.Output("o", c.Or(x, y))
	if numGates(c) != 1 { // the OR folds: Or(x,x) = x → only the AND remains
		t.Errorf("gates = %d (%v), want 1", numGates(c), c.Counts())
	}
}

func TestDeadGateElimination(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	_ = c.Xor(a, b) // dead
	c.Output("o", c.And(a, b))
	if got := c.Counts()[OpXor]; got != 0 {
		t.Errorf("dead XOR counted: %d", got)
	}
	if numGates(c) != 1 {
		t.Errorf("gates = %d, want 1", numGates(c))
	}
}

func TestDepth(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	x := c.And(a, b)
	y := c.Or(x, a)
	c.Output("o", c.Xor(y, b))
	if d := c.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
}

func TestAddRipple(t *testing.T) {
	const w = 8
	c := New()
	a := c.Inputs("a", w)
	b := c.Inputs("b", w)
	sum, cout := AddRipple(c, a, b, c.Const(false))
	for _, s := range sum {
		c.Output("s", s)
	}
	c.Output("cout", cout)
	f := func(x, y uint8) bool {
		out := c.Eval(append(toBits(uint32(x), w), toBits(uint32(y), w)...))
		got := fromBits(out[:w])
		carry := out[w]
		want := uint32(x) + uint32(y)
		return got == want&0xFF && carry == (want > 0xFF)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubAndLessThan(t *testing.T) {
	const w = 8
	c := New()
	a := c.Inputs("a", w)
	b := c.Inputs("b", w)
	diff, geq := Sub(c, a, b)
	lt := LessThan(c, a, b)
	for _, s := range diff {
		c.Output("d", s)
	}
	c.Output("geq", geq)
	c.Output("lt", lt)
	f := func(x, y uint8) bool {
		out := c.Eval(append(toBits(uint32(x), w), toBits(uint32(y), w)...))
		d := fromBits(out[:w])
		return d == uint32(x-y) && out[w] == (x >= y) && out[w+1] == (x < y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbsDiff(t *testing.T) {
	const w = 8
	c := New()
	a := c.Inputs("a", w)
	b := c.Inputs("b", w)
	ad := AbsDiff(c, a, b)
	for _, s := range ad {
		c.Output("o", s)
	}
	f := func(x, y uint8) bool {
		out := c.Eval(append(toBits(uint32(x), w), toBits(uint32(y), w)...))
		want := int(x) - int(y)
		if want < 0 {
			want = -want
		}
		return fromBits(out[:w]) == uint32(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstWordZeroExtend(t *testing.T) {
	c := New()
	w := ConstWord(c, 0b1011, 6)
	for _, s := range w {
		c.Output("w", s)
	}
	z := ZeroExtend(c, c.Inputs("i", 2), 4)
	for _, s := range z {
		c.Output("z", s)
	}
	out := c.Eval([]bool{true, false})
	if fromBits(out[:6]) != 0b1011 {
		t.Errorf("ConstWord = %v", out[:6])
	}
	if fromBits(out[6:]) != 0b0001 {
		t.Errorf("ZeroExtend = %v", out[6:])
	}
}

// --- Quine–McCluskey ---

func TestMinimizeClassicExample(t *testing.T) {
	// f(a,b,c) = majority: minimizes to ab + ac + bc (3 implicants).
	tt := NewTruthTable(3, func(v uint32) bool {
		n := 0
		for i := 0; i < 3; i++ {
			if v&(1<<uint(i)) != 0 {
				n++
			}
		}
		return n >= 2
	})
	cover := Minimize(tt)
	if len(cover) != 3 {
		t.Errorf("majority cover size = %d, want 3 (%v)", len(cover), cover)
	}
	verifyCover(t, tt, cover)
}

func TestMinimizeConstants(t *testing.T) {
	zero := NewTruthTable(4, func(uint32) bool { return false })
	if got := Minimize(zero); len(got) != 0 {
		t.Errorf("constant-0 cover = %v", got)
	}
	one := NewTruthTable(4, func(uint32) bool { return true })
	got := Minimize(one)
	if len(got) != 1 || got[0].Mask != 0 {
		t.Errorf("constant-1 cover = %v", got)
	}
}

func TestMinimizeSingleVariable(t *testing.T) {
	tt := NewTruthTable(4, func(v uint32) bool { return v&0b0100 != 0 })
	cover := Minimize(tt)
	if len(cover) != 1 || cover[0].Literals() != 1 {
		t.Errorf("single-variable cover = %v", cover)
	}
	verifyCover(t, tt, cover)
}

// TestMinimizeRandomFunctions: QM output must be functionally identical to
// the source truth table for arbitrary functions.
func TestMinimizeRandomFunctions(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6) // 2..7 inputs
		size := 1 << uint(n)
		out := make([]bool, size)
		for i := range out {
			out[i] = rng.Intn(2) == 1
		}
		tt := TruthTable{NumInputs: n, Out: out}
		verifyCover(t, tt, Minimize(tt))
	}
}

// TestSynthesizeSOP: the synthesized gates must compute the cover.
func TestSynthesizeSOP(t *testing.T) {
	tt := NewTruthTable(4, func(v uint32) bool {
		// XOR of all bits: worst case for two-level logic (8 implicants).
		n := 0
		for i := 0; i < 4; i++ {
			if v&(1<<uint(i)) != 0 {
				n++
			}
		}
		return n%2 == 1
	})
	cover := Minimize(tt)
	if len(cover) != 8 {
		t.Errorf("4-input XOR cover size = %d, want 8", len(cover))
	}
	c := New()
	in := c.Inputs("x", 4)
	c.Output("f", SynthesizeSOP(c, cover, in))
	for v := uint32(0); v < 16; v++ {
		got := c.Eval(toBits(v, 4))[0]
		if got != tt.Out[v] {
			t.Fatalf("synthesized f(%04b) = %v, want %v", v, got, tt.Out[v])
		}
	}
}

func TestSynthesizeReport(t *testing.T) {
	c := New()
	a := c.Inputs("a", 8)
	b := c.Inputs("b", 8)
	sum, _ := AddRipple(c, a, b, c.Const(false))
	for _, s := range sum {
		c.Output("s", s)
	}
	r := Synthesize(c, Tech65nm(), 33)
	if r.Gates == 0 || r.AreaUm2 <= 0 || r.Power <= 0 {
		t.Errorf("empty report: %+v", r)
	}
	if r.DepthGat <= 0 {
		t.Error("depth missing")
	}
	// An 8-bit ripple adder is ~40 gates and well under 1000 µm².
	if r.Gates > 100 || r.AreaUm2 > 1000 {
		t.Errorf("adder suspiciously large: %+v", r)
	}
}

func verifyCover(t *testing.T, tt TruthTable, cover []Implicant) {
	t.Helper()
	for v := uint32(0); v < 1<<uint(tt.NumInputs); v++ {
		if evalCover(cover, v) != tt.Out[v] {
			t.Fatalf("cover wrong at %b: got %v, want %v", v, evalCover(cover, v), tt.Out[v])
		}
	}
}

func toBits(v uint32, w int) []bool {
	out := make([]bool, w)
	for i := range out {
		out[i] = v&(1<<uint(i)) != 0
	}
	return out
}

func fromBits(bs []bool) uint32 {
	var v uint32
	for i, b := range bs {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
