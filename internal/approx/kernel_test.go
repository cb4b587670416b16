package approx

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// cellLE reports whether every 2-bit cell of a is <= the corresponding
// cell of b — MLC reachability, written as the naive per-cell loop the
// SWAR helpers must agree with.
func cellLE(a, b uint32) bool {
	for ; a|b != 0; a, b = a>>CellBits, b>>CellBits {
		if a&(cellLevels-1) > b&(cellLevels-1) {
			return false
		}
	}
	return true
}

// kernelFamily is one cell geometry of the batch kernel: the encoders
// compiled over it and the reachability its outputs obey.
type kernelFamily struct {
	name     string
	reach    func(a, prev uint32) bool // a is programmable over prev
	encoders []BatchEncoder
}

// bitFamily is the one-bit-cell geometry: OneBit, Exact and NBit 1–8
// under the bitwise subset test.
func bitFamily() kernelFamily {
	encs := []BatchEncoder{OneBit{}, Exact{}}
	for n := 1; n <= MaxN; n++ {
		encs = append(encs, MustNBit(n))
	}
	return kernelFamily{"bits", bits.IsSubset, encs}
}

// cellFamily is the two-bit MLC geometry: NCell 1–4 under the per-cell
// level test.
func cellFamily() kernelFamily {
	var encs []BatchEncoder
	for n := 1; n <= MaxN/CellBits; n++ {
		encs = append(encs, MustNCell(n))
	}
	return kernelFamily{"cells", cellLE, encs}
}

// reachOf returns the reachability predicate of enc's geometry.
func reachOf(enc Encoder) func(a, prev uint32) bool {
	if _, ok := enc.(*NCell); ok {
		return cellLE
	}
	return bits.IsSubset
}

// scalarEncodeSpan is the reference slice walker: what the controller's
// scalar encode loop does, value by value through the scalar Approximate
// method, with reachability judged by the geometry's reach. The kernels
// must match it bit-for-bit and stat-for-stat. The benchmarks time it as
// the scalar baseline with reach nil, which skips the reachability test.
func scalarEncodeSpan(enc Encoder, reach func(a, prev uint32) bool, prev, exact, approx []byte, w bits.Width) BatchStats {
	var st BatchStats
	vb := w.Bytes()
	for i := 0; i+vb <= len(exact); i += vb {
		p := bits.LoadLE(prev[i:], w)
		e := bits.LoadLE(exact[i:], w)
		a := enc.Approximate(p, e, w)
		bits.StoreLE(approx[i:], a, w)
		st.add(e, a)
		if reach != nil && !reach(a, p) {
			st.Unreachable = true
		}
	}
	return st
}

func checkSpanEqual(t *testing.T, f kernelFamily, enc BatchEncoder, prev, exact []byte, w bits.Width) {
	t.Helper()
	gotBuf := make([]byte, len(exact))
	wantBuf := make([]byte, len(exact))
	got := enc.EncodeSlice(prev, exact, gotBuf, w)
	want := scalarEncodeSpan(enc, f.reach, prev, exact, wantBuf, w)
	for i := range wantBuf {
		if gotBuf[i] != wantBuf[i] {
			p := bits.LoadLE(prev[i/w.Bytes()*w.Bytes():], w)
			e := bits.LoadLE(exact[i/w.Bytes()*w.Bytes():], w)
			t.Fatalf("%s %s/%v: output byte %d: kernel %#x, scalar %#x (value prev=%#x exact=%#x)",
				f.name, enc.Name(), w, i, gotBuf[i], wantBuf[i], p, e)
		}
	}
	if got != want {
		t.Fatalf("%s %s/%v: stats diverge: kernel %+v, scalar %+v", f.name, enc.Name(), w, got, want)
	}
}

// TestCellGTMatchesPerCell proves the SWAR comparators of both geometries
// against the naive per-cell loop: exhaustively for byte operands,
// randomly for full words. With 1-bit cells the comparator must be a &^ b.
func TestCellGTMatchesPerCell(t *testing.T) {
	rng := xrand.New(0xCE11)
	for _, c := range []int{1, CellBits} {
		k := cachedKernel(c, 1)
		levels := uint32(1)<<uint(c) - 1
		perCell := func(a, b uint32) uint32 {
			var marks uint32
			for i := 0; i < 32; i += c {
				if a>>uint(i)&levels > b>>uint(i)&levels {
					marks |= 1 << uint(i+c-1)
				}
			}
			return marks
		}
		for a := uint32(0); a < 256; a++ {
			for b := uint32(0); b < 256; b++ {
				if got, want := k.gt(a, b), perCell(a, b); got != want {
					t.Fatalf("c=%d: gt(%#x, %#x) = %#x, want %#x", c, a, b, got, want)
				}
			}
		}
		for i := 0; i < 20000; i++ {
			a, b := rng.Uint32(), rng.Uint32()
			if got, want := k.gt(a, b), perCell(a, b); got != want {
				t.Fatalf("c=%d: gt(%#x, %#x) = %#x, want %#x", c, a, b, got, want)
			}
			if c == 1 && k.gt(a, b) != a&^b {
				t.Fatalf("1-bit gt(%#x, %#x) = %#x, want a &^ b = %#x", a, b, k.gt(a, b), a&^b)
			}
			a64 := uint64(a)<<32 | uint64(rng.Uint32())
			b64 := uint64(b)<<32 | uint64(rng.Uint32())
			want := uint64(k.gt(uint32(a64>>32), uint32(b64>>32)))<<32 | uint64(k.gt(uint32(a64), uint32(b64)))
			if got := k.gt64(a64, b64); got != want {
				t.Fatalf("c=%d: gt64(%#x, %#x) = %#x, its 32-bit halves give %#x", c, a64, b64, got, want)
			}
		}
	}
}

// TestCellTableN2NotDegenerate pins the n = 2 minimax table: unlike the
// bit chain (whose n = 2 table collapses to one mask expression,
// nbit2Value), the cell table fires on two distinct shapes — e' = 3 with
// any p' < 3, and e' = 2 with p' = 0 — so n >= 2 must probe the table.
func TestCellTableN2NotDegenerate(t *testing.T) {
	fire := deriveFire(CellBits, 2)
	for e := uint32(0); e < 4; e++ {
		for p := uint32(0); p < 4; p++ {
			want := (e == 3 && p < 3) || (e == 2 && p == 0)
			if fire[e<<CellBits|p] != want {
				t.Errorf("fire[e'=%d p'=%d] = %v, want %v", e, p, fire[e<<CellBits|p], want)
			}
		}
	}
}

// checkExhaustiveW8 proves the byte LUT and the break-position chain equal
// the scalar encoders of family f for EVERY 8-bit (previous, exact) pair.
func checkExhaustiveW8(t *testing.T, f kernelFamily) {
	prev := make([]byte, 256)
	exact := make([]byte, 256)
	for _, enc := range f.encoders {
		for p := 0; p < 256; p++ {
			for e := range exact {
				prev[e] = byte(p)
				exact[e] = byte(e)
			}
			checkSpanEqual(t, f, enc, prev, exact, bits.W8)
		}
	}
}

// TestKernelExhaustiveW8 runs the exhaustive W8 check over every bit
// window size plus OneBit and Exact.
func TestKernelExhaustiveW8(t *testing.T) { checkExhaustiveW8(t, bitFamily()) }

// TestNCellKernelExhaustiveW8 runs the exhaustive W8 check over every cell
// window size.
func TestNCellKernelExhaustiveW8(t *testing.T) { checkExhaustiveW8(t, cellFamily()) }

// kernelBoundaryVectors are crafted 32-bit cases where the minimax
// lookahead window straddles byte boundaries — the cases a naive per-byte
// LUT gets wrong (DESIGN.md §9) — plus the shapes a bit-level test would
// misjudge on cells (bit-setting but cell-decreasing moves like 10 → 01).
// Both geometries run every vector.
var kernelBoundaryVectors = [][2]uint32{
	{0x0000FF00, 0x000100FF}, // undershoot exactly at a byte boundary
	{0x00FF00FF, 0x0100FF00},
	{0xFFFEFFFE, 0x00010001}, // wanted bits blocked at bits 0 and 16
	{0xFF00FF00, 0x00FF00FF},
	{0x80808080, 0x7F7F7F7F},
	{0x01FE01FE, 0x01010101},
	{0xFEFFFFFF, 0x01000000}, // window hangs below bit 24
	{0x00FFFF00, 0x0000FFFF},
	{0x7FFFFFFF, 0x80000000}, // MSB undershoot: result is previous
	{0xAAAAAAAA, 0x55555555},
	{0x55555555, 0xAAAAAAAA},
	{0xFFFFFF00, 0x000001FF}, // overshoot decision fed by lower byte
	{0x0000AA00, 0x00005500}, // every cell 10 → 01: SLC-unreachable, MLC identity
	{0x00005500, 0x0000AA00}, // every cell 01 → 10: undershoot at the top cell
	{0xFEFFFFFF, 0x03000000}, // window hangs below the top cell
	{0x3FFFFFFF, 0xC0000000}, // MSC undershoot: result is previous
	{0xFFFFFF00, 0x000003FF}, // cell overshoot decision fed by the lower byte
	{0xA5A5A5A5, 0x5A5A5A5A},
	{0xFFFFFFFF, 0xFEFFFFFF}, // near-max exact: overshoot saturation
}

// checkBoundaryVectors pins the crafted cross-byte cases for every encoder
// of family f at 16 and 32 bits.
func checkBoundaryVectors(t *testing.T, f kernelFamily) {
	for _, enc := range f.encoders {
		for _, v := range kernelBoundaryVectors {
			for _, w := range []bits.Width{bits.W16, bits.W32} {
				prev := make([]byte, 4)
				exact := make([]byte, 4)
				bits.StoreLE(prev, v[0]&w.Mask(), bits.W32)
				bits.StoreLE(exact, v[1]&w.Mask(), bits.W32)
				checkSpanEqual(t, f, enc, prev, exact, w)
			}
		}
	}
}

func TestKernelBoundaryVectors(t *testing.T)      { checkBoundaryVectors(t, bitFamily()) }
func TestNCellKernelBoundaryVectors(t *testing.T) { checkBoundaryVectors(t, cellFamily()) }

// checkRandomWide drives random multi-value spans through every encoder
// of family f at every width, including spans dominated by reachable
// values so the 8-byte bulk-skip path interleaves with the per-value path.
func checkRandomWide(t *testing.T, f kernelFamily, seed uint64) {
	rng := xrand.New(seed)
	const span = 64
	prev := make([]byte, span)
	exact := make([]byte, span)
	for round := 0; round < 400; round++ {
		for i := range prev {
			prev[i] = rng.Byte()
			switch round % 4 {
			case 0: // independent random data
				exact[i] = rng.Byte()
			case 1: // mostly reachable: exercise the bulk-skip fast path
				exact[i] = prev[i] &^ byte(rng.Intn(4))
			case 2: // near-neighbour drift (the sensor workloads)
				exact[i] = byte(int(prev[i]) + rng.Intn(5) - 2)
			default: // freshly erased page
				prev[i] = 0xFF
				exact[i] = rng.Byte()
			}
		}
		for _, enc := range f.encoders {
			for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
				checkSpanEqual(t, f, enc, prev, exact, w)
			}
		}
	}
}

func TestKernelRandomWide(t *testing.T)      { checkRandomWide(t, bitFamily(), 0xEC0DE) }
func TestNCellKernelRandomWide(t *testing.T) { checkRandomWide(t, cellFamily(), 0x4CE1) }

// checkIdentityAndReachability spot-checks the two structural invariants
// the controller relies on, under family f's reachability: outputs are
// reachable from previous (never need an erase) and reachable exact values
// pass through unchanged. Exact writes exact data, not reachable data, so
// it is left out.
func checkIdentityAndReachability(t *testing.T, f kernelFamily, seed uint64) {
	rng := xrand.New(seed)
	for _, enc := range f.encoders {
		if _, ok := enc.(Exact); ok {
			continue
		}
		for i := 0; i < 2000; i++ {
			p, e := rng.Uint32(), rng.Uint32()
			for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
				pm, em := p&w.Mask(), e&w.Mask()
				var pb, eb, ab [4]byte
				bits.StoreLE(pb[:], pm, bits.W32)
				bits.StoreLE(eb[:], em, bits.W32)
				st := enc.EncodeSlice(pb[:w.Bytes()], eb[:w.Bytes()], ab[:w.Bytes()], w)
				a := bits.LoadLE(ab[:], w)
				if !f.reach(a, pm) {
					t.Fatalf("%s %s/%v: EncodeSlice(%#x, %#x) = %#x not reachable from previous", f.name, enc.Name(), w, pm, em, a)
				}
				if f.reach(em, pm) && a != em {
					t.Fatalf("%s %s/%v: exact %#x reachable from %#x but got %#x", f.name, enc.Name(), w, em, pm, a)
				}
				if st.Unreachable {
					t.Fatalf("%s %s/%v: kernel reported unreachable", f.name, enc.Name(), w)
				}
			}
		}
	}
}

func TestKernelIdentityAndReachability(t *testing.T) {
	checkIdentityAndReachability(t, bitFamily(), 7)
}

func TestNCellKernelIdentityAndReachability(t *testing.T) {
	checkIdentityAndReachability(t, cellFamily(), 11)
}

// TestKernelStatsAgainstTracker checks the in-kernel sums against an
// ErrorTracker fed the same pairs, including MaxAbs (the per-value
// fallback signal) and the approximated-value count.
func TestKernelStatsAgainstTracker(t *testing.T) {
	rng := xrand.New(0x57A7)
	enc := MustNBit(2)
	prev := make([]byte, 128)
	exact := make([]byte, 128)
	approx := make([]byte, 128)
	for round := 0; round < 50; round++ {
		for i := range prev {
			prev[i], exact[i] = rng.Byte(), rng.Byte()
		}
		for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
			st := enc.EncodeSlice(prev, exact, approx, w)
			var tr ErrorTracker
			var approximated uint64
			var maxAbs uint32
			for i := 0; i+w.Bytes() <= len(exact); i += w.Bytes() {
				e := bits.LoadLE(exact[i:], w)
				a := bits.LoadLE(approx[i:], w)
				tr.Add(e, a)
				if a != e {
					approximated++
				}
				if d := bits.AbsDiff(e, a); d > maxAbs {
					maxAbs = d
				}
			}
			if st.SumAbs != tr.SumAbs() || st.Count != uint64(tr.Count()) ||
				st.Approximated != approximated || st.MaxAbs != maxAbs {
				t.Fatalf("%v: kernel stats %+v disagree with tracker (sumAbs %d count %d approx %d max %d)",
					w, st, tr.SumAbs(), tr.Count(), approximated, maxAbs)
			}
			var tr2 ErrorTracker
			tr2.AddBatch(st.Count, st.SumAbs, st.SumSq)
			if tr2.MAE() != tr.MAE() || tr2.MSE() != tr.MSE() {
				t.Fatalf("%v: AddBatch tracker diverges: MAE %v vs %v, MSE %v vs %v",
					w, tr2.MAE(), tr.MAE(), tr2.MSE(), tr.MSE())
			}
		}
	}
}

// TestEncodeSliceZeroAlloc pins the zero-allocation guarantee of the batch
// kernels: the commit hot path must not allocate per page.
func TestEncodeSliceZeroAlloc(t *testing.T) {
	rng := xrand.New(3)
	prev := make([]byte, 256)
	exact := make([]byte, 256)
	approx := make([]byte, 256)
	for i := range prev {
		prev[i], exact[i] = rng.Byte(), rng.Byte()
	}
	encoders := []BatchEncoder{
		OneBit{}, Exact{}, MustNBit(1), MustNBit(2), MustNBit(8),
		MustNCell(1), MustNCell(2), MustNCell(4),
	}
	for _, enc := range encoders {
		for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
			enc.EncodeSlice(prev, exact, approx, w) // derive any lazy LUT outside the measurement
			allocs := testing.AllocsPerRun(100, func() {
				enc.EncodeSlice(prev, exact, approx, w)
			})
			if allocs != 0 {
				t.Errorf("%s/%v: EncodeSlice allocates %.2f objects per call, want 0", enc.Name(), w, allocs)
			}
		}
	}
}
