package approx

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// scalarEncodeSpan is the reference slice walker: exactly what the
// controller's pre-kernel encode loop did, value by value through the
// scalar Approximate method. The kernels must match it bit-for-bit and
// stat-for-stat.
func scalarEncodeSpan(t *testing.T, enc Encoder, prev, exact, approx []byte, w bits.Width) BatchStats {
	t.Helper()
	var st BatchStats
	vb := w.Bytes()
	for i := 0; i+vb <= len(exact); i += vb {
		p := bits.LoadLE(prev[i:], w)
		e := bits.LoadLE(exact[i:], w)
		a := enc.Approximate(p, e, w)
		bits.StoreLE(approx[i:], a, w)
		st.add(e, a)
		if !bits.IsSubset(a, p) {
			st.Unreachable = true
		}
	}
	// The scalar walker flags unreachable per (SLC) subset test; the batch
	// kernels report the same aggregate. For subset-producing encoders it
	// is always false; for Exact it mirrors the needs-erase signal.
	return st
}

func checkSpanEqual(t *testing.T, name string, enc BatchEncoder, prev, exact []byte, w bits.Width) {
	t.Helper()
	gotBuf := make([]byte, len(exact))
	wantBuf := make([]byte, len(exact))
	got := enc.EncodeSlice(prev, exact, gotBuf, w)
	want := scalarEncodeSpan(t, enc, prev, exact, wantBuf, w)
	for i := range wantBuf {
		if gotBuf[i] != wantBuf[i] {
			p := bits.LoadLE(prev[i/w.Bytes()*w.Bytes():], w)
			e := bits.LoadLE(exact[i/w.Bytes()*w.Bytes():], w)
			t.Fatalf("%s/%v: output byte %d: kernel %#x, scalar %#x (value prev=%#x exact=%#x)",
				name, w, i, gotBuf[i], wantBuf[i], p, e)
		}
	}
	if got != want {
		t.Fatalf("%s/%v: stats diverge: kernel %+v, scalar %+v", name, w, got, want)
	}
}

// TestKernelExhaustiveW8 proves the byte LUT and the break-position chain
// equal the scalar encoders for EVERY 8-bit (previous, exact) pair, every
// window size, plus OneBit and Exact.
func TestKernelExhaustiveW8(t *testing.T) {
	encoders := []BatchEncoder{OneBit{}, Exact{}}
	for n := 1; n <= MaxN; n++ {
		encoders = append(encoders, MustNBit(n))
	}
	prev := make([]byte, 256)
	exact := make([]byte, 256)
	for _, enc := range encoders {
		for p := 0; p < 256; p++ {
			for e := range exact {
				prev[e] = byte(p)
				exact[e] = byte(e)
			}
			checkSpanEqual(t, enc.Name(), enc, prev, exact, bits.W8)
		}
	}
}

// kernelBoundaryVectors are crafted 32-bit cases where the minimax
// lookahead window straddles byte boundaries — the cases a naive per-byte
// LUT gets wrong (DESIGN.md §9).
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
}

// TestKernelBoundaryVectors pins the crafted cross-byte cases for every
// window size at 16 and 32 bits.
func TestKernelBoundaryVectors(t *testing.T) {
	for n := 1; n <= MaxN; n++ {
		enc := MustNBit(n)
		for _, v := range kernelBoundaryVectors {
			for _, w := range []bits.Width{bits.W16, bits.W32} {
				prev := make([]byte, 4)
				exact := make([]byte, 4)
				bits.StoreLE(prev, v[0]&w.Mask(), bits.W32)
				bits.StoreLE(exact, v[1]&w.Mask(), bits.W32)
				checkSpanEqual(t, enc.Name(), enc, prev, exact, w)
			}
		}
	}
}

// TestKernelRandomWide drives random multi-value spans through every batch
// encoder at every width, including spans dominated by reachable values so
// the 8-byte bulk-skip path interleaves with the per-value path.
func TestKernelRandomWide(t *testing.T) {
	rng := xrand.New(0xEC0DE)
	encoders := []BatchEncoder{OneBit{}, Exact{}}
	for n := 1; n <= MaxN; n++ {
		encoders = append(encoders, MustNBit(n))
	}
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
		for _, enc := range encoders {
			for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
				checkSpanEqual(t, enc.Name(), enc, prev, exact, w)
			}
		}
	}
}

// TestKernelIdentityAndReachability spot-checks the two structural
// invariants the controller relies on: subset outputs (never need an
// erase) and identity on reachable exact values.
func TestKernelIdentityAndReachability(t *testing.T) {
	rng := xrand.New(7)
	for n := 1; n <= MaxN; n++ {
		enc := MustNBit(n)
		for i := 0; i < 2000; i++ {
			p, e := rng.Uint32(), rng.Uint32()
			for _, w := range []bits.Width{bits.W8, bits.W16, bits.W32} {
				pm, em := p&w.Mask(), e&w.Mask()
				var pb, eb, ab [4]byte
				bits.StoreLE(pb[:], pm, bits.W32)
				bits.StoreLE(eb[:], em, bits.W32)
				st := enc.EncodeSlice(pb[:w.Bytes()], eb[:w.Bytes()], ab[:w.Bytes()], w)
				a := bits.LoadLE(ab[:], w)
				if !bits.IsSubset(a, pm) {
					t.Fatalf("n=%d %v: EncodeSlice(%#x, %#x) = %#x not a subset of previous", n, w, pm, em, a)
				}
				if bits.IsSubset(em, pm) && a != em {
					t.Fatalf("n=%d %v: exact %#x reachable from %#x but got %#x", n, w, em, pm, a)
				}
				if st.Unreachable {
					t.Fatalf("n=%d %v: subset kernel reported unreachable", n, w)
				}
			}
		}
	}
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
