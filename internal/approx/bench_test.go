package approx

import (
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Encoder micro-benchmarks: the controller calls these once per value per
// committed page, so per-op cost matters for simulation throughput.

func benchPairs(n int) ([]uint32, []uint32) {
	rng := xrand.New(1)
	p := make([]uint32, n)
	e := make([]uint32, n)
	for i := range p {
		p[i], e[i] = rng.Uint32(), rng.Uint32()
	}
	return p, e
}

func benchEncoder(b *testing.B, enc Encoder, w bits.Width) {
	b.Helper()
	p, e := benchPairs(1024)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += enc.Approximate(p[i%1024], e[i%1024], w)
	}
	_ = sink
}

func BenchmarkOneBit32(b *testing.B)  { benchEncoder(b, OneBit{}, bits.W32) }
func BenchmarkNBit2W8(b *testing.B)   { benchEncoder(b, MustNBit(2), bits.W8) }
func BenchmarkNBit2W32(b *testing.B)  { benchEncoder(b, MustNBit(2), bits.W32) }
func BenchmarkNBit8W32(b *testing.B)  { benchEncoder(b, MustNBit(8), bits.W32) }
func BenchmarkOptimal32(b *testing.B) { benchEncoder(b, Optimal{}, bits.W32) }
func BenchmarkNCell2W8(b *testing.B)  { benchEncoder(b, MustNCell(2), bits.W8) }

func BenchmarkDeriveTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DeriveTable(8)
	}
}

// Batch-kernel benchmarks (kernel.go): EncodeSlice against the scalar
// reference walker (scalarEncodeSpan) over the same 4 KiB span: LoadLE +
// interface Approximate + StoreLE and the error sums per value.

func benchSpans(n int) (prev, exact, approx []byte) {
	rng := xrand.New(1)
	prev = make([]byte, n)
	exact = make([]byte, n)
	approx = make([]byte, n)
	for i := range prev {
		prev[i], exact[i] = rng.Byte(), rng.Byte()
	}
	return prev, exact, approx
}

func benchEncodeSlice(b *testing.B, enc BatchEncoder, w bits.Width) {
	b.Helper()
	prev, exact, approx := benchSpans(4096)
	enc.EncodeSlice(prev, exact, approx, w) // derive lazy LUTs up front
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeSlice(prev, exact, approx, w)
	}
}

func benchEncodeScalarSpan(b *testing.B, enc Encoder, w bits.Width) {
	b.Helper()
	prev, exact, approx := benchSpans(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarEncodeSpan(enc, nil, prev, exact, approx, w)
	}
}

func BenchmarkEncodeSliceOneBitW32(b *testing.B) { benchEncodeSlice(b, OneBit{}, bits.W32) }
func BenchmarkEncodeSliceNBit2W8(b *testing.B)   { benchEncodeSlice(b, MustNBit(2), bits.W8) }
func BenchmarkEncodeSliceNBit2W32(b *testing.B)  { benchEncodeSlice(b, MustNBit(2), bits.W32) }
func BenchmarkEncodeSliceNBit8W32(b *testing.B)  { benchEncodeSlice(b, MustNBit(8), bits.W32) }
func BenchmarkEncodeSliceExactW32(b *testing.B)  { benchEncodeSlice(b, Exact{}, bits.W32) }

func BenchmarkEncodeScalarOneBitW32(b *testing.B) { benchEncodeScalarSpan(b, OneBit{}, bits.W32) }
func BenchmarkEncodeScalarNBit2W8(b *testing.B)   { benchEncodeScalarSpan(b, MustNBit(2), bits.W8) }
func BenchmarkEncodeScalarNBit2W32(b *testing.B)  { benchEncodeScalarSpan(b, MustNBit(2), bits.W32) }
func BenchmarkEncodeScalarNBit8W32(b *testing.B)  { benchEncodeScalarSpan(b, MustNBit(8), bits.W32) }

func BenchmarkEncodeSliceNCell1W32(b *testing.B) { benchEncodeSlice(b, MustNCell(1), bits.W32) }
func BenchmarkEncodeSliceNCell2W8(b *testing.B)  { benchEncodeSlice(b, MustNCell(2), bits.W8) }
func BenchmarkEncodeSliceNCell2W32(b *testing.B) { benchEncodeSlice(b, MustNCell(2), bits.W32) }
func BenchmarkEncodeSliceNCell4W32(b *testing.B) { benchEncodeSlice(b, MustNCell(4), bits.W32) }

func BenchmarkEncodeScalarNCell1W32(b *testing.B) { benchEncodeScalarSpan(b, MustNCell(1), bits.W32) }
func BenchmarkEncodeScalarNCell2W8(b *testing.B)  { benchEncodeScalarSpan(b, MustNCell(2), bits.W8) }
func BenchmarkEncodeScalarNCell2W32(b *testing.B) { benchEncodeScalarSpan(b, MustNCell(2), bits.W32) }
func BenchmarkEncodeScalarNCell4W32(b *testing.B) { benchEncodeScalarSpan(b, MustNCell(4), bits.W32) }

// TestEncodeSliceSpeedup gates the batch kernels' host-time win over the
// scalar loop on the encoder/width pairs the benchmarks above measure: the
// best n-bit pair must encode a 4 KiB span at least 3× faster than the
// scalar loop, and the best n-cell (MLC) pair at least 5×. Each side takes
// the best of three timed rounds, so one descheduled round cannot fail it.
func TestEncodeSliceSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector on: instrumentation overhead swamps kernel-vs-scalar ratios")
	}
	const reps = 50
	bestOf3 := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 3; round++ {
			start := time.Now()
			for r := 0; r < reps; r++ {
				f()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	type pair struct {
		enc BatchEncoder
		w   bits.Width
	}
	prev, exact, out := benchSpans(4096)
	for _, g := range []struct {
		family string
		want   float64
		pairs  []pair
	}{
		{"n-bit", 3, []pair{{MustNBit(2), bits.W8}, {MustNBit(2), bits.W32}, {MustNBit(8), bits.W32}}},
		{"n-cell", 5, []pair{{MustNCell(1), bits.W32}, {MustNCell(2), bits.W8}, {MustNCell(2), bits.W32}, {MustNCell(4), bits.W32}}},
	} {
		best := 0.0
		for _, p := range g.pairs {
			p.enc.EncodeSlice(prev, exact, out, p.w) // derive lazy LUTs up front
			kernel := bestOf3(func() { p.enc.EncodeSlice(prev, exact, out, p.w) })
			scalar := bestOf3(func() { scalarEncodeSpan(p.enc, nil, prev, exact, out, p.w) })
			speedup := float64(scalar) / float64(kernel)
			t.Logf("%s W%d: kernel %v, scalar %v per %d spans (%.1fx)", p.enc.Name(), p.w, kernel, scalar, reps, speedup)
			best = max(best, speedup)
		}
		if best < g.want {
			t.Errorf("best %s kernel speedup is %.2f, want >= %g", g.family, best, g.want)
		}
	}
}
