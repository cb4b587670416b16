// Batch encode kernels: the buffer-granular form of the §III-A algorithms
// and of the §VI n-cell algorithm.
//
// The scalar encoders walk one bit (or one two-bit MLC cell) per iteration,
// behind an interface dispatch per value. The paper's hardware performs the
// same chain in a single combinational pass (Fig. 6/7); this file is the
// software analogue. Each encoder that can be compiled exposes EncodeSlice,
// which encodes a whole buffer span and computes the page error statistics
// in-kernel, so the controller issues one call per page instead of one
// interface call (plus ~2·width table steps) per value.
//
// One kernel serves both granularities: the bit algorithms are the cell
// algorithm over c = 1 bit per cell (NBit, OneBit), and the n-cell algorithm
// runs it over c = 2 (NCell). Compilation strategy, per geometry (c, n) (see
// DESIGN.md §9 for the full derivation, including why a (carry, prevByte,
// exactByte)-indexed byte transducer is NOT sound for n ≥ 2):
//
//   - The setOnes/setZeros carry chain collapses into a find-first-break
//     formulation: scanning from the most significant cell, output cells
//     equal exact cells until the first *break* — either an undershoot
//     (exact's cell level above previous's; Algorithm 1 line 9) or a
//     minimax overshoot (the table fires on a cell where previous exceeds
//     exact). After an undershoot every lower output cell equals previous's;
//     after an overshoot the break cell holds exact's level + 1 and every
//     lower cell is 0. Both tails are two mask operations.
//   - Per-cell comparisons vectorise: gt computes "cell of a > cell of b"
//     for every cell of a word in a handful of mask operations, leaving one
//     marker bit per cell. With 1-bit cells it reduces to a &^ b. The
//     highest undershoot cell bounds how far overshoot candidates need
//     probing. Probes hit the derived minimax table directly — (2^c)^(n-1)
//     squared entries: 16 KiB for n = 8 bits, 4 KiB for n = 4 cells.
//   - n = 1 has no lookahead and no overshoot, so it compiles to pure mask
//     arithmetic with zero probes. For bits at n = 2 the table degenerates
//     to "next exact bit wanted but not available", a closed form
//     (nbit2Value); the n = 2 cell table fires on two shapes and probes.
//   - For 8-bit values the whole chain folds into one lazily derived
//     65536-entry LUT indexed by (prevByte, exactByte): one table hit per
//     value. (Wider values cannot use a per-byte LUT: the minimax lookahead
//     window crosses byte boundaries.)
//   - Spans where exact is already reachable from previous are detected
//     eight bytes at a time (one gt64 test over uint64 loads) and copied
//     through without entering the per-value path — the bulk-bitwise
//     trick of Flash-Cosmos/MCFlash applied to the common mostly-erased and
//     rewrite-in-place cases. Over cells the test skips strictly more than
//     the bitwise subset test: cell-level decreases that set bits (10 → 01)
//     are reachable on MLC.
//
// Every kernel is bit-identical to its scalar encoder; kernel_test.go proves
// it exhaustively for 8-bit values and by fuzzing for 16/32-bit values
// (FuzzBatchKernelMatchesScalar), including the carry-across-byte-boundary
// cases.

package approx

import (
	"encoding/binary"
	mathbits "math/bits"
	"sync"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// BatchStats is the accounting EncodeSlice computes in-kernel, mirroring
// exactly what the controller's scalar encode loop accumulates per value:
// the error tracker sums, the approximated-value count, and reachability.
type BatchStats struct {
	Count        uint64 // values encoded
	Approximated uint64 // values where approx != exact
	SumAbs       uint64 // Σ |exact − approx|
	SumSq        uint64 // Σ (exact − approx)²
	MaxAbs       uint32 // max |exact − approx| over the span
	Unreachable  bool   // some output value is not programmable over prev
}

// add folds one (exact, approx) pair into the stats.
func (st *BatchStats) add(exact, approx uint32) {
	d := bits.AbsDiff(exact, approx)
	st.Count++
	st.SumAbs += uint64(d)
	st.SumSq += uint64(d) * uint64(d)
	if d > st.MaxAbs {
		st.MaxAbs = d
	}
	if approx != exact {
		st.Approximated++
	}
}

// BatchEncoder is implemented by encoders whose Algorithm-2 bit chain has
// been compiled into a batch kernel. EncodeSlice encodes the whole span
// prev/exact into approx (all three the same length, a multiple of
// w.Bytes(), values little-endian) and returns the in-kernel statistics.
//
// Reachability in BatchStats.Unreachable is judged under the cell
// semantics the kernel was compiled for: the bit kernels produce bitwise
// subsets (reachable on every cell mode, Unreachable always false), Exact
// reports the SLC word-wise subset test, and the NCell kernel's outputs
// are MLC-reachable by construction. The controller engages a kernel only
// on cell modes where its verdict and outputs are sound — see
// core.kernelEngages — and falls back to the scalar encoders otherwise.
// The scalar path remains the differential-test oracle: EncodeSlice must
// be bit-identical to width-wise calls of Approximate.
type BatchEncoder interface {
	Encoder
	EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats
}

// Compile-time interface checks: the four hot-path encoders batch.
var (
	_ BatchEncoder = Exact{}
	_ BatchEncoder = OneBit{}
	_ BatchEncoder = (*NBit)(nil)
	_ BatchEncoder = (*NCell)(nil)
)

// cellMasks holds, per cell width c, the SWAR masks marking the high and
// the low bit of every cell. A 1-bit cell is its own high bit and has no
// low bit below it, which reduces gt to a &^ b.
var cellMasks = [CellBits + 1]struct{ hi, lo uint64 }{
	1: {^uint64(0), 0},
	2: {0xAAAAAAAAAAAAAAAA, 0x5555555555555555},
}

// kernel is the compiled batch form of the n-cell algorithm over c-bit
// cells: c = 1 is Algorithm 1/2 over bits, c = 2 the §VI MLC variant.
type kernel struct {
	shift      uint   // log2 of the cell width c: bit position >> shift is the cell
	look       uint   // c·(n−1) lookahead bits below a cell; 0 for n = 1
	levels     uint32 // 2^c − 1: the top level of a cell
	hi, lo     uint32 // cell masks for gt
	hi64, lo64 uint64 // the same masks for gt64's 8-byte runs
	lowMask    uint32 // look low bits: the lookahead cells of a window
	fire       []bool // minimax table indexed eLow<<look | pLow; nil for n = 1

	// byteOnce/byteLUT is the 8-bit-value fast path: approx byte indexed by
	// prevByte<<8 | exactByte. Derived on first W8 use (64 KiB per kernel).
	byteOnce sync.Once
	byteLUT  []byte
}

// kernelCache holds the compiled kernels, one per (cell width, window
// size), derived lazily exactly like tableCache.
var kernelCache [CellBits + 1][MaxN + 1]struct {
	once sync.Once
	k    *kernel
}

// cachedKernel returns the shared compiled kernel for an n-cell window of
// c-bit cells.
func cachedKernel(c, n int) *kernel {
	e := &kernelCache[c][n]
	e.once.Do(func() {
		m := n - 1
		k := &kernel{
			shift:   uint(c >> 1),
			look:    uint(c * m),
			levels:  uint32(1)<<uint(c) - 1,
			hi:      uint32(cellMasks[c].hi),
			lo:      uint32(cellMasks[c].lo),
			hi64:    cellMasks[c].hi,
			lo64:    cellMasks[c].lo,
			lowMask: uint32(1)<<uint(c*m) - 1,
		}
		if m > 0 {
			k.fire = deriveFire(c, n)
		}
		e.k = k
	})
	return e.k
}

// deriveFire builds the minimax fire table for an n-cell window of c-bit
// cells, following §III-A3 in radix 2^c: writing exact's level + 1 at the
// current cell (then zeros) risks at most (2^(c·m) − eLow) low-units;
// staying tight risks (eLow − g + 1), where g is what the greedy clamp
// still recovers inside the window. Overshoot iff the first is smaller;
// ties favour tight. At c = 1 this is Table II's 2^m − e' < e' − g + 1
// (DeriveTable).
func deriveFire(c, n int) []bool {
	m := n - 1
	span := uint32(1) << uint(c*m)
	fire := make([]bool, uint64(span)*uint64(span))
	for eLow := uint32(0); eLow < span; eLow++ {
		for pLow := uint32(0); pLow < span; pLow++ {
			g := greedyWindow(c, m, pLow, eLow)
			fire[eLow<<uint(c*m)|pLow] = span-eLow < eLow-g+1
		}
	}
	return fire
}

// greedyWindow computes the value the greedy clamp recovers from the m
// lookahead cells, assuming nothing below the window is reachable: each
// cell takes its exact level when reachable; the first unreachable cell
// clamps to previous and saturates the rest to previous (the setOnes carry
// restricted to the window).
func greedyWindow(c, m int, pLow, eLow uint32) uint32 {
	levels := uint32(1)<<uint(c) - 1
	var g uint32
	setOnes := false
	for i := m - 1; i >= 0; i-- {
		p := pLow >> uint(c*i) & levels
		x := eLow >> uint(c*i) & levels
		if setOnes || x > p {
			setOnes = true
			x = p
		}
		g = g<<uint(c) | x
	}
	return g
}

// gt compares all cells of a and b at once: the result has the cell's high
// marker bit set exactly where the cell of a is greater than the cell of b.
// A cell is greater when its high bit wins, or the high bits tie and its
// low bit wins.
func (k *kernel) gt(a, b uint32) uint32 {
	return a&^b&k.hi | ^(a^b)&k.hi&(a&^b&k.lo<<1)
}

// gt64 is gt over a 64-bit word: one test covers an 8-byte run.
func (k *kernel) gt64(a, b uint64) uint64 {
	return a&^b&k.hi64 | ^(a^b)&k.hi64&(a&^b&k.lo64<<1)
}

// byteTable derives (once) and returns the 65536-entry per-byte LUT.
func (k *kernel) byteTable() []byte {
	k.byteOnce.Do(func() {
		lut := make([]byte, 1<<16)
		for p := uint32(0); p < 256; p++ {
			for e := uint32(0); e < 256; e++ {
				lut[p<<8|e] = byte(k.value(p, e))
			}
		}
		k.byteLUT = lut
	})
	return k.byteLUT
}

// value encodes one value through the compiled break-position chain. Inputs
// must already be masked to the logical width; lookahead cells below cell 0
// read as zero through the shifts, matching the Fig. 7 zero padding. Cells
// are addressed by the bit offset of their low bit. (Shift counts known to
// be below 32 are masked with &31, which spares the compiler's
// out-of-range guard on every shift.)
func (k *kernel) value(p, e uint32) uint32 {
	u := k.gt(e, p)
	if u == 0 {
		// Every cell reachable: the greedy walk takes exact everywhere, and
		// no overshoot can fire (g == eLow in every window makes the tight
		// risk exactly 1 while the overshoot risk is at least 1).
		return e
	}
	s := k.shift
	// Bit offset just above the highest undershoot cell: 32 when that
	// cell is the top one, which the 64-bit shifts below turn into a full
	// mask.
	top := (uint(mathbits.Len32(u)-1)>>s + 1) << s
	below := uint32(uint64(1)<<(top&63) - 1)
	// With no lookahead (n = 1) nothing can overshoot: skip the probes.
	if look := k.look; look > 0 {
		// Overshoot candidates (cells where previous exceeds exact)
		// strictly above the undershoot; below it the undershoot already
		// broke the chain.
		cand := k.gt(p, e) &^ below
		for cand != 0 {
			at := uint(mathbits.Len32(cand)-1) >> s << s
			var eLow, pLow uint32
			if at >= look {
				eLow = e >> ((at - look) & 31) & k.lowMask
				pLow = p >> ((at - look) & 31) & k.lowMask
			} else {
				eLow = e << ((look - at) & 31) & k.lowMask
				pLow = p << ((look - at) & 31) & k.lowMask
			}
			if k.fire[eLow<<(look&31)|pLow] {
				// Minimax overshoot at this cell: exact above, level x+1
				// here, zeros below. x < p, so x+1 stays within the cell.
				at &= 31
				x := e >> at & k.levels
				return e&^(k.levels<<at|(uint32(1)<<at-1)) | (x+1)<<at
			}
			cand &= uint32(1)<<(at&31) - 1
		}
	}
	// Undershoot: exact above, previous at and below (the saturated setOnes
	// tail writes previous's level into every remaining cell).
	return e&^below | p&below
}

// nbit2Value is the compiled n = 2 bit chain: the minimax table degenerates
// to "the next exact bit is wanted but previous cannot supply it", which
// makes the overshoot-candidate mask one shift expression — zero table
// probes.
func nbit2Value(p, e uint32) uint32 {
	u := e &^ p
	o := p &^ e & (e << 1) &^ (p << 1)
	br := u | o
	if br == 0 {
		return e
	}
	j := mathbits.Len32(br) - 1
	low := uint32(1)<<uint(j+1) - 1
	if u>>uint(j)&1 == 1 {
		return e&^low | p&low
	}
	return e&^low | uint32(1)<<uint(j)
}

// encode is the kernel's EncodeSlice: the byte LUT for 8-bit values, the
// break chain otherwise.
func (k *kernel) encode(prev, exact, approx []byte, w bits.Width) BatchStats {
	if w == bits.W8 {
		return k.encodeW8(prev, exact, approx)
	}
	return k.encodeSpan(prev, exact, approx, w, nil)
}

// encodeSpan is the wide-value slice walker: it bulk-skips reachable 8-byte
// chunks, encodes the remaining values through the chain (or through the
// closed form fn, when one is given), and accumulates the in-kernel
// statistics. Both receive width-masked inputs.
func (k *kernel) encodeSpan(prev, exact, approx []byte, w bits.Width, fn func(p, e uint32) uint32) BatchStats {
	var st BatchStats
	vb := w.Bytes()
	end := len(exact) / vb * vb
	for i := 0; i < end; i += vb {
		// Bulk fast path, once per 8-byte chunk: if no cell of the chunk
		// needs to rise, every value in it encodes to itself (the identity
		// invariant) — one uint64 test replaces 8/vb kernel dispatches.
		// This is what makes rewrites of mostly-unchanged or freshly
		// erased pages cheap.
		if i&7 == 0 && i+8 <= end &&
			k.gt64(binary.LittleEndian.Uint64(exact[i:]), binary.LittleEndian.Uint64(prev[i:])) == 0 {
			copy(approx[i:i+8], exact[i:i+8])
			st.Count += uint64(8 / vb)
			i += 8 - vb
			continue
		}
		p := bits.LoadLE(prev[i:], w)
		e := bits.LoadLE(exact[i:], w)
		var a uint32
		if fn != nil {
			a = fn(p, e)
		} else {
			a = k.value(p, e)
		}
		bits.StoreLE(approx[i:], a, w)
		st.add(e, a)
	}
	return st
}

// encodeW8 is the 8-bit-value walker: one byteLUT hit per value. It walks
// whole 8-byte chunks — one gt64 verdict decides between a bulk copy and
// eight LUT hits — so change-dense spans pay the word-wise test once per
// chunk, not once per byte.
func (k *kernel) encodeW8(prev, exact, approx []byte) BatchStats {
	lut := k.byteTable()
	var st BatchStats
	i := 0
	for ; i+8 <= len(exact); i += 8 {
		if k.gt64(binary.LittleEndian.Uint64(exact[i:]), binary.LittleEndian.Uint64(prev[i:])) == 0 {
			copy(approx[i:i+8], exact[i:i+8])
			st.Count += 8
			continue
		}
		for j := i; j < i+8; j++ {
			e := exact[j]
			a := lut[uint32(prev[j])<<8|uint32(e)]
			approx[j] = a
			st.add(uint32(e), uint32(a))
		}
	}
	for ; i < len(exact); i++ {
		e := exact[i]
		a := lut[uint32(prev[i])<<8|uint32(e)]
		approx[i] = a
		st.add(uint32(e), uint32(a))
	}
	return st
}

// EncodeSlice implements BatchEncoder: the batch form of Algorithm 2.
func (enc *NBit) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	if enc.n == 2 && w != bits.W8 {
		return enc.kern.encodeSpan(prev, exact, approx, w, nbit2Value)
	}
	return enc.kern.encode(prev, exact, approx, w)
}

// EncodeSlice implements BatchEncoder: the batch form of Algorithm 1, which
// is the n = 1 bit chain.
func (OneBit) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	return cachedKernel(1, 1).encode(prev, exact, approx, w)
}

// EncodeSlice implements BatchEncoder: the batch form of the §VI n-cell
// algorithm. Outputs are reachable from prev under MLC semantics by
// construction (every cell level only decreases), so Unreachable is always
// false — matching the per-byte verdict the scalar controller path reaches.
func (e *NCell) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	return e.kern.encode(prev, exact, approx, w)
}

// EncodeSlice implements BatchEncoder for the pass-through encoder: the
// output is the exact data, the error is zero, and reachability is the
// word-wise subset test the conventional write path performs.
func (Exact) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	var st BatchStats
	vb := w.Bytes()
	end := len(exact) / vb * vb
	st.Count = uint64(end / vb)
	copy(approx[:end], exact[:end])
	st.Unreachable = !bits.SubsetBytes(exact[:end], prev[:end])
	return st
}
