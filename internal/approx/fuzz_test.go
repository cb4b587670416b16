package approx

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// Fuzz targets for the approximation encoders, checked against the
// brute-force optimal oracle. The invariants:
//
//  1. Reachability: every encoder's result is a bitwise subset of previous
//     — writable with 1→0 transitions only, never needing an erase.
//  2. Identity: when exact is itself reachable the result IS exact.
//  3. Oracle bound: no encoder beats Optimal, and Optimal agrees with the
//     exponential subset enumeration bit-for-bit.
//  4. Window bound: an encoder's result diverges from exact only below the
//     first blocked bit, so its error is < 2^(j+1) for the highest
//     differing bit j — the table-derived worst case.
//
// CI runs each target briefly (see .github/workflows/ci.yml); locally:
//
//	go test ./internal/approx -run=^$ -fuzz=FuzzNBitInvariants

// fuzzWidth derives a fuzzed width: W8 or W16. W32 is excluded because the
// brute oracle enumerates 2^popcount(previous) subsets.
func fuzzWidth(sel byte) bits.Width {
	if sel&1 == 0 {
		return bits.W8
	}
	return bits.W16
}

// checkInvariants asserts invariants 1, 2 and 4 for one encoder result.
func checkInvariants(t *testing.T, name string, previous, exact, a uint32, w bits.Width) {
	t.Helper()
	if !bits.IsSubset(a, previous) {
		t.Fatalf("%s(%#x, %#x, %v) = %#x: not reachable by 1→0 transitions", name, previous, exact, w, a)
	}
	if bits.IsSubset(exact, previous) && a != exact {
		t.Fatalf("%s(%#x, %#x, %v) = %#x: exact was reachable but not returned", name, previous, exact, w, a)
	}
	if a != exact {
		j := -1
		for i := int(w) - 1; i >= 0; i-- {
			if bits.Bit(a, i) != bits.Bit(exact, i) {
				j = i
				break
			}
		}
		if err := uint64(bits.AbsDiff(exact, a)); err >= 1<<uint(j+1) {
			t.Fatalf("%s(%#x, %#x, %v) = %#x: error %d exceeds the 2^%d window bound",
				name, previous, exact, w, a, err, j+1)
		}
	}
}

// FuzzOneBitInvariants checks Algorithm 1 against the under-approximation
// oracle: OneBit must return the LARGEST subset of previous that is ≤ exact
// (the greedy result is provably the best under-approximation).
func FuzzOneBitInvariants(f *testing.F) {
	f.Add(uint32(0b0110), uint32(0b1001), byte(0))
	f.Add(uint32(0xFFFF), uint32(0x1234), byte(1))
	f.Add(uint32(0), uint32(0xFF), byte(0))
	f.Fuzz(func(t *testing.T, previous, exact uint32, sel byte) {
		w := fuzzWidth(sel)
		previous &= w.Mask()
		exact &= w.Mask()
		a := OneBit{}.Approximate(previous, exact, w)
		checkInvariants(t, "OneBit", previous, exact, a, w)
		if a > exact {
			t.Fatalf("OneBit(%#x, %#x) = %#x overshoots exact", previous, exact, a)
		}
		// Brute oracle: best subset not exceeding exact.
		best := uint32(0)
		for sub := previous; sub != 0; sub = (sub - 1) & previous {
			if sub <= exact && sub > best {
				best = sub
			}
		}
		if a != best {
			t.Fatalf("OneBit(%#x, %#x) = %#x, best under-approximation is %#x", previous, exact, a, best)
		}
	})
}

// FuzzNBitInvariants checks Algorithm 2 for every window size: reachability,
// identity, the window error bound, error never better than Optimal, and
// NBit(1) ≡ OneBit.
func FuzzNBitInvariants(f *testing.F) {
	f.Add(uint32(0b10101100), uint32(0b01010011), byte(2), byte(0))
	f.Add(uint32(0xF0F0), uint32(0x0F0F), byte(8), byte(1))
	f.Add(uint32(0xFFFF), uint32(0x8000), byte(4), byte(1))
	f.Fuzz(func(t *testing.T, previous, exact uint32, n, sel byte) {
		w := fuzzWidth(sel)
		previous &= w.Mask()
		exact &= w.Mask()
		nn := int(n)%MaxN + 1
		e := MustNBit(nn)
		a := e.Approximate(previous, exact, w)
		checkInvariants(t, e.Name(), previous, exact, a, w)

		opt := Optimal{}.Approximate(previous, exact, w)
		if bits.AbsDiff(exact, a) < bits.AbsDiff(exact, opt) {
			t.Fatalf("NBit(%d)(%#x, %#x) error %d beats the optimal %d — oracle broken",
				nn, previous, exact, bits.AbsDiff(exact, a), bits.AbsDiff(exact, opt))
		}
		if nn == 1 {
			if ob := (OneBit{}).Approximate(previous, exact, w); a != ob {
				t.Fatalf("NBit(1)(%#x, %#x) = %#x, OneBit = %#x", previous, exact, a, ob)
			}
		}
	})
}

// fuzzKernelSpan differentially checks the batch kernel (kernel.go)
// against the scalar encoders it compiles. A two-value span is encoded once
// through EncodeSlice and once value-by-value through scalarEncodeSpan, and
// both the output bytes and the in-kernel statistics must match exactly.
// Values come in adjacent pairs so the W16/W32 cases exercise minimax
// windows and carries that straddle byte boundaries — exactly what a naive
// per-byte LUT would get wrong.
func fuzzKernelSpan(t *testing.T, encoders []BatchEncoder, p0, e0, p1, e1 uint32, sel byte) {
	var w bits.Width
	switch sel % 3 {
	case 0:
		w = bits.W8
	case 1:
		w = bits.W16
	default:
		w = bits.W32
	}
	var prev, exact, kernelOut, scalarOut [8]byte
	bits.StoreLE(prev[0:], p0, bits.W32)
	bits.StoreLE(prev[4:], p1, bits.W32)
	bits.StoreLE(exact[0:], e0, bits.W32)
	bits.StoreLE(exact[4:], e1, bits.W32)
	for _, enc := range encoders {
		kst := enc.EncodeSlice(prev[:], exact[:], kernelOut[:], w)
		sst := scalarEncodeSpan(enc, reachOf(enc), prev[:], exact[:], scalarOut[:], w)
		if kernelOut != scalarOut {
			t.Fatalf("%s/%v: kernel % x != scalar % x (prev % x exact % x)",
				enc.Name(), w, kernelOut, scalarOut, prev, exact)
		}
		if kst != sst {
			t.Fatalf("%s/%v: kernel stats %+v != scalar stats %+v (prev % x exact % x)",
				enc.Name(), w, kst, sst, prev, exact)
		}
	}
}

// FuzzBatchKernelMatchesScalar fuzzes the one-bit-cell geometry: OneBit,
// Exact and one NBit.
func FuzzBatchKernelMatchesScalar(f *testing.F) {
	f.Add(uint32(0x0000FF00), uint32(0x000100FF), uint32(0xFF00FF00), uint32(0x00FF00FF), byte(2), byte(2))
	f.Add(uint32(0x7FFFFFFF), uint32(0x80000000), uint32(0xAAAAAAAA), uint32(0x55555555), byte(8), byte(2))
	f.Add(uint32(0xFFFFFFFF), uint32(0x12345678), uint32(0), uint32(0xFF), byte(4), byte(1))
	f.Add(uint32(0xFFFEFFFE), uint32(0x00010001), uint32(0x01FE01FE), uint32(0x01010101), byte(3), byte(0))
	f.Fuzz(func(t *testing.T, p0, e0, p1, e1 uint32, n, sel byte) {
		fuzzKernelSpan(t, []BatchEncoder{OneBit{}, Exact{}, MustNBit(int(n)%MaxN + 1)}, p0, e0, p1, e1, sel)
	})
}

// FuzzNCellKernelMatchesScalar fuzzes the two-bit MLC geometry: one NCell.
func FuzzNCellKernelMatchesScalar(f *testing.F) {
	f.Add(uint32(0x0000AA00), uint32(0x00005500), uint32(0xAAAAAAAA), uint32(0x55555555), byte(2), byte(2))
	f.Add(uint32(0x3FFFFFFF), uint32(0xC0000000), uint32(0x55555555), uint32(0xAAAAAAAA), byte(4), byte(2))
	f.Add(uint32(0xFFFFFFFF), uint32(0x12345678), uint32(0), uint32(0xFF), byte(3), byte(1))
	f.Add(uint32(0xFFFEFFFE), uint32(0x00010001), uint32(0x01FE01FE), uint32(0x01010101), byte(1), byte(0))
	f.Fuzz(func(t *testing.T, p0, e0, p1, e1 uint32, n, sel byte) {
		fuzzKernelSpan(t, []BatchEncoder{MustNCell(int(n)%(MaxN/CellBits) + 1)}, p0, e0, p1, e1, sel)
	})
}

// FuzzOptimalMatchesBrute checks the O(width) optimal solver against the
// exponential subset enumeration, bit-for-bit including tie-breaks, plus
// the shared invariants.
func FuzzOptimalMatchesBrute(f *testing.F) {
	f.Add(uint32(0b1011), uint32(0b0100), byte(0))
	f.Add(uint32(0xBEEF), uint32(0xF00D), byte(1))
	f.Add(uint32(0x8001), uint32(0x7FFE), byte(1))
	f.Fuzz(func(t *testing.T, previous, exact uint32, sel byte) {
		w := fuzzWidth(sel)
		previous &= w.Mask()
		exact &= w.Mask()
		a := Optimal{}.Approximate(previous, exact, w)
		checkInvariants(t, "Optimal", previous, exact, a, w)
		b := OptimalBrute{}.Approximate(previous, exact, w)
		if a != b {
			t.Fatalf("Optimal(%#x, %#x, %v) = %#x, brute oracle says %#x", previous, exact, w, a, b)
		}
	})
}
