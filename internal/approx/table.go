package approx

// Table is the precomputed decision table of the n-bit approximation
// algorithm (paper Table II shows the instance for n = 2).
//
// A table answers the only non-trivial case of Algorithm 2: the previous bit
// is 1 (so the output bit is free to be 0 or 1) and the exact bit is 0 (so
// setting it means deliberately overshooting). The decision is made from the
// n-1 lookahead bits of exact and previous below the current position, using
// a minimise-the-maximum-potential-error rule (§III-A3).
type Table struct {
	n int
	// overshoot is indexed by eLow<<(n-1) | pLow, where eLow and pLow are
	// the n-1 lookahead bits of exact and previous. A true entry means
	// "set the output bit to 1 even though exact's bit is 0".
	overshoot []bool
}

// DeriveTable builds the decision table for a window of n bits (the current
// bit plus n-1 lookahead bits), 1 <= n <= MaxN.
//
// Derivation, following §III-A3: let the current bit position carry weight
// 2^m relative to the lowest window bit (m = n-1), and let U denote the
// weight of the first bit *below* the window. Bits below the window are
// unknown: exact may hold anything there, and pessimistically previous holds
// zeros (nothing further is settable).
//
// Overshoot choice (approx[i] = 1, then force all lower bits to 0 via
// setZeros): the worst error is (2^m - eLow)·U, largest when exact's unknown
// low bits are all zero.
//
// Tight choice (approx[i] = 0, continue greedily): the algorithm can still
// recover g = greedy(pLow, eLow) inside the window, and nothing below it, so
// the worst error is (eLow - g + 1)·U - 1, largest when exact's unknown low
// bits are all ones.
//
// Comparing the U coefficients (ties favour the tight choice because of the
// -1 term) gives: overshoot iff 2^m - eLow < eLow - g + 1. That is
// deriveFire's comparison at one bit per cell, which the batch kernels and
// the n-cell algorithm share.
//
// For n = 2 this reproduces the paper's Table II exactly, which is asserted
// by TestDeriveTableMatchesPaperTableII.
func DeriveTable(n int) *Table {
	return &Table{n: n, overshoot: deriveFire(1, n)}
}

// N returns the window size of the table.
func (t *Table) N() int { return t.n }

// Decide computes one iteration of Algorithm 2, i.e. one hardware slice of
// Fig. 6. eWin and pWin are the n-bit windows of exact and previous with the
// current bit in the window's MSB position (zero padded past the LSB, as in
// Fig. 7). It returns the output bit and the propagated flags.
func (t *Table) Decide(eWin, pWin uint32, setOnes, setZeros bool) (bit uint32, outOnes, outZeros bool) {
	m := t.n - 1
	eTop := (eWin >> uint(m)) & 1
	pTop := (pWin >> uint(m)) & 1
	lowMask := uint32(1)<<uint(m) - 1

	switch {
	case pTop == 0:
		// Row 1 of Table II: the cell holds 0; programming cannot set
		// it. If exact wanted a 1 (and we have not already overshot)
		// the result is now strictly below exact: saturate the rest.
		if eTop == 1 && !setZeros {
			setOnes = true
		}
		return 0, setOnes, setZeros
	case setZeros:
		// Already overshot: keep every remaining bit clear.
		return 0, setOnes, setZeros
	case setOnes:
		// Already undershot: set every remaining permitted bit.
		return 1, setOnes, setZeros
	case eTop == 1:
		// Row 2 of Table II: wanted and permitted.
		return 1, setOnes, setZeros
	default:
		// previous allows a 1 that exact does not want: minimax call.
		if t.overshoot[(eWin&lowMask)<<uint(m)|(pWin&lowMask)] {
			return 1, setOnes, true
		}
		return 0, setOnes, setZeros
	}
}

// Row describes one line of the paper-style truth table rendering
// (Table II). X entries in the paper are expanded; see Rows.
type Row struct {
	ExactI, ExactI1, PrevI, PrevI1 string // "0", "1" or "x"
	ApproxI                        string
}

// PaperTableII returns the six rows of Table II exactly as printed in the
// paper (n = 2), generated from the derived table rather than hardcoded.
// The first two rows use wildcards, matching the paper's compaction.
func PaperTableII() []Row {
	t := DeriveTable(2)
	rows := []Row{
		{"x", "x", "0", "x", "0"},
		{"1", "x", "1", "x", "1"},
	}
	// Remaining rows: exact[i]=0, previous[i]=1, enumerated over the
	// lookahead bits exact[i-1], previous[i-1].
	for _, e1 := range []uint32{0, 1} {
		for _, p1 := range []uint32{0, 1} {
			bit, _, _ := t.Decide(e1, 1<<1|p1, false, false)
			rows = append(rows, Row{
				ExactI: "0", ExactI1: digit(e1),
				PrevI: "1", PrevI1: digit(p1),
				ApproxI: digit(bit),
			})
		}
	}
	return rows
}

func digit(b uint32) string {
	if b == 0 {
		return "0"
	}
	return "1"
}
