package gates

import (
	"math/bits"
	"sort"
)

// Quine–McCluskey two-level minimization. Used to synthesize compact
// sum-of-products logic for the truth-table block of the FlipBit slice
// (paper §III-B: "The truth table logic block implements Table II ...
// through combinational logic").

// TruthTable is a single-output boolean function of NumInputs variables.
// Out[v] is the function value for input assignment v (bit i of v = input i).
type TruthTable struct {
	NumInputs int
	Out       []bool
}

// NewTruthTable builds a table by evaluating f on every assignment.
func NewTruthTable(numInputs int, f func(v uint32) bool) TruthTable {
	out := make([]bool, 1<<uint(numInputs))
	for v := range out {
		out[v] = f(uint32(v))
	}
	return TruthTable{NumInputs: numInputs, Out: out}
}

// Implicant is a product term: for input i, if Mask bit i is 0 the input is
// "don't care"; otherwise it must equal bit i of Value.
type Implicant struct {
	Value uint32
	Mask  uint32
}

// Covers reports whether the implicant covers minterm v.
func (im Implicant) Covers(v uint32) bool { return v&im.Mask == im.Value }

// Literals returns the number of literals in the product term.
func (im Implicant) Literals() int { return bits.OnesCount32(im.Mask) }

// Minimize returns a small sum-of-products cover of tt using the
// Quine–McCluskey procedure: generate prime implicants by iterative merging,
// pick essential primes, then cover the remainder greedily (largest
// coverage first). The result is exact in function, heuristic in size.
func Minimize(tt TruthTable) []Implicant {
	var minterms []uint32
	for v, o := range tt.Out {
		if o {
			minterms = append(minterms, uint32(v))
		}
	}
	if len(minterms) == 0 {
		return nil
	}
	fullMask := uint32(1)<<uint(tt.NumInputs) - 1
	if len(minterms) == 1<<uint(tt.NumInputs) {
		// Constant true: one implicant with no literals.
		return []Implicant{{Value: 0, Mask: 0}}
	}

	primes := primeImplicants(minterms, fullMask)
	return coverMinterms(primes, minterms)
}

// primeImplicants merges adjacent implicants level by level until no merge
// applies; unmerged implicants are prime.
func primeImplicants(minterms []uint32, fullMask uint32) []Implicant {
	current := make(map[Implicant]bool, len(minterms))
	for _, m := range minterms {
		current[Implicant{Value: m, Mask: fullMask}] = false
	}
	var primes []Implicant
	for len(current) > 0 {
		next := make(map[Implicant]bool)
		// Group by mask then try single-bit merges within a group.
		var list []Implicant
		for im := range current {
			list = append(list, im)
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].Mask != list[j].Mask {
				return list[i].Mask < list[j].Mask
			}
			return list[i].Value < list[j].Value
		})
		index := make(map[Implicant]int, len(list))
		for i, im := range list {
			index[im] = i
		}
		merged := make([]bool, len(list))
		for i, im := range list {
			// Try flipping each cared-about bit; if the sibling
			// exists, they merge into a term without that bit.
			for m := im.Mask; m != 0; m &= m - 1 {
				bit := m & -m
				sib := Implicant{Value: im.Value ^ bit, Mask: im.Mask}
				j, ok := index[sib]
				if !ok {
					continue
				}
				merged[i] = true
				merged[j] = true
				nm := Implicant{Value: im.Value &^ bit, Mask: im.Mask &^ bit}
				next[nm] = false
			}
		}
		for i, im := range list {
			if !merged[i] {
				primes = append(primes, im)
			}
		}
		current = next
	}
	return primes
}

// coverMinterms selects essential primes first, then greedily the prime
// covering the most uncovered minterms (ties: fewer literals).
func coverMinterms(primes []Implicant, minterms []uint32) []Implicant {
	covering := make([][]int, len(minterms)) // minterm -> prime indices
	for pi, p := range primes {
		for mi, m := range minterms {
			if p.Covers(m) {
				covering[mi] = append(covering[mi], pi)
			}
		}
	}
	chosen := make(map[int]bool)
	covered := make([]bool, len(minterms))

	// Essential primes: sole cover of some minterm.
	for mi := range minterms {
		if len(covering[mi]) == 1 {
			chosen[covering[mi][0]] = true
		}
	}
	markCovered := func() {
		for mi, m := range minterms {
			if covered[mi] {
				continue
			}
			for pi := range chosen {
				if primes[pi].Covers(m) {
					covered[mi] = true
					break
				}
			}
		}
	}
	markCovered()

	// Greedy cover of the rest.
	for {
		remaining := 0
		for _, c := range covered {
			if !c {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		best, bestCount, bestLits := -1, 0, 0
		for pi, p := range primes {
			if chosen[pi] {
				continue
			}
			count := 0
			for mi, m := range minterms {
				if !covered[mi] && p.Covers(m) {
					count++
				}
			}
			if count > bestCount || (count == bestCount && count > 0 && p.Literals() < bestLits) {
				best, bestCount, bestLits = pi, count, p.Literals()
			}
		}
		if best < 0 {
			break // unreachable if primes cover all minterms
		}
		chosen[best] = true
		markCovered()
	}

	out := make([]Implicant, 0, len(chosen))
	for pi := range chosen {
		out = append(out, primes[pi])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value < out[j].Value
		}
		return out[i].Mask < out[j].Mask
	})
	return out
}

// SynthesizeSOP instantiates the cover as AND-OR logic over the given input
// signals (inputs[i] corresponds to variable i) and returns the output.
func SynthesizeSOP(c *Circuit, cover []Implicant, inputs []Signal) Signal {
	terms := make([]Signal, 0, len(cover))
	for _, im := range cover {
		term := c.Const(true)
		for i, in := range inputs {
			bit := uint32(1) << uint(i)
			if im.Mask&bit == 0 {
				continue
			}
			if im.Value&bit != 0 {
				term = c.And(term, in)
			} else {
				term = c.And(term, c.Not(in))
			}
		}
		terms = append(terms, term)
	}
	return c.OrN(terms...)
}
