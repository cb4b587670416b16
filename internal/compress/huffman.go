package compress

import (
	"container/heap"
	"sort"
)

// Order-0 canonical Huffman code construction for StaticCoder.

// huffMaxCodeLen caps code lengths so every code fits huffCode's uint16.
const huffMaxCodeLen = 15

// huffmanCodeLengths computes per-symbol code lengths via the standard
// heap construction, then clamps to huffMaxCodeLen by flattening (rare for
// 256 symbols; handled by recomputing with damped frequencies).
func huffmanCodeLengths(freq []uint64) []byte {
	type node struct {
		w           uint64
		sym         int // >= 0 for leaves
		left, right int // indices into pool for internal nodes
	}
	var pool []node
	h := &nodeHeap{}
	for s, f := range freq {
		if f > 0 {
			pool = append(pool, node{w: f, sym: s, left: -1, right: -1})
			heap.Push(h, heapItem{w: f, idx: len(pool) - 1})
		}
	}
	lengths := make([]byte, 256)
	switch h.Len() {
	case 0:
		return lengths
	case 1:
		// A single distinct symbol still needs one bit.
		lengths[pool[0].sym] = 1
		return lengths
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(heapItem)
		b := heap.Pop(h).(heapItem)
		pool = append(pool, node{w: a.w + b.w, sym: -1, left: a.idx, right: b.idx})
		heap.Push(h, heapItem{w: a.w + b.w, idx: len(pool) - 1})
	}
	root := heap.Pop(h).(heapItem).idx
	// Depth-first assignment of lengths.
	var walk func(idx int, depth byte)
	walk = func(idx int, depth byte) {
		nd := pool[idx]
		if nd.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[nd.sym] = depth
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(root, 0)

	// Clamp pathological depths by damping frequencies and retrying.
	for _, l := range lengths {
		if l > huffMaxCodeLen {
			damped := make([]uint64, 256)
			for s, f := range freq {
				if f > 0 {
					damped[s] = f/2 + 1
				}
			}
			return huffmanCodeLengths(damped)
		}
	}
	return lengths
}

type huffCode struct {
	code uint16
	len  uint8
}

// canonicalCodes assigns canonical codes (shortest first, then by symbol).
// Codes are emitted LSB-first in the bitstream, so the stored code is the
// bit-reversed canonical value.
func canonicalCodes(lengths []byte) [256]huffCode {
	type sl struct {
		sym int
		l   byte
	}
	var order []sl
	for s, l := range lengths {
		if l > 0 {
			order = append(order, sl{s, l})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].l != order[j].l {
			return order[i].l < order[j].l
		}
		return order[i].sym < order[j].sym
	})
	var codes [256]huffCode
	code := uint16(0)
	prevLen := byte(0)
	for _, e := range order {
		code <<= uint(e.l - prevLen)
		prevLen = e.l
		codes[e.sym] = huffCode{code: reverseBits(code, e.l), len: e.l}
		code++
	}
	return codes
}

func reverseBits(v uint16, n byte) uint16 {
	var out uint16
	for i := byte(0); i < n; i++ {
		out = out<<1 | v&1
		v >>= 1
	}
	return out
}

type heapItem struct {
	w   uint64
	idx int
}

type nodeHeap []heapItem

func (h nodeHeap) Len() int      { return len(h) }
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].idx < h[j].idx // deterministic ties
}
func (h *nodeHeap) Push(x any) { *h = append(*h, x.(heapItem)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
