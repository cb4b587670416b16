// Package compress implements the MCU-grade compression the paper's
// related work applies to flash traffic (§VII: "compression has been
// explored to reduce the total memory traffic, and therefore number of
// erases needed"): a static Huffman coder whose table is trained once and
// shared out of band, applied to temporal deltas of sensor records.
//
// The exp-related experiment uses it as another exact baseline against
// FlipBit: compression shrinks the bytes written, FlipBit removes erases —
// different levers, composable in principle.
package compress

import (
	"errors"
	"fmt"
)

// ErrCorrupt is returned when decoding a malformed bitstream.
var ErrCorrupt = errors.New("compress: corrupt bitstream")

// StaticCoder is a Huffman coder with a table trained once and shared
// between encoder and decoder out of band — the configuration embedded
// loggers actually deploy, since a per-record table would dwarf small
// records. Laplace smoothing keeps every symbol encodable even if it never
// appeared in the training data.
type StaticCoder struct {
	codes  [256]huffCode
	decode map[uint32]byte // key: len<<16 | code
}

// NewStaticCoder trains a coder on representative data.
func NewStaticCoder(training []byte) *StaticCoder {
	var freq [256]uint64
	for i := range freq {
		freq[i] = 1 // smoothing
	}
	for _, b := range training {
		freq[b]++
	}
	lengths := huffmanCodeLengths(freq[:])
	c := &StaticCoder{codes: canonicalCodes(lengths), decode: make(map[uint32]byte)}
	for sym, hc := range c.codes {
		if hc.len > 0 {
			c.decode[uint32(hc.len)<<16|uint32(hc.code)] = byte(sym)
		}
	}
	return c
}

// Encode returns the raw bitstream for src (no header; the caller tracks
// the original length).
func (c *StaticCoder) Encode(src []byte) []byte {
	out := make([]byte, 0, len(src)/2+1)
	var acc uint32
	var nbits uint
	for _, b := range src {
		hc := c.codes[b]
		acc |= uint32(hc.code) << nbits
		nbits += uint(hc.len)
		for nbits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// Decode recovers n symbols from the bitstream.
func (c *StaticCoder) Decode(src []byte, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	var cur uint16
	var curLen uint8
	bitIdx := 0
	for len(out) < n {
		if bitIdx >= 8*len(src) {
			return nil, fmt.Errorf("%w: static bitstream exhausted at %d/%d", ErrCorrupt, len(out), n)
		}
		bit := src[bitIdx/8] >> uint(bitIdx%8) & 1
		bitIdx++
		cur |= uint16(bit) << curLen
		curLen++
		if curLen > huffMaxCodeLen {
			return nil, fmt.Errorf("%w: no static code matches", ErrCorrupt)
		}
		if sym, ok := c.decode[uint32(curLen)<<16|uint32(cur)]; ok {
			out = append(out, sym)
			cur, curLen = 0, 0
		}
	}
	return out, nil
}
