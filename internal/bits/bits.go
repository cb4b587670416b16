// Package bits provides small bit-manipulation helpers shared by the
// approximation algorithms and the flash model.
//
// Throughout the repository values are carried in uint32 containers even when
// the logical width is 8 or 16 bits; Width describes the logical width and
// its Mask limits which bits are meaningful.
package bits

import (
	"encoding/binary"
	"fmt"
)

// Width is the logical width of a value stored in flash.
type Width int

// Supported value widths. The FlipBit hardware is configured for one of
// these through a memory-mapped register (paper §III-C).
const (
	W8  Width = 8
	W16 Width = 16
	W32 Width = 32
)

// Valid reports whether w is one of the supported widths.
func (w Width) Valid() bool {
	return w == W8 || w == W16 || w == W32
}

// Bytes returns the number of bytes a value of this width occupies.
func (w Width) Bytes() int { return int(w) / 8 }

// Mask returns a mask with the w low bits set.
func (w Width) Mask() uint32 {
	if w == W32 {
		return 0xFFFFFFFF
	}
	return (uint32(1) << uint(w)) - 1
}

func (w Width) String() string {
	if w.Valid() {
		return fmt.Sprintf("u%d", int(w))
	}
	return fmt.Sprintf("Width(%d)", int(w))
}

// Bit returns bit i (0 = LSB) of v as 0 or 1.
func Bit(v uint32, i int) uint32 { return (v >> uint(i)) & 1 }

// SetBit returns v with bit i set to b (b must be 0 or 1).
func SetBit(v uint32, i int, b uint32) uint32 {
	if b == 0 {
		return v &^ (1 << uint(i))
	}
	return v | (1 << uint(i))
}

// IsSubset reports whether every set bit of v is also set in of.
// In flash terms: v can be reached from of using only 1→0 programs.
func IsSubset(v, of uint32) bool { return v&^of == 0 }

// AbsDiff returns |a-b| treating a and b as unsigned magnitudes.
func AbsDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// Field extracts n bits of v starting at bit hi downward:
// Field(v, hi, n) == v[hi : hi-n+1]. Bits below index 0 read as zero,
// matching the zero padding of the low approximation slices (paper Fig 7).
func Field(v uint32, hi, n int) uint32 {
	out := uint32(0)
	for k := 0; k < n; k++ {
		i := hi - k
		out <<= 1
		if i >= 0 {
			out |= Bit(v, i)
		}
	}
	return out
}

// LoadLE assembles a little-endian value of the given width from b.
func LoadLE(b []byte, w Width) uint32 {
	switch w {
	case W8:
		return uint32(b[0])
	case W16:
		return uint32(binary.LittleEndian.Uint16(b))
	case W32:
		return binary.LittleEndian.Uint32(b)
	}
	var v uint32
	for i := w.Bytes() - 1; i >= 0; i-- {
		v = v<<8 | uint32(b[i])
	}
	return v
}

// StoreLE writes v into b little-endian at the given width.
func StoreLE(b []byte, v uint32, w Width) {
	switch w {
	case W8:
		b[0] = byte(v)
	case W16:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case W32:
		binary.LittleEndian.PutUint32(b, v)
	default:
		for i := 0; i < w.Bytes(); i++ {
			b[i] = byte(v >> uint(8*i))
		}
	}
}

// SubsetBytes reports whether every set bit of v is also set in the
// corresponding byte of of — the slice form of IsSubset, i.e. whether v is
// reachable from of with 1→0 programs alone. The slices must have equal
// length; the scan runs eight bytes per step.
func SubsetBytes(v, of []byte) bool {
	i := 0
	for ; i+8 <= len(v); i += 8 {
		if binary.LittleEndian.Uint64(v[i:])&^binary.LittleEndian.Uint64(of[i:]) != 0 {
			return false
		}
	}
	for ; i < len(v); i++ {
		if v[i]&^of[i] != 0 {
			return false
		}
	}
	return true
}
