package bits

import (
	"encoding/binary"
	"hash/crc32"
	mathbits "math/bits"
)

// CorrectSingleBit repairs, in place, a single flipped bit in a buffer
// protected by a CRC-32 (IEEE) whose little-endian trailer sits at
// buf[crcOff:crcOff+4]; buf must hold at least crcOff+4 bytes. It returns
// (1, true) with the bit flipped back, or (0, false) with buf unchanged
// when no single flip makes the checksum pass. The flip it undoes is the
// one a brute-force search of every bit, in (byte, bit) order and the
// stored CRC's own bits included, finds first. This is the read-disturb
// defence: a drifted cell is a single 1 → 0 flip.
//
// It runs in O(len(buf)): the CRC is affine, so a flip of bit b in byte i
// changes crc(buf[:crcOff]) by a syndrome that depends only on b and the
// distance from i to crcOff. The syndromes are walked backward from the
// last payload byte, one table step per byte and bit, and compared with
// the observed crc(buf[:crcOff]) ^ stored. A flip of trailer bit j has
// syndrome 1<<j.
func CorrectSingleBit(buf []byte, crcOff int) (int, bool) {
	end := crcOff + 4
	target := crc32.ChecksumIEEE(buf[:crcOff]) ^ binary.LittleEndian.Uint32(buf[crcOff:end])
	if target == 0 {
		// The checksum already passes, and every flip inside
		// buf[:end] breaks it: only a byte past the trailer can take
		// a flip.
		if len(buf) > end {
			buf[end] ^= 1
			return 1, true
		}
		return 0, false
	}
	// syn[b] is the syndrome of flipping bit b of byte i: the table entry
	// the flipped bit selects, carried through the crcOff-1-i bytes after
	// it. Walking i down appends one zero byte to every carry. CRC-32
	// gives every single-bit flip in a buffer shorter than 512 MiB a
	// distinct syndrome, so the one match is the brute force's first.
	var syn [8]uint32
	for b := range syn {
		syn[b] = crc32.IEEETable[1<<b]
	}
	for i := crcOff - 1; i >= 0; i-- {
		for b := range syn {
			if syn[b] == target {
				buf[i] ^= 1 << uint(b)
				return 1, true
			}
			syn[b] = crc32.IEEETable[byte(syn[b])] ^ syn[b]>>8
		}
	}
	if target&(target-1) == 0 {
		j := mathbits.TrailingZeros32(target)
		buf[crcOff+j/8] ^= 1 << uint(j%8)
		return 1, true
	}
	return 0, false
}
