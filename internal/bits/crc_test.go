package bits

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// bruteCorrectSingleBit is the reference repair: flip each bit in (byte,
// bit) order, including the stored CRC's own bits, and keep the first flip
// that makes the checksum pass.
func bruteCorrectSingleBit(buf []byte, crcOff int) (int, bool) {
	for i := range buf {
		for bit := 0; bit < 8; bit++ {
			buf[i] ^= 1 << uint(bit)
			if crc32.ChecksumIEEE(buf[:crcOff]) == binary.LittleEndian.Uint32(buf[crcOff:]) {
				return 1, true
			}
			buf[i] ^= 1 << uint(bit)
		}
	}
	return 0, false
}

// checkMatchesBrute runs both repairs on copies of buf and fails unless
// they agree on the result and on the repaired bytes.
func checkMatchesBrute(t *testing.T, buf []byte, crcOff int) {
	t.Helper()
	want := append([]byte(nil), buf...)
	got := append([]byte(nil), buf...)
	wn, wok := bruteCorrectSingleBit(want, crcOff)
	gn, gok := CorrectSingleBit(got, crcOff)
	if gn != wn || gok != wok || !bytes.Equal(got, want) {
		t.Fatalf("len %d crcOff %d: got (%d, %v) %x, brute force (%d, %v) %x",
			len(buf), crcOff, gn, gok, got, wn, wok, want)
	}
}

// TestCorrectSingleBitMatchesBrute flips every bit of random, all-0xFF and
// CRC-valid buffers, and tries each unflipped too.
func TestCorrectSingleBitMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 5, 8, 9, 21, 64, 131, 300} {
		crcOffs := []int{n - 4}
		if n > 8 && n < 100 {
			crcOffs = append(crcOffs, 0, n/2) // trailing bytes after the CRC
		}
		for _, crcOff := range crcOffs {
			random := make([]byte, n)
			rng.Read(random)
			blank := bytes.Repeat([]byte{0xFF}, n)
			valid := append([]byte(nil), random...)
			binary.LittleEndian.PutUint32(valid[crcOff:], crc32.ChecksumIEEE(valid[:crcOff]))
			for _, buf := range [][]byte{random, blank, valid} {
				checkMatchesBrute(t, buf, crcOff)
				for i := 0; i < 8*n; i++ {
					buf[i/8] ^= 1 << uint(i%8)
					checkMatchesBrute(t, buf, crcOff)
					buf[i/8] ^= 1 << uint(i%8)
				}
			}
		}
	}
}

// TestCorrectSingleBitRepairs checks the repair itself on a 4.5 KB
// CRC-valid buffer: a flip of any bit of a byte at either end of the
// payload, inside it, or in the trailer is undone, and an intact buffer
// is left alone.
func TestCorrectSingleBitRepairs(t *testing.T) {
	orig := make([]byte, 4608)
	rand.New(rand.NewSource(2)).Read(orig)
	crcOff := len(orig) - 4
	binary.LittleEndian.PutUint32(orig[crcOff:], crc32.ChecksumIEEE(orig[:crcOff]))
	buf := append([]byte(nil), orig...)
	for _, i := range []int{0, 1, 7, 8, 1000, crcOff - 1, crcOff, crcOff + 3} {
		for bit := 0; bit < 8; bit++ {
			buf[i] ^= 1 << uint(bit)
			if n, ok := CorrectSingleBit(buf, crcOff); n != 1 || !ok || !bytes.Equal(buf, orig) {
				t.Fatalf("flip of byte %d bit %d: got (%d, %v), bytes restored %v", i, bit, n, ok, bytes.Equal(buf, orig))
			}
		}
	}
	if n, ok := CorrectSingleBit(buf, crcOff); n != 0 || ok || !bytes.Equal(buf, orig) {
		t.Fatalf("intact buffer: got (%d, %v), want (0, false) and no change", n, ok)
	}
}

// FuzzCorrectSingleBitMatchesBrute compares the linear-time repair with
// the brute force on any buffer, any trailer offset and any single flip
// (or none), with the buffer as given, made CRC-valid, or blank.
func FuzzCorrectSingleBitMatchesBrute(f *testing.F) {
	f.Add([]byte("flipbit records"), uint16(11), uint16(3), uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 40), uint16(36), uint16(0), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5}, uint16(0), uint16(40), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, off, flip uint16, mode uint8) {
		if len(data) < 4 || len(data) > 600 {
			t.Skip()
		}
		buf := append([]byte(nil), data...)
		crcOff := int(off) % (len(buf) - 3)
		switch mode % 3 {
		case 1:
			binary.LittleEndian.PutUint32(buf[crcOff:], crc32.ChecksumIEEE(buf[:crcOff]))
		case 2:
			for i := range buf {
				buf[i] = 0xFF
			}
		}
		if i := int(flip) % (8*len(buf) + 1); i < 8*len(buf) {
			buf[i/8] ^= 1 << uint(i%8)
		}
		checkMatchesBrute(t, buf, crcOff)
	})
}

// BenchmarkCorrectSingleBit searches a blank 4.5 KB checkpoint slot, the
// FTL's first-mount case: no flip repairs it, so the whole buffer is
// walked.
func BenchmarkCorrectSingleBit(b *testing.B) {
	buf := bytes.Repeat([]byte{0xFF}, 4608)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, ok := CorrectSingleBit(buf, len(buf)-4); ok {
			b.Fatal("blank slot repaired")
		}
	}
}
