package compress

import (
	"bytes"
	"testing"
)

// FuzzStaticCoderRoundTrip: a coder trained on any data must round-trip
// any input.
func FuzzStaticCoderRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{7}, []byte{7, 7, 0xFF})
	f.Add([]byte("aaaaabbbbcccdde"), []byte("edcbaxyz"))
	f.Fuzz(func(t *testing.T, training, src []byte) {
		c := NewStaticCoder(training)
		got, err := c.Decode(c.Encode(src), len(src))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzStaticCoderDecodeRobust: hostile bitstreams must never panic the
// decoder; an error is acceptable, a short result is not.
func FuzzStaticCoderDecodeRobust(f *testing.F) {
	f.Add([]byte("aaaaabbbbcccdde"), []byte{0x00, 0xFF, 0x5A}, uint16(9))
	f.Fuzz(func(t *testing.T, training, src []byte, n uint16) {
		got, err := NewStaticCoder(training).Decode(src, int(n))
		if err == nil && len(got) != int(n) {
			t.Fatalf("decoded %d symbols without error, want %d", len(got), n)
		}
	})
}
