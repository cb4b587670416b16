package compress

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// roundTrip encodes src with c and decodes it back.
func roundTrip(c *StaticCoder, src []byte) ([]byte, []byte, error) {
	enc := c.Encode(src)
	got, err := c.Decode(enc, len(src))
	return enc, got, err
}

// TestHuffmanRoundTripProperty: a coder trained on any data round-trips any
// input — smoothing keeps every byte encodable, seen in training or not.
func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(training, src []byte) bool {
		_, got, err := roundTrip(NewStaticCoder(training), src)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHuffmanEmpty(t *testing.T) {
	enc, got, err := roundTrip(NewStaticCoder(nil), nil)
	if err != nil || len(enc) != 0 || len(got) != 0 {
		t.Errorf("empty round trip: %d-byte stream, %v, %v", len(enc), got, err)
	}
}

// TestHuffmanSingleSymbol: a symbol that dominates training gets a 1-bit
// code.
func TestHuffmanSingleSymbol(t *testing.T) {
	src := bytes.Repeat([]byte{42}, 500)
	enc, got, err := roundTrip(NewStaticCoder(src), src)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatal("single-symbol round trip failed")
	}
	if len(enc) != (500+7)/8 {
		t.Errorf("500 dominant symbols coded in %d bytes, want %d", len(enc), (500+7)/8)
	}
}

// TestHuffmanCompressesLowEntropy: trained on a 5-symbol delta stream, the
// coder must code fresh data from the same source close to its entropy
// (~2.3 bits/symbol).
func TestHuffmanCompressesLowEntropy(t *testing.T) {
	rng := xrand.New(11)
	stream := func() []byte {
		out := make([]byte, 8192)
		for i := range out {
			out[i] = byte(int8(rng.Intn(5) - 2)) // -2..2 as bytes
		}
		return out
	}
	c := NewStaticCoder(stream())
	src := stream()
	enc, got, err := roundTrip(c, src)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatal("round trip failed")
	}
	if bitsPerSym := 8 * float64(len(enc)) / float64(len(src)); bitsPerSym > 2.7 {
		t.Errorf("5-symbol stream coded at %.2f bits/symbol, want < 2.7", bitsPerSym)
	}
}

// TestHuffmanRandomData: uniform bytes cannot compress, but the smoothed
// table keeps the expansion to a few percent.
func TestHuffmanRandomData(t *testing.T) {
	rng := xrand.New(13)
	random := func() []byte {
		out := make([]byte, 4096)
		for i := range out {
			out[i] = rng.Byte()
		}
		return out
	}
	c := NewStaticCoder(random())
	src := random()
	enc, got, err := roundTrip(c, src)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatal("random round trip failed")
	}
	if len(enc) > len(src)+len(src)/20 {
		t.Errorf("random data blew up to %d bytes", len(enc))
	}
}

// TestHuffmanCorrupt: a bitstream cut short of the symbols the caller asks
// for is rejected with ErrCorrupt, never padded out.
func TestHuffmanCorrupt(t *testing.T) {
	c := NewStaticCoder([]byte("aaaaabbbbcccdde"))
	src := []byte("abcdeabcde")
	enc := c.Encode(src)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := c.Decode(enc[:cut], len(src)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("stream cut to %d/%d bytes: err = %v, want ErrCorrupt", cut, len(enc), err)
		}
	}
	if _, err := c.Decode(enc, len(src)+8*len(enc)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("more symbols than the stream holds: err = %v, want ErrCorrupt", err)
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	rng := xrand.New(17)
	freq := make([]uint64, 256)
	for i := range freq {
		freq[i] = uint64(rng.Intn(1000))
	}
	lengths := huffmanCodeLengths(freq)
	codes := canonicalCodes(lengths)
	// No code may be a prefix of another (compare in LSB-first space).
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			ca, cb := codes[a], codes[b]
			if a == b || ca.len == 0 || cb.len == 0 || ca.len > cb.len {
				continue
			}
			mask := uint16(1)<<ca.len - 1
			if ca.code == cb.code&mask {
				t.Fatalf("code of %d (len %d) is a prefix of %d (len %d)", a, ca.len, b, cb.len)
			}
		}
	}
}
