package bits

import (
	"testing"
	"testing/quick"
)

func TestWidthValid(t *testing.T) {
	for _, w := range []Width{W8, W16, W32} {
		if !w.Valid() {
			t.Errorf("%v should be valid", w)
		}
	}
	for _, w := range []Width{0, 1, 7, 9, 24, 64} {
		if w.Valid() {
			t.Errorf("Width(%d) should be invalid", int(w))
		}
	}
}

func TestWidthMask(t *testing.T) {
	cases := []struct {
		w    Width
		mask uint32
	}{
		{W8, 0xFF},
		{W16, 0xFFFF},
		{W32, 0xFFFFFFFF},
	}
	for _, c := range cases {
		if got := c.w.Mask(); got != c.mask {
			t.Errorf("%v.Mask() = %#x, want %#x", c.w, got, c.mask)
		}
	}
}

func TestWidthBytes(t *testing.T) {
	if W8.Bytes() != 1 || W16.Bytes() != 2 || W32.Bytes() != 4 {
		t.Errorf("Bytes: got %d %d %d", W8.Bytes(), W16.Bytes(), W32.Bytes())
	}
}

func TestWidthString(t *testing.T) {
	if W16.String() != "u16" {
		t.Errorf("W16.String() = %q", W16.String())
	}
	if Width(5).String() != "Width(5)" {
		t.Errorf("Width(5).String() = %q", Width(5).String())
	}
}

func TestBitAndSetBit(t *testing.T) {
	v := uint32(0b1010)
	if Bit(v, 0) != 0 || Bit(v, 1) != 1 || Bit(v, 3) != 1 {
		t.Errorf("Bit extraction wrong for %#b", v)
	}
	if got := SetBit(v, 0, 1); got != 0b1011 {
		t.Errorf("SetBit(1010,0,1) = %#b", got)
	}
	if got := SetBit(v, 3, 0); got != 0b0010 {
		t.Errorf("SetBit(1010,3,0) = %#b", got)
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		v, of uint32
		want  bool
	}{
		{0b0000, 0b0000, true},
		{0b0101, 0b0101, true},
		{0b0001, 0b0101, true},
		{0b0010, 0b0101, false},
		{0b1111, 0b0101, false},
	}
	for _, c := range cases {
		if got := IsSubset(c.v, c.of); got != c.want {
			t.Errorf("IsSubset(%#b,%#b) = %v, want %v", c.v, c.of, got, c.want)
		}
	}
}

func TestIsSubsetProperty(t *testing.T) {
	// Any v&of is a subset of of.
	f := func(v, of uint32) bool { return IsSubset(v&of, of) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbsDiff(t *testing.T) {
	if AbsDiff(3, 10) != 7 || AbsDiff(10, 3) != 7 || AbsDiff(5, 5) != 0 {
		t.Error("AbsDiff basic cases failed")
	}
}

func TestField(t *testing.T) {
	v := uint32(0b1101_0110)
	cases := []struct {
		hi, n int
		want  uint32
	}{
		{7, 1, 0b1},
		{7, 4, 0b1101},
		{3, 4, 0b0110},
		{1, 4, 0b1000}, // zero padded below bit 0
		{0, 2, 0b00},
	}
	for _, c := range cases {
		if got := Field(v, c.hi, c.n); got != c.want {
			t.Errorf("Field(%#b,%d,%d) = %#b, want %#b", v, c.hi, c.n, got, c.want)
		}
	}
}

func TestLoadStoreLERoundTrip(t *testing.T) {
	for _, w := range []Width{W8, W16, W32} {
		f := func(v uint32) bool {
			v &= w.Mask()
			buf := make([]byte, w.Bytes())
			StoreLE(buf, v, w)
			return LoadLE(buf, w) == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", w, err)
		}
	}
}

func TestStoreLEByteOrder(t *testing.T) {
	buf := make([]byte, 4)
	StoreLE(buf, 0x04030201, W32)
	want := []byte{0x01, 0x02, 0x03, 0x04}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("StoreLE little-endian order: got %v, want %v", buf, want)
		}
	}
}
