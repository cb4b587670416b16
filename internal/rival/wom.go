package rival

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/core"
)

// WOM implements the Rivest–Shamir ⟨2,2⟩ write-once-memory code over one
// flash page: every 2 logical bits occupy 3 cells and survive two writes
// between erases. This is the "coding" family of erase-reduction techniques
// the paper cites [39,57,58,98] and critiques for its memory footprint
// (1.5× here).
//
// Code (in RS space, where 1 = a written cell; flash stores the
// complement, since erased NOR cells read 1 and programming clears):
//
//	value  gen-1  gen-2
//	 00     000    111
//	 01     100    011
//	 10     010    101
//	 11     001    110
//
// gen-2(v) is the complement of gen-1(v), so any gen-1 codeword can reach
// any *different* value's gen-2 codeword by writing cells only — rewriting
// the same value is a no-op, which is what makes the construction work.
type WOM struct {
	dev  *core.Device
	page int
	// gen tracks the write generation of each dibit (0 = erased).
	gen []uint8
	// cache mirrors the decoded logical content.
	cache []byte
}

// gen1Cell[v] is the cell index written by the generation-1 codeword of v,
// or -1 for value 00 (no cell written).
var gen1Cell = [4]int{-1, 0, 1, 2}

// NewWOM builds a WOM store over one page. Capacity is
// 2·(pageBits/3)/8 logical bytes.
func NewWOM(dev *core.Device, page int) *WOM {
	ps := dev.Flash().Spec().PageSize
	dibits := ps * 8 / 3
	dibits -= dibits % 4 // whole logical bytes only
	return &WOM{
		dev:   dev,
		page:  page,
		gen:   make([]uint8, dibits),
		cache: make([]byte, dibits/4),
	}
}

// Capacity returns the logical bytes the page stores under the code.
func (w *WOM) Capacity() int { return len(w.cache) }

// Write stores the logical buffer (must be exactly Capacity bytes). Dibits
// still on generation ≤ 1 absorb the change with programs only; if any
// dibit would need a third write, the whole page is erased first and
// everything restarts at generation 1.
func (w *WOM) Write(data []byte) error {
	if len(data) != w.Capacity() {
		return fmt.Errorf("rival: WOM write needs exactly %d bytes, got %d", w.Capacity(), len(data))
	}
	if w.needsErase(data) {
		if err := w.dev.Flash().ErasePage(w.page); err != nil {
			return err
		}
		for i := range w.gen {
			w.gen[i] = 0
		}
		for i := range w.cache {
			w.cache[i] = 0
		}
	}
	return w.program(data)
}

// needsErase reports whether any changing dibit has exhausted both
// generations.
func (w *WOM) needsErase(data []byte) bool {
	for d := 0; d < len(w.gen); d++ {
		if w.gen[d] >= 2 && w.dibitOf(data, d) != w.dibitOf(w.cache, d) {
			return true
		}
	}
	return false
}

// program writes every changing dibit at its next generation.
func (w *WOM) program(data []byte) error {
	fl := w.dev.Flash()
	base := fl.PageBase(w.page)
	// Collect per-byte clears so each flash byte is programmed once.
	ps := fl.Spec().PageSize
	clear := make([]byte, ps) // bits to clear per byte
	touched := make([]bool, ps)
	for d := 0; d < len(w.gen); d++ {
		v := w.dibitOf(data, d)
		cur := w.dibitOf(w.cache, d)
		if w.gen[d] != 0 && v == cur {
			continue // same value: no cells to write
		}
		var rs uint8 // RS-space codeword to have written after this op
		switch w.gen[d] {
		case 0:
			rs = gen1Word(v)
			w.gen[d] = 1
			if v == 0 {
				// 00 at generation 1 writes no cells but still
				// consumes the generation.
				w.setDibit(d, v)
				continue
			}
		case 1:
			rs = ^gen1Word(v) & 0b111 // generation-2 codeword
			w.gen[d] = 2
		default:
			return fmt.Errorf("rival: WOM dibit %d written past generation 2", d)
		}
		w.setDibit(d, v)
		for c := 0; c < 3; c++ {
			if rs&(1<<uint(c)) == 0 {
				continue
			}
			bit := d*3 + c
			clear[bit/8] |= 1 << uint(bit%8)
			touched[bit/8] = true
		}
	}
	for i := 0; i < ps; i++ {
		if !touched[i] {
			continue
		}
		cur, err := fl.ReadByteAt(base + i)
		if err != nil {
			return err
		}
		if err := fl.ProgramByte(base+i, cur&^clear[i]); err != nil {
			return err
		}
	}
	return nil
}

func gen1Word(v byte) uint8 {
	if gen1Cell[v] < 0 {
		return 0
	}
	return 1 << uint(gen1Cell[v])
}

func (w *WOM) dibitOf(buf []byte, d int) byte {
	return buf[d/4] >> uint(2*(d%4)) & 0b11
}

func (w *WOM) setDibit(d int, v byte) {
	shift := uint(2 * (d % 4))
	w.cache[d/4] = w.cache[d/4]&^(0b11<<shift) | v<<shift
}

// DecodeCell decodes one dibit directly from flash: the round-trip oracle
// that proves the cells hold what Write was given.
func (w *WOM) DecodeCell(d int) (byte, error) {
	fl := w.dev.Flash()
	base := fl.PageBase(w.page)
	var rs uint8
	for c := 0; c < 3; c++ {
		bit := d*3 + c
		b, err := fl.ReadByteAt(base + bit/8)
		if err != nil {
			return 0, err
		}
		if b&(1<<uint(bit%8)) == 0 { // cleared cell = written in RS space
			rs |= 1 << uint(c)
		}
	}
	switch popcount3(rs) {
	case 0:
		return 0, nil
	case 1:
		return cellValue(rs), nil
	case 2:
		return cellValue(^rs & 0b111), nil
	default:
		return 0, nil // 111 is generation-2 of value 00
	}
}

func popcount3(v uint8) int {
	return int(v&1 + v>>1&1 + v>>2&1)
}

// cellValue inverts gen1Word for weight-1 codewords.
func cellValue(rs uint8) byte {
	for v := byte(1); v < 4; v++ {
		if gen1Word(v) == rs {
			return v
		}
	}
	return 0
}
