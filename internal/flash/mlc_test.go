package flash

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
)

func TestCellModeReachableSLC(t *testing.T) {
	f := func(from, to byte) bool {
		return SLC.Reachable(from, to) == (to&^from == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellModeReachableMLC(t *testing.T) {
	cases := []struct {
		from, to byte
		want     bool
	}{
		{0xFF, 0x00, true},  // all cells 11 → 00
		{0xFF, 0xFF, true},  // no movement
		{0b01, 0b10, false}, // cell 0: 01 → 10 is upward
		{0b10, 0b01, true},  // cell 0: 10 → 01 is downward
		{0b11_00, 0b01_00, true},
		{0b00_00, 0b00_01, false},
		{0x55, 0x55, true},
		{0x00, 0xFF, false},
	}
	for _, c := range cases {
		if got := MLC.Reachable(c.from, c.to); got != c.want {
			t.Errorf("MLC.Reachable(%08b, %08b) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

// TestMLCReachableImpliesSLCSuperset: every SLC-reachable transition is
// also MLC-reachable (clearing bits only lowers cell levels), but not vice
// versa.
func TestMLCReachableImpliesSLCSuperset(t *testing.T) {
	f := func(from, to byte) bool {
		if SLC.Reachable(from, to) && !MLC.Reachable(from, to) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Strictness witness: 10 → 01 per cell.
	if !MLC.Reachable(0b10, 0b01) || SLC.Reachable(0b10, 0b01) {
		t.Error("MLC should allow 10→01 that SLC forbids")
	}
}

func TestMLCDeviceProgramSemantics(t *testing.T) {
	spec := smallSpec()
	spec.Cell = MLC
	d := MustNewDevice(spec)
	// 0xFF → 0xA5 (cells 10,01,10,01... wait per-byte): every cell of
	// 0xA5 (10 10 01 01 reading pairs) is <= 11.
	if err := d.ProgramByte(0, 0xA5); err != nil {
		t.Fatal(err)
	}
	// Raising any cell must fail: 0xA5 cell0 = 01 → 10 would rise.
	err := d.ProgramByte(0, 0xA6)
	if !errors.Is(err, ErrNeedsErase) {
		t.Fatalf("upward MLC move accepted: %v", err)
	}
	// Lowering cells is fine: 0xA5 → 0xA4 (cell0 01→00).
	if err := d.ProgramByte(0, 0xA4); err != nil {
		t.Fatal(err)
	}
	if d.Peek(0) != 0xA4 {
		t.Errorf("stored %02x", d.Peek(0))
	}
}

func TestCellModeString(t *testing.T) {
	if SLC.String() != "SLC" || MLC.String() != "MLC" || TLC.String() != "TLC" {
		t.Error("CellMode strings wrong")
	}
	// Out-of-range modes must render a stable token, not fall through to a
	// real mode's name.
	if got := CellMode(7).String(); got != "CellMode(7)" {
		t.Errorf("CellMode(7).String() = %q, want %q", got, "CellMode(7)")
	}
	if got := CellMode(-1).String(); got != "CellMode(-1)" {
		t.Errorf("CellMode(-1).String() = %q, want %q", got, "CellMode(-1)")
	}
}

func TestCellModeGeometry(t *testing.T) {
	cases := []struct {
		mode CellMode
		bits int
	}{{SLC, 1}, {MLC, 2}, {TLC, 3}}
	for _, c := range cases {
		if c.mode.Bits() != c.bits {
			t.Errorf("%v: Bits=%d, want %d", c.mode, c.mode.Bits(), c.bits)
		}
		if !c.mode.Valid() {
			t.Errorf("%v reported invalid", c.mode)
		}
	}
	for _, m := range []CellMode{-1, 3, 7} {
		if m.Valid() {
			t.Errorf("CellMode(%d) reported valid", int(m))
		}
	}
}

func TestCellModeReachableTLC(t *testing.T) {
	cases := []struct {
		from, to byte
		want     bool
	}{
		{0xFF, 0x00, true},                  // every field down to zero
		{0xFF, 0xFF, true},                  // no movement
		{0b000_000_01, 0b000_000_10, false}, // field 0: 1 → 2 rises
		{0b000_000_10, 0b000_000_01, true},  // field 0: 2 → 1 falls
		{0b000_111_00, 0b000_011_00, true},  // field 1 (bits 3-5): 7 → 3
		{0b000_011_00, 0b000_100_00, false}, // field 1: 3 → 4 rises
		{0b10_000_000, 0b01_000_000, true},  // top field (bits 6-7): 2 → 1
		{0b01_000_000, 0b10_000_000, false}, // top field: 1 → 2 rises
		// The MLC-only move that motivates the per-mode kernels: cell
		// 10→01 inside an MLC byte raises TLC field 0 from 0 to 4.
		{0b0000_1000, 0b0000_0100, false},
	}
	for _, c := range cases {
		if got := TLC.Reachable(c.from, c.to); got != c.want {
			t.Errorf("TLC.Reachable(%08b, %08b) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

// TestReachableDensityHierarchy: clearing bits only lowers any field, so
// SLC-reachable implies reachable under every denser mode; the converse has
// explicit counterexamples per pair.
func TestReachableDensityHierarchy(t *testing.T) {
	f := func(from, to byte) bool {
		if !SLC.Reachable(from, to) {
			return true
		}
		return MLC.Reachable(from, to) && TLC.Reachable(from, to)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// MLC allows 10→01 per cell; TLC allows 010→001 per field; SLC neither.
	if SLC.Reachable(0b10, 0b01) || !MLC.Reachable(0b10, 0b01) {
		t.Error("MLC hierarchy witness wrong")
	}
	if SLC.Reachable(0b010, 0b001) || !TLC.Reachable(0b010, 0b001) {
		t.Error("TLC hierarchy witness wrong")
	}
}

func TestTLCDeviceProgramSemantics(t *testing.T) {
	spec := smallSpec()
	spec.Cell = TLC
	d := MustNewDevice(spec)
	// Erased 0xFF → 0b10_011_101: every field only falls (2<3, 3<7, 5<7...
	// fields are 5, 3, 2 from bit 0 up; all below the erased 7, 7, 3).
	if err := d.ProgramByte(0, 0b10_011_101); err != nil {
		t.Fatal(err)
	}
	// Raising field 1 (3 → 4) must need an erase.
	err := d.ProgramByte(0, 0b10_100_101)
	if !errors.Is(err, ErrNeedsErase) {
		t.Fatalf("upward TLC move accepted: %v", err)
	}
	// Lowering field 0 (5 → 4) is a plain program.
	if err := d.ProgramByte(0, 0b10_011_100); err != nil {
		t.Fatal(err)
	}
	if d.Peek(0) != 0b10_011_100 {
		t.Errorf("stored %08b", d.Peek(0))
	}
}

func TestValidateRejectsInvalidCellMode(t *testing.T) {
	spec := smallSpec()
	spec.Cell = CellMode(5)
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted CellMode(5)")
	} else if want := "CellMode(5)"; !containsStr(err.Error(), want) {
		t.Errorf("error %q does not name the offending mode %q", err, want)
	}
	spec.Cell = CellMode(-2)
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted CellMode(-2)")
	}
	if _, err := NewDevice(spec); err == nil {
		t.Fatal("NewDevice accepted an invalid cell mode")
	}
	for _, m := range []CellMode{SLC, MLC, TLC} {
		spec.Cell = m
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate rejected %v: %v", m, err)
		}
	}
}

func TestDensitySpecDerating(t *testing.T) {
	base := DefaultSpec()
	for _, c := range []struct {
		mode      CellMode
		factor    int
		endurance uint32
	}{{SLC, 1, 100_000}, {MLC, 2, 10_000}, {TLC, 3, 1_000}} {
		s := DensitySpec(base, c.mode)
		if s.Cell != c.mode {
			t.Errorf("%v: cell mode not set", c.mode)
		}
		if s.ProgramLatency != base.ProgramLatency*time.Duration(c.factor) ||
			s.ProgramEnergy != base.ProgramEnergy*energy.Energy(c.factor) {
			t.Errorf("%v: program cost not scaled %dx", c.mode, c.factor)
		}
		if s.ReadLatency != base.ReadLatency*time.Duration(c.factor) {
			t.Errorf("%v: read latency not scaled %dx", c.mode, c.factor)
		}
		if s.EraseLatency != base.EraseLatency || s.EraseEnergy != base.EraseEnergy {
			t.Errorf("%v: erase cost must not change", c.mode)
		}
		if s.EnduranceCycles != c.endurance {
			t.Errorf("%v: endurance %d, want %d", c.mode, s.EnduranceCycles, c.endurance)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v: derated spec invalid: %v", c.mode, err)
		}
	}
	// Endurance floors at one cycle instead of hitting the Validate error.
	tiny := base
	tiny.EnduranceCycles = 5
	if s := DensitySpec(tiny, TLC); s.EnduranceCycles != 1 {
		t.Errorf("TLC endurance floor: got %d, want 1", s.EnduranceCycles)
	}
}

func containsStr(s, sub string) bool {
	return strings.Contains(s, sub)
}
