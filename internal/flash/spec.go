// Package flash models an embedded NOR flash memory at the level FlipBit
// cares about: bit-level program/erase semantics, page organisation, SRAM
// write buffers, per-operation latency and energy, and wear (paper §II).
//
// The physical rules the model enforces are exactly the ones the paper's
// mechanism exploits:
//
//   - an erase works on a whole page and sets every bit to 1;
//   - a program works on a single byte and can only clear bits (1 → 0);
//   - erase is ~340× slower and ~360× more energetic than a program;
//   - every program/erase cycle wears the page's tunnel oxide.
package flash

import (
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
)

// CellMode selects how many bits one flash cell stores and therefore what
// a program pulse can do to it. A cell storing b bits holds one of 2^b
// logical levels; erasing sets it to the top level and every program pulse
// moves it monotonically *down* (§VI: 11 → 10 → 01 → 00 for MLC). SLC is
// the degenerate b = 1 case, where "level decrease" is exactly "clear a
// bit". Denser modes trade endurance and program cost for capacity — see
// DensitySpec.
type CellMode int

// Supported cell modes. The ordinal encodes the density: Bits() == m + 1.
const (
	SLC CellMode = iota // 1 bit/cell, 2 levels
	MLC                 // 2 bits/cell, 4 levels
	TLC                 // 3 bits/cell, 8 levels
)

func (m CellMode) String() string {
	switch m {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	}
	// Stable token for out-of-range values so error messages and logs can
	// name the offending mode instead of mislabelling it as a real one.
	return fmt.Sprintf("CellMode(%d)", int(m))
}

// Valid reports whether m is a supported cell mode. Spec.Validate rejects
// invalid modes up front; nothing else in the package defends against them.
func (m CellMode) Valid() bool { return m >= SLC && m <= TLC }

// Bits returns the number of bits one cell stores under this mode.
func (m CellMode) Bits() int { return int(m) + 1 }

// Reachable reports whether a byte holding `from` can be programmed to
// `to` without an erase under this cell mode: every cell-level field of
// the byte may only decrease. Fields are Bits() wide starting at bit 0,
// with the top field truncated at the byte boundary (TLC splits a byte
// 3-3-2); cells never span bytes, which is what keeps the byte-granular
// program operation well defined per cell mode. For SLC the per-field
// test degenerates to the bitwise subset test, taken word-wise here.
func (m CellMode) Reachable(from, to byte) bool {
	if m == SLC {
		return to&^from == 0
	}
	b := uint(m.Bits())
	mask := byte(1)<<b - 1
	for shift := uint(0); shift < 8; shift += b {
		if to>>shift&mask > from>>shift&mask {
			return false
		}
	}
	return true
}

// DensitySpec re-parameterises base for the given cell density, modelling
// what running the same silicon at more bits per cell costs:
//
//   - programming a b-bit cell needs b-fold finer pulse/verify staircases,
//     so per-byte program latency and energy scale by Bits();
//   - reads discriminate 2^b levels with b reference comparisons instead
//     of one, so read and sense latency/energy scale by Bits() too;
//   - the tighter level windows die sooner: endurance drops one decade per
//     extra bit (the classic 100k/10k/1k SLC/MLC/TLC ladder), floored at
//     one cycle;
//   - erase is a whole-page charge-pump operation and does not change.
//
// Capacity is the flip side — the same physical cells hold Bits()× the
// data — but this model keeps Spec geometry in *logical* bytes, so density
// sweeps account capacity as Bits()× per physical cell (see the lifetime
// experiment) rather than by inflating PageSize here.
func DensitySpec(base Spec, mode CellMode) Spec {
	s := base
	s.Cell = mode
	b := mode.Bits()
	s.ProgramLatency *= time.Duration(b)
	s.ProgramEnergy *= energy.Energy(b)
	s.ReadLatency *= time.Duration(b)
	s.ReadEnergy *= energy.Energy(b)
	s.SenseLatency *= time.Duration(b)
	s.SenseEnergy *= energy.Energy(b)
	for i := 1; i < b; i++ {
		s.EnduranceCycles /= 10
	}
	if s.EnduranceCycles == 0 {
		s.EnduranceCycles = 1
	}
	return s
}

// DefaultBanks is the bank count used when a Spec leaves Banks zero.
// Commercial parts commonly expose two to four independently operable
// banks/planes; four is the sweet spot for the parallel commit path.
const DefaultBanks = 4

// Spec describes a flash part: geometry, datasheet timing/energy and
// endurance. The zero value is not usable; start from DefaultSpec.
type Spec struct {
	Name string

	// Cell selects the density — SLC (default), MLC or TLC — and with it
	// the per-cell program semantics. Use DensitySpec to also derate
	// timing, energy and endurance for the chosen density.
	Cell CellMode

	// Geometry.
	PageSize int // bytes per page (erase granularity)
	NumPages int

	// Banks is the number of independently lockable banks; pages are
	// interleaved across banks round-robin (page p → bank p % Banks).
	// Zero selects DefaultBanks; the device clamps Banks to NumPages.
	Banks int

	// Latency per operation (Table I of the paper).
	ReadLatency    time.Duration // one byte
	ProgramLatency time.Duration // one byte
	EraseLatency   time.Duration // one page

	// Energy per operation.
	ReadEnergy    energy.Energy // one byte
	ProgramEnergy energy.Energy // one byte
	EraseEnergy   energy.Energy // one page

	// In-storage compute: a multi-wordline bitwise sense (SenseMulti) reads
	// the AND/OR of several pages in one array operation, so its cost is
	// charged once per simultaneous sense — not once per participating page.
	// The defaults model Flash-Cosmos-style sensing: about twice a plain
	// read per byte (stronger precharge, tighter sense margin), bounded to
	// MaxSensePages wordlines activated together. Zero values select the
	// defaults in NewDevice; negative values are rejected by Validate.
	SenseLatency  time.Duration // one simultaneous sense, per byte of the page
	SenseEnergy   energy.Energy // one simultaneous sense, per byte of the page
	MaxSensePages int           // max pages sensed simultaneously (0 → DefaultMaxSensePages)

	// Endurance: program/erase cycles a page survives before wearing out
	// (typically 10,000–1,000,000; §II-B).
	EnduranceCycles uint32
}

// DefaultSpec returns the commercially-available embedded NOR part the paper
// evaluates against [75]: 256-byte pages with page-granularity erase.
//
// Latencies are Table I verbatim: read 30.3 ns, program 30 µs, erase
// 10.2 ms (ratios 340× program:erase). Energies are anchored on the two
// figures the paper states: a page erase costs 196 µJ (§II) and a program is
// 360× cheaper than an erase, i.e. ≈544 nJ/byte (consistent with §V-D, which
// puts programming a single byte at ≈574 nJ). Reads are five orders of
// magnitude cheaper than writes (§I), giving ≈5.4 pJ/byte.
func DefaultSpec() Spec {
	const eraseEnergy = 196 * energy.Microjoule
	return Spec{
		Name:            "embedded-nor-256B",
		PageSize:        256,
		NumPages:        4096, // 1 MiB array, matching the approx region of Listing 2
		Banks:           DefaultBanks,
		ReadLatency:     30*time.Nanosecond + 300*time.Nanosecond/1000,
		ProgramLatency:  30 * time.Microsecond,
		EraseLatency:    10200 * time.Microsecond,
		ReadEnergy:      eraseEnergy / 360 / 1e5,
		ProgramEnergy:   eraseEnergy / 360,
		EraseEnergy:     eraseEnergy,
		SenseLatency:    2 * (30*time.Nanosecond + 300*time.Nanosecond/1000),
		SenseEnergy:     2 * eraseEnergy / 360 / 1e5,
		MaxSensePages:   DefaultMaxSensePages,
		EnduranceCycles: 100_000,
	}
}

// Validate reports whether the spec is internally consistent. It is called
// by NewDevice, so a malformed spec fails up front with a description of the
// problem instead of deep inside the bank split.
func (s Spec) Validate() error {
	switch {
	case !s.Cell.Valid():
		return fmt.Errorf("flash: unknown cell mode %v", s.Cell)
	case s.PageSize <= 0:
		return fmt.Errorf("flash: page size must be positive, got %d", s.PageSize)
	case s.NumPages <= 0:
		return fmt.Errorf("flash: page count must be positive, got %d", s.NumPages)
	case s.Banks < 0:
		return fmt.Errorf("flash: bank count must not be negative, got %d", s.Banks)
	case s.ReadLatency <= 0 || s.ProgramLatency <= 0 || s.EraseLatency <= 0:
		return fmt.Errorf("flash: operation latencies must be positive")
	case s.ReadEnergy <= 0 || s.ProgramEnergy <= 0 || s.EraseEnergy <= 0:
		return fmt.Errorf("flash: operation energies must be positive")
	case s.SenseLatency < 0 || s.SenseEnergy < 0:
		return fmt.Errorf("flash: sense latency and energy must not be negative")
	case s.MaxSensePages < 0:
		return fmt.Errorf("flash: MaxSensePages must not be negative, got %d", s.MaxSensePages)
	case s.EnduranceCycles == 0:
		return fmt.Errorf("flash: endurance must be positive")
	}
	// Pages interleave across banks round-robin; an uneven split would give
	// some banks one page more than others, skewing every per-bank layout
	// computation (bitmap strides, campaign page draws) silently.
	if nb := s.effectiveBanks(); s.NumPages%nb != 0 {
		return fmt.Errorf("flash: page count %d is not divisible by bank count %d", s.NumPages, nb)
	}
	return nil
}

// effectiveBanks returns the bank count the device will actually operate:
// zero selects DefaultBanks and the result is clamped to the page count,
// mirroring the normalisation NewDevice applies.
func (s Spec) effectiveBanks() int {
	b := s.Banks
	if b == 0 {
		b = DefaultBanks
	}
	if b > s.NumPages {
		b = s.NumPages
	}
	return b
}

// Size returns the total capacity in bytes.
func (s Spec) Size() int { return s.PageSize * s.NumPages }

// ReadPower, ProgramPower and ErasePower return the average power drawn
// while the respective operation is in flight. These are the bars of Fig. 1.
func (s Spec) ReadPower() energy.Power {
	return energy.PowerOver(s.ReadEnergy, s.ReadLatency)
}

// ProgramPower returns the average power of a byte program.
func (s Spec) ProgramPower() energy.Power {
	return energy.PowerOver(s.ProgramEnergy, s.ProgramLatency)
}

// ErasePower returns the average power of a page erase.
func (s Spec) ErasePower() energy.Power {
	return energy.PowerOver(s.EraseEnergy, s.EraseLatency)
}
