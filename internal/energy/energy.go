// Package energy provides the units and device power models used to account
// for the energy consumed by flash operations and the MCU (paper §II, §IV).
package energy

import (
	"fmt"
	"time"
)

// Energy is an amount of energy in joules.
type Energy float64

// Convenient magnitudes for expressing datasheet quantities.
const (
	Picojoule  Energy = 1e-12
	Nanojoule  Energy = 1e-9
	Microjoule Energy = 1e-6
	Millijoule Energy = 1e-3
	Joule      Energy = 1
)

// String renders the energy with an SI prefix chosen for readability.
func (e Energy) String() string {
	abs := e
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs == 0:
		return "0 J"
	case abs >= Millijoule:
		return fmt.Sprintf("%.3g mJ", float64(e/Millijoule))
	case abs >= Microjoule:
		return fmt.Sprintf("%.3g µJ", float64(e/Microjoule))
	case abs >= Nanojoule:
		return fmt.Sprintf("%.3g nJ", float64(e/Nanojoule))
	default:
		return fmt.Sprintf("%.3g pJ", float64(e/Picojoule))
	}
}

// Power is dissipation in watts.
type Power float64

// Convenient magnitudes for power.
const (
	Microwatt Power = 1e-6
	Milliwatt Power = 1e-3
	Watt      Power = 1
)

// String renders the power with an SI prefix chosen for readability.
func (p Power) String() string {
	abs := p
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs == 0:
		return "0 W"
	case abs >= Milliwatt:
		return fmt.Sprintf("%.3g mW", float64(p/Milliwatt))
	case abs >= Microwatt:
		return fmt.Sprintf("%.3g µW", float64(p/Microwatt))
	default:
		return fmt.Sprintf("%.3g nW", float64(p*1e9))
	}
}

// PowerOver returns the average power of spending e over duration d.
func PowerOver(e Energy, d time.Duration) Power {
	if d <= 0 {
		return 0
	}
	return Power(float64(e) / d.Seconds())
}

// CPUModel describes an embedded MCU's dynamic power, used both for Fig. 1
// (flash-vs-CPU power comparison) and to charge CPU energy during workloads.
type CPUModel struct {
	Name  string
	Power Power // active power at Clock
	Clock float64
}

// CortexM0Plus is the ARM Cortex-M0+ reference point used throughout the
// paper: 2.275 mW running at 48 MHz in 180 nm technology (§II, [5]).
func CortexM0Plus() CPUModel {
	return CPUModel{Name: "ARM Cortex-M0+", Power: 2.275 * Milliwatt, Clock: 48e6}
}

// EnergyPerCycle returns the energy of one active clock cycle.
func (m CPUModel) EnergyPerCycle() Energy {
	return Energy(float64(m.Power) / m.Clock)
}

// EnergyFor returns the energy of n active cycles.
func (m CPUModel) EnergyFor(cycles uint64) Energy {
	return Energy(float64(cycles)) * m.EnergyPerCycle()
}
