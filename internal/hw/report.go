package hw

import (
	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/gates"
)

// FlashClockMHz is the clock the flash logic runs at; the paper constrains
// the synthesized design to 33 MHz to match the part's interface [75].
const FlashClockMHz = 33

// SoCAreaUm2 is the area of an ARM Cortex-M0+ SoC in the same 65 nm
// technology [64]; the paper's configurable unit is 0.104% of it, putting
// the SoC at ≈3.77 mm².
const SoCAreaUm2 = 3.77e6

// OverheadRow is one line of Table IV: the cost of the full FlipBit
// hardware (32-slice approximation unit plus error tracking) for one
// configuration.
type OverheadRow struct {
	Config    string // "1–8 (configurable)" or "2"
	Gates     int
	AreaUm2   float64
	SoCShare  float64      // fraction of the M0+ SoC area
	Power     energy.Power // at FlashClockMHz
	DepthGate int          // longest combinational path, in gates
}

// GateDelayNs is a representative 65 nm LP gate delay including local
// wiring (FO4-ish). The critical path bounds the clock: Fmax ≈
// 1/(depth × delay). The paper synthesizes up to 1 GHz but runs the logic
// at the flash's 33 MHz, where our depth leaves enormous slack.
const GateDelayNs = 0.035

// FmaxMHz estimates the maximum clock frequency from the critical path.
func (r OverheadRow) FmaxMHz() float64 {
	if r.DepthGate == 0 {
		return 0
	}
	return 1e3 / (float64(r.DepthGate) * GateDelayNs)
}

// TableIV synthesizes the designs the paper reports — the run-time
// configurable n = 1..8 unit and the hardcoded n = 2 unit — plus a
// two-level (PLA) n = 2 variant for comparison, each paired with a 32-bit
// error-tracking datapath.
func TableIV() ([3]OverheadRow, error) {
	tech := gates.Tech65nm()

	cfgUnit, err := NewConfigurableUnit(32)
	if err != nil {
		return [3]OverheadRow{}, err
	}
	fixedUnit, err := NewUnit(32, 2)
	if err != nil {
		return [3]OverheadRow{}, err
	}
	plaUnit, err := NewPLAUnit(32, 2)
	if err != nil {
		return [3]OverheadRow{}, err
	}
	tracker, err := NewTracker(32, 40)
	if err != nil {
		return [3]OverheadRow{}, err
	}

	trackRep := gates.Synthesize(tracker.Circuit, tech, FlashClockMHz)
	row := func(name string, u *Unit) OverheadRow {
		rep := gates.Synthesize(u.Circuit, tech, FlashClockMHz)
		area := rep.AreaUm2 + trackRep.AreaUm2
		return OverheadRow{
			Config:    name,
			Gates:     rep.Gates + trackRep.Gates,
			AreaUm2:   area,
			SoCShare:  area / SoCAreaUm2,
			Power:     rep.Power + trackRep.Power,
			DepthGate: max(rep.DepthGat, trackRep.DepthGat),
		}
	}
	return [3]OverheadRow{
		row("1–8 (configurable)", cfgUnit),
		row("2", fixedUnit),
		row("2 (two-level PLA)", plaUnit),
	}, nil
}
