package energy

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestEnergyString(t *testing.T) {
	cases := []struct {
		e    Energy
		want string
	}{
		{0, "0 J"},
		{196 * Microjoule, "196 µJ"},
		{544 * Nanojoule, "544 nJ"},
		{5.4 * Picojoule, "5.4 pJ"},
		{23.2 * Millijoule, "23.2 mJ"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("(%v J).String() = %q, want %q", float64(c.e), got, c.want)
		}
	}
}

func TestPowerString(t *testing.T) {
	if got := (2.275 * Milliwatt).String(); got != "2.27 mW" && got != "2.28 mW" {
		t.Errorf("power string = %q", got)
	}
	if !strings.HasSuffix((180 * Microwatt).String(), "µW") {
		t.Errorf("µW suffix missing: %q", (180 * Microwatt).String())
	}
}

func TestPowerOver(t *testing.T) {
	// 1 µJ over 1 ms = 1 mW.
	got := PowerOver(Microjoule, time.Millisecond)
	if math.Abs(float64(got-Milliwatt)) > 1e-15 {
		t.Errorf("1µJ over 1ms = %v, want 1 mW", got)
	}
}

func TestPowerOverInverse(t *testing.T) {
	e := 42 * Microjoule
	d := 7 * time.Millisecond
	p := PowerOver(e, d)
	if back := Energy(float64(p) * d.Seconds()); math.Abs(float64(back-e)) > 1e-15 {
		t.Errorf("round trip %v != %v", back, e)
	}
	if PowerOver(e, 0) != 0 {
		t.Error("PowerOver with zero duration should be 0")
	}
}

func TestCortexM0Plus(t *testing.T) {
	m := CortexM0Plus()
	if m.Power != 2.275*Milliwatt || m.Clock != 48e6 {
		t.Fatalf("unexpected M0+ model: %+v", m)
	}
	// Paper §II: during a 10.2 ms page erase the MCU consumes 23.2 µJ
	// (489,600 cycles at 48 MHz).
	e := m.EnergyFor(489600)
	if math.Abs(float64(e-23.205*Microjoule)) > float64(0.1*Microjoule) {
		t.Errorf("M0+ energy over erase = %v, paper says 23.2 µJ", e)
	}
}

func TestEnergyPerCycle(t *testing.T) {
	m := CortexM0Plus()
	perCycle := m.EnergyPerCycle()
	// 2.275 mW / 48 MHz ≈ 47.4 pJ per cycle.
	if math.Abs(float64(perCycle-47.4*Picojoule)) > float64(0.1*Picojoule) {
		t.Errorf("energy/cycle = %v, want ≈47.4 pJ", perCycle)
	}
	if m.EnergyFor(1000) != perCycle*1000 {
		t.Error("EnergyFor(1000) != 1000 × per-cycle")
	}
}
