package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

func scrubSpec() flash.Spec {
	s := flash.DefaultSpec()
	s.PageSize = 32
	s.NumPages = 8
	s.Banks = 2
	return s
}

// wearOut erases page p until it is past endurance.
func wearOut(t *testing.T, d *Device, p int) {
	t.Helper()
	fl := d.Flash()
	for !fl.WornOut(p) {
		if err := fl.ErasePage(p); err != nil && !errors.Is(err, flash.ErrWornOut) {
			t.Fatal(err)
		}
	}
}

func TestHealthGateRefusesExactOnDegraded(t *testing.T) {
	s := scrubSpec()
	s.EnduranceCycles = 3
	d := MustNewDevice(s, WithHealthGate())
	const p = 0
	wearOut(t, d, p)

	// Exact data (no approx region configured) must be refused.
	err := d.Write(d.fl.PageBase(p), []byte{1, 2, 3, 4})
	if !errors.Is(err, ErrExactDegraded) {
		t.Fatalf("exact write on degraded page: got %v, want ErrExactDegraded", err)
	}
	if got := d.Stats().ExactRefused; got != 1 {
		t.Errorf("ExactRefused = %d, want 1", got)
	}

	// Without the gate the legacy best-effort behaviour is preserved.
	d2 := MustNewDevice(s)
	wearOut(t, d2, p)
	if err := d2.Write(d2.fl.PageBase(p), []byte{1, 2, 3, 4}); errors.Is(err, ErrExactDegraded) {
		t.Fatalf("ungated device returned ErrExactDegraded: %v", err)
	}
}

func TestHealthGateRoutesApproxOntoDegraded(t *testing.T) {
	s := scrubSpec()
	s.EnduranceCycles = 3
	d := MustNewDevice(s, WithHealthGate())
	if err := d.SetApproxRegion(0, s.PageSize*s.NumPages); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(70000) // saturates to unlimited: gate never trips
	const p = 2
	wearOut(t, d, p)

	if err := d.Write(d.fl.PageBase(p), []byte{0x10, 0x20, 0x30, 0x40}); err != nil {
		t.Fatalf("approx write on degraded page: %v", err)
	}
	if got := d.Stats().PagesDegraded; got != 1 {
		t.Errorf("PagesDegraded = %d, want 1", got)
	}
}

// stuckBits returns how many cells of page p have drifted to 0 since the
// last erase.
func stuckBits(t *testing.T, fl *flash.Device, p int) int {
	t.Helper()
	n, err := fl.StuckMaskInto(p, make([]byte, fl.Spec().PageSize))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// checkCensus fails the test unless every sampled page landed in exactly
// one census class.
func checkCensus(t *testing.T, st ScrubStats) {
	t.Helper()
	if sum := st.Clean + st.Absorbed + st.RetentionAbsorbed + st.Unabsorbed; sum != st.Sampled {
		t.Errorf("census does not balance: %+v (classes sum to %d)", st, sum)
	}
}

// TestScrubCountsExactDriftUnabsorbed: read-disturb drift on an exact page
// is counted unabsorbed, and the scrubber leaves the page as it found it.
func TestScrubCountsExactDriftUnabsorbed(t *testing.T) {
	d := MustNewDevice(scrubSpec())
	const p = 1
	fl := d.Flash()
	ps := fl.Spec().PageSize
	want := make([]byte, ps)
	for i := range want {
		want[i] = byte(0xF0 | i&0x0F)
	}
	if err := d.Write(fl.PageBase(p), want); err != nil {
		t.Fatal(err)
	}

	// Disturb the page until some legitimate 1 actually flips (the fault
	// picks random cells, which may already be 0).
	buf := make([]byte, ps)
	for stuckBits(t, fl, p) == 0 {
		fl.ArmFault(flash.Fault{Kind: flash.FaultReadDisturb, Bits: 8})
		if err := fl.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.ReadPage(p, buf); err != nil {
		t.Fatal(err)
	}
	drifted := bytes.Clone(buf)

	before := fl.Stats()
	sc := NewScrubber(d, ScrubConfig{MaxStuck: 64})
	sc.scrubPage(p)
	if delta := fl.Stats().Sub(before); delta.Erases != 0 || delta.Programs != 0 {
		t.Errorf("census touched flash: %+v", delta)
	}
	if err := fl.ReadPage(p, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, drifted) {
		t.Fatalf("census changed the page:\n got %x\nwant %x", buf, drifted)
	}
	st := sc.Stats()
	if st.Unabsorbed != 1 || st.Sampled != 1 {
		t.Errorf("stats: %+v", st)
	}
	checkCensus(t, st)
}

// TestScrubAbsorbsApproxDrift: drift within budget on an approximatable
// page costs nothing — no erase, no program, data left in place.
func TestScrubAbsorbsApproxDrift(t *testing.T) {
	s := scrubSpec()
	d := MustNewDevice(s)
	if err := d.SetApproxRegion(0, s.PageSize*s.NumPages); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(70000)
	const p = 3
	fl := d.Flash()
	if err := d.Write(fl.PageBase(p), bytes.Repeat([]byte{0xFF}, s.PageSize)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.PageSize)
	for stuckBits(t, fl, p) == 0 {
		fl.ArmFault(flash.Fault{Kind: flash.FaultReadDisturb, Bits: 4})
		if err := fl.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
	}

	before := fl.Stats()
	sc := NewScrubber(d, ScrubConfig{MaxStuck: 64})
	sc.scrubPage(p)
	delta := fl.Stats().Sub(before)
	if delta.Erases != 0 || delta.Programs != 0 {
		t.Errorf("absorption touched flash: %+v", delta)
	}
	st := sc.Stats()
	if st.Absorbed != 1 {
		t.Errorf("stats: %+v", st)
	}
	checkCensus(t, st)
	if stuckBits(t, fl, p) == 0 {
		t.Error("drift mask was cleared by absorption")
	}
}

// TestScrubCountsWornPageUnabsorbed: a worn-out page is unabsorbed even on
// an approximatable device with budget to spare, and stays in service; once
// retired, it counts as clean.
func TestScrubCountsWornPageUnabsorbed(t *testing.T) {
	s := scrubSpec()
	s.EnduranceCycles = 2
	d := MustNewDevice(s)
	if err := d.SetApproxRegion(0, s.PageSize*s.NumPages); err != nil {
		t.Fatal(err)
	}
	const p = 4
	wearOut(t, d, p)

	sc := NewScrubber(d, ScrubConfig{MaxStuck: 64})
	sc.scrubPage(p)
	if d.Flash().Retired(p) {
		t.Fatal("census retired a worn page")
	}
	if st := sc.Stats(); st.Unabsorbed != 1 {
		t.Errorf("stats: %+v", st)
	}
	if err := d.Flash().Retire(p); err != nil {
		t.Fatal(err)
	}
	sc.scrubPage(p)
	st := sc.Stats()
	if st.Unabsorbed != 1 || st.Clean != 1 {
		t.Errorf("second-pass stats: %+v", st)
	}
	checkCensus(t, st)
}

// TestScrubberConcurrentWithWrites: ScrubBank, driven from one goroutine
// per bank, must coexist with a concurrent write load (exercised under
// -race in CI). Sampling holds the bank's commit lock, so a scrub never
// interleaves with a commit to the same bank.
func TestScrubberConcurrentWithWrites(t *testing.T) {
	s := scrubSpec()
	s.NumPages = 16
	s.Banks = 4
	d := MustNewDevice(s)
	if err := d.SetApproxRegion(0, s.PageSize*s.NumPages/2); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(4)
	sc := NewScrubber(d, ScrubConfig{MaxStuck: 8})

	done := make(chan struct{})
	var scrubbers sync.WaitGroup
	for b := 0; b < s.Banks; b++ {
		scrubbers.Add(1)
		go func(b int) {
			defer scrubbers.Done()
			for {
				sc.ScrubBank(b, 2)
				select {
				case <-done:
					return
				default:
				}
			}
		}(b)
	}

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			buf := make([]byte, 8)
			for i := 0; i < 200; i++ {
				for j := range buf {
					buf[j] = byte(w*31 + i + j)
				}
				addr := ((w*5 + i) % s.NumPages) * s.PageSize
				if err := d.Write(addr, buf); err != nil &&
					!errors.Is(err, flash.ErrWornOut) {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(done)
	scrubbers.Wait()
	st := sc.Stats()
	if st.Sampled == 0 {
		t.Error("scrubber never sampled a page")
	}
	checkCensus(t, st)
}
