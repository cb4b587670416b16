package flash

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestFaultKindStringExhaustive: every declared kind has a real name —
// adding a kind without teaching String() fails here, not in a log line.
func TestFaultKindStringExhaustive(t *testing.T) {
	seen := map[string]FaultKind{}
	for k := FaultKind(1); k < faultKindCount; k++ {
		s := k.String()
		if s == "none" {
			t.Errorf("kind %d has no String case", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
	if FaultNone.String() != "none" {
		t.Errorf("FaultNone.String() = %q, want none", FaultNone.String())
	}
}

// TestFaultMixDrawFrequencies: over many draws each kind's share converges
// on its weight — a prefix-sum bug in the cascade would skew one bucket.
func TestFaultMixDrawFrequencies(t *testing.T) {
	mix := FaultMix{
		PowerLoss: 5, StuckBits: 1, ReadDisturb: 2,
		TransientProgram: 3, TransientErase: 2, Retention: 3,
		MinGap: 0, MaxGap: 10, MaxBits: 2, MaxRetries: 3,
	}
	const draws = 20000
	counts := map[FaultKind]int{}
	for _, f := range drawN(11, mix, draws) {
		counts[f.Kind]++
		if f.Kind.transient() {
			if f.Retries < 1 || f.Retries > 3 {
				t.Fatalf("transient retries %d outside [1,3]", f.Retries)
			}
		} else if f.Retries != 0 {
			t.Fatalf("%v fault drew a retry budget", f.Kind)
		}
	}
	total := float64(mix.PowerLoss + mix.StuckBits + mix.ReadDisturb +
		mix.TransientProgram + mix.TransientErase + mix.Retention)
	want := map[FaultKind]int{
		FaultPowerLoss: mix.PowerLoss, FaultStuckBits: mix.StuckBits,
		FaultReadDisturb: mix.ReadDisturb, FaultTransientProgram: mix.TransientProgram,
		FaultTransientErase: mix.TransientErase, FaultRetention: mix.Retention,
	}
	for k, w := range want {
		got := float64(counts[k]) / draws
		exp := float64(w) / total
		if math.Abs(got-exp) > 0.02 {
			t.Errorf("%v drawn %.3f of the time, want %.3f ± 0.02", k, got, exp)
		}
	}
}

// TestFaultMixValidateRejectsNegatives: a negative weight or bound is a
// construction error, caught before any schedule exists.
func TestFaultMixValidateRejectsNegatives(t *testing.T) {
	good := FaultMix{PowerLoss: 1, MaxGap: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
	bad := []FaultMix{
		{PowerLoss: -1, StuckBits: 2, MaxGap: 10},
		{StuckBits: -3, MaxGap: 10},
		{ReadDisturb: -1, PowerLoss: 1, MaxGap: 10},
		{TransientProgram: -2, PowerLoss: 1, MaxGap: 10},
		{TransientErase: -1, PowerLoss: 1, MaxGap: 10},
		{Retention: -4, PowerLoss: 1, MaxGap: 10},
		{PowerLoss: 1, MinGap: -1, MaxGap: 10},
		{PowerLoss: 1, MinGap: 5, MaxGap: 4},
		{PowerLoss: 1, MaxGap: 10, MaxBits: -1},
		{PowerLoss: 1, MaxGap: 10, MaxRetries: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad mix %d validated: %+v", i, m)
		}
	}
}

// TestSetFaultSchedulePanicsOnInvalidMix: the device refuses to arm a
// schedule from weights Validate rejects.
func TestSetFaultSchedulePanicsOnInvalidMix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetFaultSchedule accepted a negative weight")
		}
	}()
	MustNewDevice(smallSpec()).SetFaultSchedule(1, FaultMix{PowerLoss: -1, StuckBits: 1, MaxGap: 10})
}

// TestTransientProgramResidue: a transient incident with Retries = n fails
// n consecutive issues of the op — full cost drawn each time, state still
// reachable — then the next issue succeeds. Only the first failure counts
// as a fired fault.
func TestTransientProgramResidue(t *testing.T) {
	d := MustNewDevice(smallSpec())
	d.ArmFault(Fault{Kind: FaultTransientProgram, Retries: 3})
	addr := d.PageBase(0)
	for i := 0; i < 3; i++ {
		err := d.ProgramByte(addr, 0x00)
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("issue %d: err = %v, want ErrTransient", i, err)
		}
	}
	if err := d.ProgramByte(addr, 0x00); err != nil {
		t.Fatalf("issue after incident drained: %v", err)
	}
	if d.Peek(addr) != 0x00 {
		t.Errorf("byte = %02x after successful re-issue, want 00", d.Peek(addr))
	}
	if n := d.FaultsFired(); n != 1 {
		t.Errorf("FaultsFired = %d, want 1 (residue failures are the same incident)", n)
	}
	if st := d.Stats(); st.ProgramFails != 3 {
		t.Errorf("ProgramFails = %d, want 3", st.ProgramFails)
	}
}

// TestTransientEraseLeavesTornState: a failed erase wears the page and may
// leave a mixture, but a re-issued erase completes it.
func TestTransientEraseLeavesTornState(t *testing.T) {
	d := MustNewDevice(smallSpec())
	ps := d.Spec().PageSize
	if err := d.EraseProgramPage(0, bytes.Repeat([]byte{0x00}, ps)); err != nil {
		t.Fatal(err)
	}
	wear := d.Wear(0)
	d.ArmFault(Fault{Kind: FaultTransientErase})
	if err := d.ErasePage(0); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if d.Wear(0) != wear+1 {
		t.Errorf("failed erase must still wear the page: %d -> %d", wear, d.Wear(0))
	}
	if err := d.ErasePage(0); err != nil {
		t.Fatalf("re-issued erase: %v", err)
	}
	for i := 0; i < ps; i++ {
		if d.Peek(d.PageBase(0)+i) != 0xFF {
			t.Fatalf("byte %d not erased after re-issue", i)
		}
	}
	if st := d.Stats(); st.EraseFails != 1 {
		t.Errorf("EraseFails = %d, want 1", st.EraseFails)
	}
}

// TestRetentionFlickerAndRefresh: a marginal cell flickers only on host
// reads — the controller's margin-aware ReadPage always serves the stored
// value — and rewriting the page (erase + program) refreshes it.
func TestRetentionFlickerAndRefresh(t *testing.T) {
	d := MustNewDevice(smallSpec())
	ps := d.Spec().PageSize
	if err := d.EraseProgramPage(0, bytes.Repeat([]byte{0x00}, ps)); err != nil {
		t.Fatal(err)
	}
	d.ArmFault(Fault{Kind: FaultRetention})
	buf := make([]byte, ps)
	if err := d.ReadPage(0, buf); err != nil { // read fires the fault
		t.Fatal(err)
	}
	if n := d.RiseBits(0); n != 1 {
		t.Fatalf("RiseBits = %d after retention fault, want 1", n)
	}

	// ReadPage is a margin-aware sense: never any flicker.
	for i := 0; i < 50; i++ {
		if err := d.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		for j, v := range buf {
			if v != 0x00 {
				t.Fatalf("margin sense %d flickered at byte %d (%02x)", i, j, v)
			}
		}
	}

	// Host reads flicker the marginal bit to 1 about half the time.
	flickers := 0
	for i := 0; i < 200; i++ {
		if err := d.Read(d.PageBase(0), buf); err != nil {
			t.Fatal(err)
		}
		for _, v := range buf {
			if v != 0x00 {
				flickers++
			}
		}
	}
	if flickers == 0 || flickers == 200 {
		t.Errorf("marginal cell flickered %d/200 host reads, want strictly between", flickers)
	}

	// Rewriting the page refreshes it: no more flicker.
	if err := d.EraseProgramPage(0, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if d.RiseBits(0) != 0 {
		t.Error("rise mask survived a refresh")
	}
	for i := 0; i < 50; i++ {
		if err := d.Read(d.PageBase(0), buf); err != nil {
			t.Fatal(err)
		}
		for j, v := range buf {
			if v != 0x00 {
				t.Fatalf("refreshed cell still flickers at byte %d (%02x)", j, v)
			}
		}
	}
}

// TestRetentionClearedByProgramAndErase: a program pulse of the marginal
// byte recharges it, and an erase forgets the whole mask.
func TestRetentionClearedByProgramAndErase(t *testing.T) {
	d := MustNewDevice(smallSpec())
	ps := d.Spec().PageSize
	if err := d.EraseProgramPage(0, bytes.Repeat([]byte{0xF0}, ps)); err != nil {
		t.Fatal(err)
	}
	if n := d.AgeRetention(64); n == 0 {
		t.Fatal("aging never marked a cell")
	}
	var marked int
	for i, b := range d.rise[0] {
		if b != 0 {
			marked = i
			break
		}
	}
	// Programming the marginal byte (even to the same value's subset)
	// recharges it.
	if err := d.ProgramByte(d.PageBase(0)+marked, 0x00); err != nil {
		t.Fatal(err)
	}
	if d.RiseBits(0) != 0 {
		t.Error("program pulse did not absorb the marginal cell")
	}
	if n := d.AgeRetention(64); n == 0 {
		t.Fatal("re-aging never marked a cell")
	}
	if err := d.ErasePage(0); err != nil {
		t.Fatal(err)
	}
	if d.RiseBits(0) != 0 {
		t.Error("erase did not clear the rise mask")
	}
}

// TestAgeRetentionCapsOnePerPage: retention density is bounded at one
// marginal cell per page, however much aging is applied.
func TestAgeRetentionCapsOnePerPage(t *testing.T) {
	d := MustNewDevice(smallSpec())
	ps := d.Spec().PageSize
	for p := 0; p < d.Spec().NumPages; p++ {
		if err := d.EraseProgramPage(p, bytes.Repeat([]byte{0x00}, ps)); err != nil {
			t.Fatal(err)
		}
	}
	d.AgeRetention(10 * d.Spec().NumPages)
	for p := 0; p < d.Spec().NumPages; p++ {
		if n := d.RiseBits(p); n > 1 {
			t.Errorf("page %d carries %d marginal cells, cap is 1", p, n)
		}
	}
}

// TestRetentionSkipsDriftedCells: a stuck-at-0 cell is dead, not marginal —
// aging must never make a drift-mask cell flicker (it would defeat the
// landing-zone prechecks above).
func TestRetentionSkipsDriftedCells(t *testing.T) {
	d := MustNewDevice(smallSpec())
	d.ArmFault(Fault{Kind: FaultStuckBits, Bits: 8})
	if err := d.ErasePage(0); err != nil {
		t.Fatal(err)
	}
	drift := driftMask(d, 0)
	if popcount(drift) == 0 {
		t.Fatal("no stuck cells to test against")
	}
	d.AgeRetention(64 * d.Spec().NumPages)
	for i, r := range d.rise[0] {
		if r&drift[i] != 0 {
			t.Fatalf("byte %d: stuck cell %02x marked marginal %02x", i, drift[i], r)
		}
	}
}

// TestChargeWait: a retry backoff charges busy time to the bank's ledger
// without touching the array or drawing op energy.
func TestChargeWait(t *testing.T) {
	d := MustNewDevice(smallSpec())
	before := d.Stats()
	d.ChargeWait(0, 250)
	st := d.Stats()
	if st.Waits != before.Waits+1 {
		t.Errorf("Waits = %d, want %d", st.Waits, before.Waits+1)
	}
	if st.Busy != before.Busy+250 {
		t.Errorf("Busy grew %v, want 250ns", st.Busy-before.Busy)
	}
	if st.Energy != before.Energy {
		t.Errorf("wait drew op energy: %v -> %v", before.Energy, st.Energy)
	}
}
