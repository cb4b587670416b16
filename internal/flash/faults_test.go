package flash

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// drawN returns the first n faults mix draws from a generator seeded with
// seed: the stream SetFaultSchedule(seed, mix) arms.
func drawN(seed uint64, mix FaultMix, n int) []Fault {
	rng := xrand.New(seed)
	out := make([]Fault, n)
	for i := range out {
		out[i] = mix.Draw(rng)
	}
	return out
}

func TestFaultMixDrawDeterministic(t *testing.T) {
	mix := FaultMix{PowerLoss: 3, StuckBits: 2, ReadDisturb: 1, MinGap: 0, MaxGap: 40, MaxBits: 4}
	a := drawN(99, mix, 256)
	b := drawN(99, mix, 256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must diverge somewhere in the stream.
	c := drawN(100, mix, 256)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault streams")
	}
}

// TestFaultMixDrawCoverage: every weighted kind is drawn, gaps stay in
// range, and only stuck-bits faults draw a cell count — every other kind
// touches exactly one cell.
func TestFaultMixDrawCoverage(t *testing.T) {
	mix := FaultMix{PowerLoss: 1, StuckBits: 1, ReadDisturb: 1, MinGap: 5, MaxGap: 9, MaxBits: 3}
	counts := map[FaultKind]int{}
	wide := 0
	for _, f := range drawN(7, mix, 600) {
		counts[f.Kind]++
		if f.After < 5 || f.After > 9 {
			t.Fatalf("gap %d outside [5,9]", f.After)
		}
		switch {
		case f.Kind != FaultStuckBits && f.Bits != 1:
			t.Fatalf("%v fault drew %d bits, want 1", f.Kind, f.Bits)
		case f.Bits < 1 || f.Bits > 3:
			t.Fatalf("bits %d outside [1,3]", f.Bits)
		case f.Bits > 1:
			wide++
		}
	}
	for _, k := range []FaultKind{FaultPowerLoss, FaultStuckBits, FaultReadDisturb} {
		if counts[k] == 0 {
			t.Errorf("kind %v never drawn", k)
		}
	}
	if wide == 0 {
		t.Error("no stuck-bits fault drew more than one cell")
	}
}

func TestStuckBitsFault(t *testing.T) {
	d := MustNewDevice(smallSpec())
	d.ArmFault(Fault{Kind: FaultStuckBits, Bits: 6})
	// The erase reports success — the failure is silent.
	if err := d.ErasePage(0); err != nil {
		t.Fatalf("stuck-bits erase must not error: %v", err)
	}
	stuck := 0
	for i := 0; i < d.Spec().PageSize; i++ {
		if v := d.Peek(d.PageBase(0) + i); v != 0xFF {
			for bit := 0; bit < 8; bit++ {
				if v&(1<<uint(bit)) == 0 {
					stuck++
				}
			}
		}
	}
	if stuck == 0 || stuck > 6 {
		t.Errorf("want 1..6 stuck cells after fault, got %d", stuck)
	}
	if d.FaultsFired() != 1 {
		t.Errorf("FaultsFired = %d, want 1", d.FaultsFired())
	}
	// A clean erase clears the stuck cells (first wear-out events are
	// recoverable in NOR; permanence comes from the endurance model).
	if err := d.ErasePage(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Spec().PageSize; i++ {
		if d.Peek(d.PageBase(0)+i) != 0xFF {
			t.Fatalf("cell %d still stuck after clean erase", i)
		}
	}
}

func TestReadDisturbFault(t *testing.T) {
	d := MustNewDevice(smallSpec())
	ps := d.Spec().PageSize
	buf := make([]byte, ps)
	d.ArmFault(Fault{Kind: FaultReadDisturb, Bits: 3})
	// The read itself is served correctly…
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0xFF {
			t.Fatalf("read %d returned disturbed data %02x", i, v)
		}
	}
	// …but afterwards the page has drifted cells.
	flipped := 0
	for i := 0; i < ps; i++ {
		if d.Peek(d.PageBase(0)+i) != 0xFF {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("read-disturb fault left no trace")
	}
	// Programs and erases must not advance a read-disturb countdown.
	d.ClearFaults()
	d.ArmFault(Fault{Kind: FaultReadDisturb, After: 0})
	if err := d.ProgramByte(d.PageBase(1), 0x00); err != nil {
		t.Fatal(err)
	}
	if d.FaultsFired() != 1 {
		t.Fatalf("program advanced a read-disturb fault (fired %d)", d.FaultsFired())
	}
}

func TestFaultScheduleReArms(t *testing.T) {
	d := MustNewDevice(smallSpec())
	// Power loss every other state-changing op, forever.
	d.SetFaultSchedule(1, FaultMix{PowerLoss: 1, MinGap: 1, MaxGap: 1})
	losses := 0
	for i := 0; i < 40; i++ {
		err := d.ProgramByte(i%d.Spec().PageSize, 0x00)
		if errors.Is(err, ErrPowerLoss) {
			losses++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	// Gap 1 → every second eligible op is a victim; skipped programs
	// (already-0 bytes after a successful clear) do not count.
	if losses < 5 {
		t.Errorf("schedule stopped re-arming: only %d losses in 40 ops", losses)
	}
	if got := d.FaultsFired(); got != uint64(losses) {
		t.Errorf("FaultsFired = %d, want %d", got, losses)
	}
	d.ClearFaults()
	if err := d.ErasePage(0); err != nil {
		t.Fatalf("ClearFaults left a schedule behind: %v", err)
	}
}

// TestClearFaultsDisarmsAllScopes: ClearFaults drops both kinds of state
// that can fail a later op — the pending fault and the transient residue
// of an incident still draining.
func TestClearFaultsDisarmsAllScopes(t *testing.T) {
	d := MustNewDevice(smallSpec())
	d.ArmFault(Fault{Kind: FaultTransientProgram, Retries: 3})
	if err := d.ProgramByte(0, 0x0F); !errors.Is(err, ErrTransient) {
		t.Fatalf("transient fault did not fire: %v", err)
	}
	d.ArmFault(Fault{Kind: FaultPowerLoss})
	d.ClearFaults()
	if err := d.ProgramByte(0, 0x0F); err != nil {
		t.Fatalf("residue survived ClearFaults: %v", err)
	}
	for p := 0; p < d.Spec().NumPages; p++ {
		if err := d.ErasePage(p); err != nil {
			t.Fatalf("fault survived ClearFaults: %v", err)
		}
	}
	if d.FaultsFired() != 1 {
		t.Errorf("FaultsFired = %d, want 1 (the transient incident)", d.FaultsFired())
	}
}

// TestFaultedDeviceDeterministic: the full device under a fault schedule is a
// pure function of (spec, device seed, schedule seed) — the replay guarantee
// the campaign engine builds on.
func TestFaultedDeviceDeterministic(t *testing.T) {
	run := func() ([]byte, Stats) {
		spec := smallSpec()
		d := MustNewDevice(spec)
		d.SetFaultSchedule(5, FaultMix{
			PowerLoss: 2, StuckBits: 1, ReadDisturb: 1, MinGap: 0, MaxGap: 6, MaxBits: 3,
		})
		buf := make([]byte, spec.PageSize)
		for r := 0; r < 300; r++ {
			p := r % spec.NumPages
			switch r % 3 {
			case 0:
				_ = d.ErasePage(p)
			case 1:
				_ = d.ProgramByte(d.PageBase(p)+(r%spec.PageSize), byte(r))
			case 2:
				_ = d.ReadPage(p, buf)
			}
		}
		img := make([]byte, spec.Size())
		for a := range img {
			img[a] = d.Peek(a)
		}
		return img, d.Stats()
	}
	img1, st1 := run()
	img2, st2 := run()
	if st1 != st2 {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", st1, st2)
	}
	for a := range img1 {
		if img1[a] != img2[a] {
			t.Fatalf("array differs at %#x: %02x vs %02x", a, img1[a], img2[a])
		}
	}
}

// refMatch is the per-op rule of a fault scope, written out one op at a
// time: transient residue fails the op first, otherwise the armed fault's
// countdown observes the op and fires when it reaches zero.
func refMatch(fs *faultScope, op OpKind) (Fault, bool) {
	if fs.residLeft > 0 && fs.residKind.appliesTo(op) {
		fs.residLeft--
		return Fault{Kind: fs.residKind}, true
	}
	if !fs.armed || !fs.cur.Kind.appliesTo(op) {
		return Fault{}, false
	}
	if fs.cur.After > 0 {
		fs.cur.After--
		return Fault{}, false
	}
	f := fs.cur
	fs.armed = false
	fs.fired++
	if f.Kind.transient() && f.retries() > 1 {
		fs.residKind, fs.residLeft = f.Kind, f.retries()-1
	}
	fs.arm(fs.mix.Draw(fs.rng))
	return f, true
}

// TestFaultForSpanMatchesPerOpRule pins faultFor's one-step span walk to
// the per-op rule: the victim index, the fault and the scope's state —
// its schedule generator included — must match an op-by-op walk of a twin
// scope, for every op kind and span lengths from 0 to 40.
func TestFaultForSpanMatchesPerOpRule(t *testing.T) {
	mix := FaultMix{PowerLoss: 2, StuckBits: 1, ReadDisturb: 1, TransientProgram: 2, TransientErase: 1,
		Retention: 1, MaxGap: 12, MaxBits: 3, MaxRetries: 3}
	d := MustNewDevice(smallSpec())
	d.SetFaultSchedule(3, mix)
	var ref faultScope
	ref.setSchedule(xrand.New(3), mix)
	rng := xrand.New(0xFA17)
	ops := []OpKind{OpRead, OpProgram, OpErase, OpSense}
	fired := 0
	for step := 0; step < 4000; step++ {
		op, n := ops[rng.Intn(len(ops))], rng.Intn(41)
		want, wantF := n, Fault{}
		for i := 0; i < n; i++ {
			if f, ok := refMatch(&ref, op); ok {
				want, wantF = i, f
				break
			}
		}
		got, gotF := d.faultFor(op, n)
		if got != want || gotF != wantF {
			t.Fatalf("step %d (%v × %d): faultFor = (%d, %+v), per-op walk = (%d, %+v)", step, op, n, got, gotF, want, wantF)
		}
		g, w := d.faults, ref
		if *g.rng != *w.rng {
			t.Fatalf("step %d (%v × %d): schedule generator diverged from the per-op walk", step, op, n)
		}
		g.rng, w.rng = nil, nil
		if g != w {
			t.Fatalf("step %d (%v × %d): scope %+v, per-op walk %+v", step, op, n, g, w)
		}
		if want < n {
			fired++
		}
	}
	if fired < 100 {
		t.Fatalf("only %d spans fired a fault", fired)
	}
}
