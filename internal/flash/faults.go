package flash

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Fault scheduling. The one-shot power-loss hook of early versions grew into
// a general mechanism: the device can be armed with a fault — power loss
// tearing a program or erase partway, marginal cells left stuck at 0 by an
// erase, read-disturb bit flips — and a seeded schedule can keep re-arming
// faults forever. Everything is driven by xrand seeds, so a failing fault
// campaign replays byte-identically from its seed alone.
//
// Scope: the device has one fault scope, and its countdown observes
// matching operations across all banks. The campaigns drive it from one
// goroutine, so firing is deterministic there; under concurrent traffic
// *which* racing operation trips a fault is scheduling-dependent, like a
// real brown-out.

// FaultKind selects the failure mode of an injected fault.
type FaultKind uint8

// Supported fault kinds.
const (
	// FaultNone is the zero value; arming it is a no-op.
	FaultNone FaultKind = iota
	// FaultPowerLoss interrupts the victim program or erase partway; the
	// operation reports ErrPowerLoss and leaves torn state behind.
	FaultPowerLoss
	// FaultStuckBits lets the victim erase complete but leaves Bits cells
	// stuck at 0 — the marginal-cell failure of §II-B, silent until a
	// read-back verify catches it.
	FaultStuckBits
	// FaultReadDisturb serves the victim read correctly but then clears
	// Bits cells in the page read — charge drift from repeated reads.
	FaultReadDisturb
	// FaultTransientProgram fails the victim program with ErrTransient:
	// the pulse ran (full energy and latency drawn) but verify found bits
	// short of their target level. State stays reachable, so re-issuing
	// the program can complete it; with Retries > 1 the same incident
	// keeps failing re-issues until the budget drains.
	FaultTransientProgram
	// FaultTransientErase fails the victim erase with ErrTransient: the
	// pulse stressed the oxide (wear still increments) but left a mixture
	// of erased and stale bytes. A re-issued erase can succeed; Retries
	// budgets the incident like FaultTransientProgram.
	FaultTransientErase
	// FaultRetention serves the victim read correctly but then marks a
	// programmed cell in the page read as marginal: its charge has leaked
	// to the read-threshold boundary, so later host reads of that cell
	// flicker between 0 and 1 until it is re-programmed (retention.go).
	FaultRetention

	// faultKindCount sizes exhaustiveness checks; keep it last.
	faultKindCount
)

func (k FaultKind) String() string {
	switch k {
	case FaultPowerLoss:
		return "power-loss"
	case FaultStuckBits:
		return "stuck-bits"
	case FaultReadDisturb:
		return "read-disturb"
	case FaultTransientProgram:
		return "transient-program"
	case FaultTransientErase:
		return "transient-erase"
	case FaultRetention:
		return "retention"
	}
	return "none"
}

// transient reports whether k is one of the retryable verify-failure kinds.
func (k FaultKind) transient() bool {
	return k == FaultTransientProgram || k == FaultTransientErase
}

// appliesTo reports whether an op of kind op advances (and can trip) a fault
// of kind k. Power loss stalks state-changing operations, stuck bits ride on
// erases, read disturb and retention on reads — including multi-page senses,
// which stress wordlines exactly like reads do. Skipped programs never count
// — no pulse, no fault, matching the original one-shot semantics.
func (k FaultKind) appliesTo(op OpKind) bool {
	switch k {
	case FaultPowerLoss:
		return op == OpProgram || op == OpErase
	case FaultStuckBits:
		return op == OpErase
	case FaultReadDisturb:
		return op == OpRead || op == OpSense
	case FaultTransientProgram:
		return op == OpProgram
	case FaultTransientErase:
		return op == OpErase
	case FaultRetention:
		return op == OpRead || op == OpSense
	}
	return false
}

// Fault is one scheduled failure.
type Fault struct {
	Kind FaultKind
	// After is how many operations of the fault's kind-domain complete
	// normally before the next one becomes the victim.
	After int
	// Bits is how many cells a stuck-bits or read-disturb fault affects
	// (0 means 1).
	Bits int
	// Retries is the transient-fault budget: how many consecutive issues
	// of the faulted operation (the first plus Retries-1 re-issues) fail
	// before one succeeds (0 means 1 — fail once, succeed on re-issue).
	// Ignored by non-transient kinds.
	Retries int
}

// bits returns the effective affected-cell count.
func (f Fault) bits() int {
	if f.Bits <= 0 {
		return 1
	}
	return f.Bits
}

// retries returns the effective transient failure budget.
func (f Fault) retries() int {
	if f.Retries <= 0 {
		return 1
	}
	return f.Retries
}

// FaultMix parameterises Draw: relative weights per fault kind and the
// uniform ranges the gap, bit and retry counts are drawn from.
type FaultMix struct {
	PowerLoss        int // weight of FaultPowerLoss
	StuckBits        int // weight of FaultStuckBits
	ReadDisturb      int // weight of FaultReadDisturb
	TransientProgram int // weight of FaultTransientProgram
	TransientErase   int // weight of FaultTransientErase
	Retention        int // weight of FaultRetention

	MinGap, MaxGap int // Fault.After drawn uniformly from [MinGap, MaxGap]
	// MaxBits bounds stuck-bits faults: Bits is drawn uniformly from
	// [1, MaxBits] (0 → 1). Every other kind touches one cell.
	MaxBits int
	// MaxRetries bounds the transient budget: Retries is drawn uniformly
	// from [1, MaxRetries] for transient kinds (0 → always 1).
	MaxRetries int
}

// Validate rejects mixes that would corrupt the weighted draw: a negative
// weight silently skews every pick after it in the cascade (the draw is a
// prefix-sum walk), so it is refused outright rather than clamped. Range
// parameters must be non-negative for the same reason.
func (m FaultMix) Validate() error {
	for _, w := range []struct {
		name string
		v    int
	}{
		{"PowerLoss", m.PowerLoss},
		{"StuckBits", m.StuckBits},
		{"ReadDisturb", m.ReadDisturb},
		{"TransientProgram", m.TransientProgram},
		{"TransientErase", m.TransientErase},
		{"Retention", m.Retention},
	} {
		if w.v < 0 {
			return fmt.Errorf("flash: FaultMix.%s weight is negative (%d); weights must be >= 0", w.name, w.v)
		}
	}
	if m.MinGap < 0 || m.MaxGap < 0 {
		return fmt.Errorf("flash: FaultMix gap range [%d, %d] is negative", m.MinGap, m.MaxGap)
	}
	if m.MaxGap < m.MinGap {
		return fmt.Errorf("flash: FaultMix gap range [%d, %d] is inverted", m.MinGap, m.MaxGap)
	}
	if m.MaxBits < 0 {
		return fmt.Errorf("flash: FaultMix.MaxBits is negative (%d)", m.MaxBits)
	}
	if m.MaxRetries < 0 {
		return fmt.Errorf("flash: FaultMix.MaxRetries is negative (%d)", m.MaxRetries)
	}
	return nil
}

// Draw returns the next fault of the stream rng drives: the kind by weight,
// then the gap, then a cell count for stuck bits or a retry budget for the
// transient kinds; a kind makes only the draws it uses. A mix whose
// weights are all zero draws power loss. m must pass Validate.
func (m FaultMix) Draw(rng *xrand.RNG) Fault {
	weights := [...]int{m.PowerLoss, m.StuckBits, m.ReadDisturb,
		m.TransientProgram, m.TransientErase, m.Retention}
	total := 0
	for _, w := range weights {
		total += w
	}
	f := Fault{Kind: FaultPowerLoss, After: m.MinGap, Bits: 1}
	if total > 0 {
		// The weights list the kinds in FaultKind order, power loss first.
		pick := rng.Intn(total)
		for i, w := range weights {
			if pick < w {
				f.Kind = FaultPowerLoss + FaultKind(i)
				break
			}
			pick -= w
		}
	}
	if m.MaxGap > m.MinGap {
		f.After += rng.Intn(m.MaxGap - m.MinGap + 1)
	}
	if f.Kind == FaultStuckBits && m.MaxBits > 1 {
		f.Bits += rng.Intn(m.MaxBits)
	}
	if f.Kind.transient() {
		f.Retries = 1
		if m.MaxRetries > 1 {
			f.Retries += rng.Intn(m.MaxRetries)
		}
	}
	return f
}

// faultScope is the device's one arming domain. ftMu guards it; it nests
// inside bank locks and is never held while taking any other lock.
type faultScope struct {
	armed bool
	cur   Fault
	// rng, when set, re-arms the scope after each firing with the next
	// fault mix draws from it (SetFaultSchedule).
	rng   *xrand.RNG
	mix   FaultMix
	fired uint64
	// Transient residue: after a transient fault fires with a budget of
	// Retries, the same incident keeps failing the next residLeft
	// matching operations — the re-issues of the victim op — without
	// counting as new firings or advancing the next fault's countdown.
	residKind FaultKind
	residLeft int
}

// arm replaces the scope's pending fault. Arming FaultNone disarms.
func (fs *faultScope) arm(f Fault) {
	fs.cur = f
	fs.armed = f.Kind != FaultNone
}

// live reports whether the scope can still fail an operation: a fault is
// armed or transient residue is draining.
func (fs *faultScope) live() bool { return fs.armed || fs.residLeft > 0 }

// setSchedule drops the pending fault and any transient residue, then, with
// rng set, arms the first fault of mix's stream. ClearFaults passes a nil
// rng, which leaves the scope disarmed.
func (fs *faultScope) setSchedule(rng *xrand.RNG, mix FaultMix) {
	*fs = faultScope{rng: rng, mix: mix, fired: fs.fired}
	if rng != nil {
		fs.arm(mix.Draw(rng))
	}
}

// hitWithin returns the index of the first of the next n ops of kind op
// that the scope would fire on, or n if it fires on none of them. It does
// not change the scope. Transient residue claims the first op: while an
// incident's budget is draining, matching operations fail again without
// advancing the armed fault's countdown.
func (fs *faultScope) hitWithin(op OpKind, n int) int {
	if fs.residLeft > 0 && fs.residKind.appliesTo(op) {
		return 0
	}
	if fs.armed && fs.cur.Kind.appliesTo(op) && fs.cur.After < n {
		return fs.cur.After
	}
	return n
}

// pass lets n ops of kind op go by without firing; n must not exceed
// hitWithin(op, n).
func (fs *faultScope) pass(op OpKind, n int) {
	if fs.armed && fs.cur.Kind.appliesTo(op) {
		fs.cur.After -= n
	}
}

// fire fires the scope on an op of kind op, which hitWithin(op, 1) must
// claim: residue is consumed first, otherwise the armed fault fires and,
// under a schedule, the next fault is armed.
func (fs *faultScope) fire(op OpKind) Fault {
	if fs.residLeft > 0 && fs.residKind.appliesTo(op) {
		fs.residLeft--
		return Fault{Kind: fs.residKind}
	}
	f := fs.cur
	fs.armed = false
	fs.fired++
	if f.Kind.transient() && f.retries() > 1 {
		fs.residKind = f.Kind
		fs.residLeft = f.retries() - 1
	}
	if fs.rng != nil {
		fs.arm(fs.mix.Draw(fs.rng))
	}
	return f
}

// ArmFault arms a one-shot fault. The countdown observes matching
// operations from every bank; under concurrent traffic the victim operation
// is scheduling-dependent.
func (d *Device) ArmFault(f Fault) {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.faults.arm(f)
	d.faultsLive.Store(d.faults.live())
}

// SetFaultSchedule arms an endless fault stream: the first fault mix draws
// from a generator seeded with seed is armed now, and each firing arms the
// next, so the stream is a pure function of (seed, mix). It replaces any
// pending fault and transient residue. The mix must pass Validate; an
// invalid mix is a programming error and panics, mirroring MustNewDevice.
// Callers holding user-supplied mixes should call mix.Validate first and
// surface the error.
func (d *Device) SetFaultSchedule(seed uint64, mix FaultMix) {
	if err := mix.Validate(); err != nil {
		panic(err)
	}
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.faults.setSchedule(xrand.New(seed), mix)
	d.faultsLive.Store(d.faults.live())
}

// ClearFaults disarms the pending fault, drops transient residue and
// removes the schedule — the campaign engine calls it at reboot boundaries
// so a leftover fault never leaks into recovery measurement.
func (d *Device) ClearFaults() {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.faults.setSchedule(nil, FaultMix{})
	d.faultsLive.Store(false)
}

// FaultsFired returns how many faults have fired.
func (d *Device) FaultsFired() uint64 {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	return d.faults.fired
}

// faultHit is the entry point for single operations: a lock-free liveness
// check first, the scope only while something is armed. Fault-free traffic
// — the overwhelmingly common case — never touches the device-wide fault
// mutex, which would otherwise serialize every bank.
func (d *Device) faultHit(op OpKind) (Fault, bool) {
	if !d.faultsLive.Load() {
		return Fault{}, false
	}
	k, f := d.faultFor(op, 1)
	return f, k == 0
}

// faultFor walks a span of n consecutive ops of kind op through the fault
// scope in one step and returns the index of the op a fault fires on (n if
// none does) with the fault: the result of issuing the ops one at a time.
// The liveness flag is refreshed (a fired one-shot with no schedule behind
// it disarms the scope). Called with the issuing bank's lock held.
func (d *Device) faultFor(op OpKind, n int) (int, Fault) {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	fs := &d.faults
	k := fs.hitWithin(op, n)
	fs.pass(op, k)
	var f Fault
	if k < n {
		f = fs.fire(op)
	}
	d.faultsLive.Store(fs.live())
	return k, f
}

// readFault applies a fault that fired on a read or sense of page p, after
// the result was served: read disturb clears cells, retention marks one
// marginal. Called with bank b's lock held.
func (d *Device) readFault(b, p int, f Fault) {
	switch f.Kind {
	case FaultReadDisturb:
		d.stickBits(b, p, f.bits())
	case FaultRetention:
		d.markRetention(b, p)
	}
}

// stickBits clears n cells at seeded-random positions in page p — the
// stuck-at-0 failure of both the endurance model and FaultStuckBits. Called
// with bank b's lock held; positions come from the bank's RNG so per-bank
// sequences stay deterministic. Cells that actually flip (were legitimately
// 1) are recorded in the page's drift mask, the fault model's ground truth
// for tests and the fault campaign's drift census.
func (d *Device) stickBits(b, p, n int) {
	base := d.PageBase(p)
	rng := d.banks[b].rng
	for i := 0; i < n; i++ {
		off := rng.Intn(d.spec.PageSize)
		bit := rng.Intn(8)
		old := d.array[base+off]
		d.array[base+off] &^= 1 << uint(bit)
		d.recordDrift(p, off, old^d.array[base+off])
	}
}
