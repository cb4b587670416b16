package flash

import (
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Fault scheduling. The one-shot power-loss hook of early versions grew into
// a general mechanism: a device (or a single bank) can be armed with a
// queue of faults — power loss tearing a program or erase partway, marginal
// cells left stuck at 0 by an erase, read-disturb bit flips — and a
// deterministic schedule can keep re-arming faults forever. Everything is
// driven by xrand seeds, so a failing fault campaign replays byte-identically
// from its seed alone.
//
// Scopes: each bank owns a fault scope whose countdown only observes that
// bank's operations, which keeps fault firing deterministic under concurrent
// traffic (the serial ≡ concurrent property test covers it). The device-wide
// shared scope — what InjectPowerLoss arms — counts operations across all
// banks; under concurrency *which* racing operation trips it is
// scheduling-dependent, like a real brown-out.

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

// FaultSchedule supplies faults to re-arm a scope after each firing. Next
// returns the next fault and true, or false when the schedule is exhausted.
// Implementations must be deterministic to keep campaigns replayable.
type FaultSchedule interface {
	Next() (Fault, bool)
}

// FaultMix parameterises RandomSchedule: relative weights per fault kind and
// the uniform ranges the gap and bit counts are drawn from.
type FaultMix struct {
	PowerLoss        int // weight of FaultPowerLoss
	StuckBits        int // weight of FaultStuckBits
	ReadDisturb      int // weight of FaultReadDisturb
	TransientProgram int // weight of FaultTransientProgram
	TransientErase   int // weight of FaultTransientErase
	Retention        int // weight of FaultRetention

	MinGap, MaxGap int // Fault.After drawn uniformly from [MinGap, MaxGap]
	MaxBits        int // Bits drawn uniformly from [1, MaxBits] (0 → 1)
	// MaxRetries bounds the transient budget: Retries is drawn uniformly
	// from [1, MaxRetries] for transient kinds (0 → always 1).
	MaxRetries int
}

// weightSum returns the total weight, defaulting to power loss only.
func (m FaultMix) weightSum() int {
	s := m.PowerLoss + m.StuckBits + m.ReadDisturb +
		m.TransientProgram + m.TransientErase + m.Retention
	if s <= 0 {
		return 1
	}
	return s
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

// RandomSchedule is an endless, seeded fault stream: kinds are drawn by
// weight and gaps/bit counts uniformly from the mix's ranges. The stream is
// a pure function of (seed, mix).
type RandomSchedule struct {
	rng *xrand.RNG
	mix FaultMix
}

// NewRandomSchedule returns the deterministic schedule for (seed, mix).
// The mix must pass Validate; an invalid mix (negative weights or ranges)
// is a programming error and panics, mirroring MustNewDevice. Callers
// holding user-supplied mixes should call mix.Validate first and surface
// the error.
func NewRandomSchedule(seed uint64, mix FaultMix) *RandomSchedule {
	if err := mix.Validate(); err != nil {
		panic(err)
	}
	return &RandomSchedule{rng: xrand.New(seed), mix: mix}
}

// Next implements FaultSchedule; the stream never ends.
func (s *RandomSchedule) Next() (Fault, bool) {
	m := s.mix
	pick := s.rng.Intn(m.weightSum())
	kind := FaultPowerLoss
	switch {
	case m.PowerLoss+m.StuckBits+m.ReadDisturb+m.TransientProgram+m.TransientErase+m.Retention <= 0:
		kind = FaultPowerLoss
	case pick < m.PowerLoss:
		kind = FaultPowerLoss
	case pick < m.PowerLoss+m.StuckBits:
		kind = FaultStuckBits
	case pick < m.PowerLoss+m.StuckBits+m.ReadDisturb:
		kind = FaultReadDisturb
	case pick < m.PowerLoss+m.StuckBits+m.ReadDisturb+m.TransientProgram:
		kind = FaultTransientProgram
	case pick < m.PowerLoss+m.StuckBits+m.ReadDisturb+m.TransientProgram+m.TransientErase:
		kind = FaultTransientErase
	default:
		kind = FaultRetention
	}
	gap := m.MinGap
	if m.MaxGap > m.MinGap {
		gap += s.rng.Intn(m.MaxGap - m.MinGap + 1)
	}
	bits := 1
	if m.MaxBits > 1 {
		bits += s.rng.Intn(m.MaxBits)
	}
	f := Fault{Kind: kind, After: gap, Bits: bits}
	if kind.transient() {
		// The extra draw happens only for transient kinds, so schedules
		// over the legacy mixes reproduce their historical streams.
		f.Retries = 1
		if m.MaxRetries > 1 {
			f.Retries += s.rng.Intn(m.MaxRetries)
		}
	}
	return f, true
}

// faultScope is one arming domain: the device-wide shared scope or a single
// bank. Its mutex only guards the arm state; it nests inside bank locks and
// is never held while taking any other lock.
type faultScope struct {
	armed bool
	cur   Fault
	sched FaultSchedule
	fired uint64
	// Transient residue: after a transient fault fires with a budget of
	// Retries, the same incident keeps failing the next residLeft
	// matching operations on this scope — the re-issues of the victim op
	// — without counting as new firings or advancing the next fault's
	// countdown.
	residKind FaultKind
	residLeft int
}

// arm replaces the scope's pending fault. Arming FaultNone disarms.
func (fs *faultScope) arm(f Fault) {
	fs.cur = f
	fs.armed = f.Kind != FaultNone
}

// setSchedule installs a schedule and arms its first fault. Any transient
// residue from a previous incident is dropped: a new schedule (or a nil one
// — how ClearFaults resets scopes) starts from a clean slate.
func (fs *faultScope) setSchedule(s FaultSchedule) {
	fs.sched = s
	fs.armed = false
	fs.residKind = FaultNone
	fs.residLeft = 0
	if s != nil {
		if f, ok := s.Next(); ok {
			fs.arm(f)
		}
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
// claim: residue is consumed first, otherwise the armed fault fires and the
// next fault (if a schedule is installed) is armed.
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
	if fs.sched != nil {
		if nf, ok := fs.sched.Next(); ok {
			fs.arm(nf)
		}
	}
	return f
}

// ArmFault arms a one-shot fault in the device-wide shared scope. The
// countdown observes matching operations from every bank; under concurrent
// traffic the victim operation is scheduling-dependent.
func (d *Device) ArmFault(f Fault) {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.faults.arm(f)
	d.faultsLive.Store(d.anyArmedLocked())
}

// ArmBankFault arms a one-shot fault scoped to bank b: only bank b's
// operations advance the countdown, so firing is deterministic even with
// other banks running concurrently.
func (d *Device) ArmBankFault(b int, f Fault) {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.banks[b].faults.arm(f)
	d.faultsLive.Store(d.anyArmedLocked())
}

// SetFaultSchedule installs a device-wide fault schedule, arming its first
// fault immediately. Passing nil removes the schedule (a pending armed fault
// is cleared too).
func (d *Device) SetFaultSchedule(s FaultSchedule) {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.faults.setSchedule(s)
	d.faultsLive.Store(d.anyArmedLocked())
}

// SetBankFaultSchedule installs a schedule scoped to bank b.
func (d *Device) SetBankFaultSchedule(b int, s FaultSchedule) {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.banks[b].faults.setSchedule(s)
	d.faultsLive.Store(d.anyArmedLocked())
}

// ClearFaults disarms every pending fault and removes every schedule, shared
// and per-bank — the campaign engine calls it at reboot boundaries so a
// leftover fault never leaks into recovery measurement.
func (d *Device) ClearFaults() {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	d.faults.setSchedule(nil)
	for b := range d.banks {
		d.banks[b].faults.setSchedule(nil)
	}
	d.faultsLive.Store(false)
}

// anyArmedLocked reports whether any scope holds an armed fault. Called
// with ftMu held.
func (d *Device) anyArmedLocked() bool {
	if d.faults.armed || d.faults.residLeft > 0 {
		return true
	}
	for b := range d.banks {
		if d.banks[b].faults.armed || d.banks[b].faults.residLeft > 0 {
			return true
		}
	}
	return false
}

// FaultsFired returns how many faults have fired across all scopes.
func (d *Device) FaultsFired() uint64 {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	n := d.faults.fired
	for b := range d.banks {
		n += d.banks[b].faults.fired
	}
	return n
}

// faultHit is the entry point for single operations: a lock-free liveness
// check first, the scope walk only while something is armed. Fault-free
// traffic — the overwhelmingly common case — never touches the device-wide
// fault mutex, which would otherwise serialize every bank.
func (d *Device) faultHit(b int, op OpKind) (Fault, bool) {
	if !d.faultsLive.Load() {
		return Fault{}, false
	}
	k, f := d.faultFor(b, op, 1)
	return f, k == 0
}

// faultFor walks a span of n consecutive ops of kind op on bank b through
// the fault scopes in one step and returns the index of the op a fault
// fires on (n if none does) with the fault. The result is that of issuing
// the ops one at a time: bank b's scope is consulted first on each op, and
// the shared scope does not advance on an op the bank scope claims. The
// liveness flag is refreshed (a fired one-shot with no schedule behind it
// disarms its scope). Called with bank b's lock held.
func (d *Device) faultFor(b int, op OpKind, n int) (int, Fault) {
	d.ftMu.Lock()
	defer d.ftMu.Unlock()
	bs, ss := &d.banks[b].faults, &d.faults
	kb := bs.hitWithin(op, n)
	ks := ss.hitWithin(op, kb)
	var f Fault
	switch {
	case ks < kb: // the bank scope counted the shared scope's victim too
		bs.pass(op, ks+1)
		ss.pass(op, ks)
		f = ss.fire(op)
	case kb < n:
		bs.pass(op, kb)
		ss.pass(op, kb)
		f = bs.fire(op)
	default:
		bs.pass(op, n)
		ss.pass(op, n)
	}
	d.faultsLive.Store(d.anyArmedLocked())
	return min(kb, ks), f
}

// stickBits clears n cells at seeded-random positions in page p — the
// stuck-at-0 failure of both the endurance model and FaultStuckBits. Called
// with bank b's lock held; positions come from the bank's RNG so per-bank
// sequences stay deterministic. Cells that actually flip (were legitimately
// 1) are recorded in the page's drift mask so the scrubber has ground truth
// to restore from.
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

// disturbPage applies a read-disturb fault: n cells of page p drift to 0
// after the read has been served. Called with bank b's lock held.
func (d *Device) disturbPage(b, p, n int) {
	d.stickBits(b, p, n)
}
