// Package faultcampaign drives thousands of simulated crash/reboot cycles
// against the full stack — flash → core → ftl → kvs — and checks recovery
// invariants after every one. Each cycle arms a fault drawn from a seeded
// stream (power loss tearing a program or erase, stuck-at-0 cells, read
// disturb), runs a seeded key-value workload mirrored in a RAM model,
// reboots on crash and verifies that every acknowledged write survived
// exactly: a key holds its acked value, or — for the single operation that
// was in flight when power died — either the old or the new value, never a
// torn in-between. Everything derives from Config.Seed, so a failing
// campaign replays byte-identically (Result.Fingerprint pins the whole
// fault schedule and stats stream).
package faultcampaign

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/kvs"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Config parameterises one campaign. The zero value of every field has a
// usable default.
type Config struct {
	Seed   uint64
	Cycles int // crash/reboot cycles to run (default 1000)

	// Spec is the flash geometry (default: 24 pages × 128 B, 1 bank — a
	// small device so faults hit live data often).
	Spec flash.Spec

	// Mix weights the fault kinds and their gaps (default, when every
	// weight is zero: power loss heavy with occasional wear faults). Each
	// cycle's fault is Mix.Draw's next; only stuck-bits faults touch more
	// than one cell, so read disturb stays within the store's single-bit
	// repair guarantee. A mix that fails Validate is refused. Transient
	// weights (TransientProgram, TransientErase) require Retry > 0 —
	// without a retry policy a verify failure surfaces as a write error
	// the store was never meant to absorb.
	Mix flash.FaultMix

	// Retry > 0 arms the core verify-retry policy (core.WithRetry) with
	// the given re-issue budget; transient faults whose incident outlasts
	// the budget retire the page instead of failing the write.
	Retry int

	// RetentionEvery > 0 applies retention aging at every reboot: one
	// cell-leak event per RetentionEvery of device busy time accumulated
	// since the last aging step (capped per reboot), modelling charge
	// leaking while the node was powered down between campaign cycles.
	RetentionEvery time.Duration

	// UseFTL runs the store on a journaled FTL instead of raw flash.
	UseFTL bool
	// Verify mounts the store with read-back verification of commits.
	Verify bool

	// Compact arms the store's proactive garbage collector
	// (kvs.WithCompaction, default tuning), so space is reclaimed under the
	// cycle workload — and power loss lands mid-compaction — instead of GC
	// running only when an append finds the log full.
	Compact bool
	// CheckpointEvery > 0 arms index checkpointing (kvs.WithCheckpoint): a
	// checkpoint every N committed appends, so reboots restore from the
	// newest valid slot and replay only the tail — and power loss can tear
	// a checkpoint mid-write, which recovery must shrug off.
	CheckpointEvery int
	// CheckpointPages sizes each of the two checkpoint slots, in pages
	// (default 2, with CheckpointEvery set).
	CheckpointPages int

	// Spares reserves a retirement pool in the FTL (requires UseFTL), so
	// worn pages are remapped instead of quarantined.
	Spares int
	// Scrub arms the drift census (campaign.census): scrubPages pages
	// per bank each cycle, sampled before the workload so campaigns stay
	// replayable.
	Scrub bool
}

// The workload shape every campaign runs.
const (
	maxOpsPerCycle = 60 // ops attempted per cycle
	numKeys        = 8  // distinct keys
	valueSize      = 24 // value bytes
	scrubPages     = 2  // pages per bank each cycle's census samples
)

// withDefaults fills unset fields. The caller's mix must already have
// passed Validate: a mix with a negative weight is refused, not replaced.
func (c Config) withDefaults() Config {
	if c.Cycles <= 0 {
		c.Cycles = 1000
	}
	if c.Spec.PageSize == 0 {
		c.Spec = flash.DefaultSpec()
		c.Spec.PageSize = 128
		c.Spec.NumPages = 24
		c.Spec.Banks = 1
	}
	if c.Mix.PowerLoss == 0 && c.Mix.StuckBits == 0 && c.Mix.ReadDisturb == 0 &&
		c.Mix.TransientProgram == 0 && c.Mix.TransientErase == 0 && c.Mix.Retention == 0 {
		c.Mix = flash.FaultMix{
			PowerLoss: 8, StuckBits: 1, ReadDisturb: 1,
			MinGap: 0, MaxGap: 300, MaxBits: 2,
		}
	}
	if c.CheckpointEvery > 0 && c.CheckpointPages <= 0 {
		c.CheckpointPages = 2
	}
	return c
}

// Result is one campaign's outcome. Two runs with the same Config are
// byte-identical, Fingerprint included.
type Result struct {
	Seed   uint64 `json:"seed"`
	Cycles int    `json:"cycles"`

	Crashes               int `json:"crashes"`                 // cycles ended by a power loss
	CrashesDuringRecovery int `json:"crashes_during_recovery"` // power loss injected into a remount

	PowerLossArmed        int `json:"power_loss_armed"`
	StuckBitsArmed        int `json:"stuck_bits_armed"`
	ReadDisturbArmed      int `json:"read_disturb_armed"`
	TransientProgramArmed int `json:"transient_program_armed,omitempty"`
	TransientEraseArmed   int `json:"transient_erase_armed,omitempty"`
	RetentionArmed        int `json:"retention_armed,omitempty"`

	FaultsFired uint64 `json:"faults_fired"`

	// Verify-retry outcomes (with Config.Retry): re-issues, writes the
	// retry saved from failing, and pages retired on budget exhaustion.
	RetryAttempts uint64 `json:"retry_attempts,omitempty"`
	RetrySaves    uint64 `json:"retry_saves,omitempty"`
	RetryRetired  uint64 `json:"retry_retired,omitempty"`
	ProgramFails  uint64 `json:"program_fails,omitempty"`
	EraseFails    uint64 `json:"erase_fails,omitempty"`

	// Retention-drift outcomes: cells aged marginal at reboots, read-path
	// re-senses, and the pages the census found absorbing marginal cells.
	RetentionAged          uint64 `json:"retention_aged,omitempty"`
	SenseRetries           uint64 `json:"sense_retries,omitempty"`
	SenseRecovered         uint64 `json:"sense_recovered,omitempty"`
	MarginSenses           uint64 `json:"margin_senses,omitempty"`
	ScrubRetentionAbsorbed uint64 `json:"scrub_retention_absorbed,omitempty"`

	Violations     []string `json:"violations,omitempty"` // capped detail strings
	ViolationCount int      `json:"violation_count"`

	// Recovery cost: flash activity between crash and completed remount.
	RecoveryBusy     time.Duration `json:"recovery_busy_ns"`
	RecoveryEnergy   energy.Energy `json:"recovery_energy_j"`
	MeanRecoveryBusy time.Duration `json:"mean_recovery_busy_ns"`

	// Resilience counters from the final store state; Compactions and the
	// checkpoint counters accumulate across every reboot's store lifetime.
	WastedPages   uint64 `json:"wasted_pages"` // retired + quarantined
	CorrectedBits uint64 `json:"corrected_bits"`
	TornSkipped   uint64 `json:"torn_skipped"`
	Compactions   uint64 `json:"compactions"`

	Checkpoints        uint64 `json:"checkpoints,omitempty"`
	CheckpointFailures uint64 `json:"checkpoint_failures,omitempty"`
	CheckpointMounts   uint64 `json:"checkpoint_mounts,omitempty"`
	ScanMounts         uint64 `json:"scan_mounts,omitempty"`

	FTLRolledForward uint64 `json:"ftl_rolled_forward,omitempty"`
	FTLRolledBack    uint64 `json:"ftl_rolled_back,omitempty"`
	FTLRetirements   uint64 `json:"ftl_retirements,omitempty"`

	// The drift census (with Config.Scrub), accumulated across reboots.
	// ScrubClean completes the census but stays out of the artifact: it
	// is ScrubSampled less every other class.
	ScrubSampled    uint64 `json:"scrub_sampled,omitempty"`
	ScrubClean      uint64 `json:"-"`
	ScrubAbsorbed   uint64 `json:"scrub_absorbed,omitempty"`
	ScrubUnabsorbed uint64 `json:"scrub_unabsorbed,omitempty"`

	FinalLiveKeys int    `json:"final_live_keys"`
	Fingerprint   uint64 `json:"fingerprint"`
}

// violationCap bounds the detail strings kept in Result.
const violationCap = 10

// pendingOp is the single operation in flight when power died.
type pendingOp struct {
	key    string
	val    []byte // nil for a delete
	delete bool
	active bool
}

// campaign is the engine's run state.
type campaign struct {
	cfg   Config
	rng   *xrand.RNG
	dev   *core.Device
	fl    *flash.Device
	ftl   *ftl.FTL
	store *kvs.Store

	// cursor is the drift census's per-bank index of the next page to
	// sample, reset on every mount (a reboot loses its RAM cursors);
	// ftlRetireTotal accumulates the retirements of FTLs retired by
	// reboots.
	cursor         []int
	ftlRetireTotal uint64
	// kvsTotals accumulates the lifetime counters (compactions,
	// checkpoints, mount paths) of stores retired by reboots — a remount
	// starts a fresh kvs.Stats, but the campaign reports totals.
	kvsTotals kvs.Stats

	model   map[string][]byte // acked key → value
	pending pendingOp

	// agedBusy is the device busy-time watermark of the last retention
	// aging step (Config.RetentionEvery).
	agedBusy time.Duration

	res  Result
	fp   uint64 // FNV-1a running fingerprint
	keys []string
}

// retryBackoff is the base backoff the campaign's retry policy charges per
// re-issue; fixed so fingerprints depend only on Config.
const retryBackoff = 10 * time.Microsecond

// Run executes the campaign described by cfg.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, fmt.Errorf("faultcampaign: %w", err)
	}
	cfg = cfg.withDefaults()
	if cfg.Mix.TransientProgram+cfg.Mix.TransientErase > 0 && cfg.Retry <= 0 {
		return nil, fmt.Errorf("faultcampaign: transient fault weights require Retry > 0")
	}
	c := &campaign{
		cfg:   cfg,
		rng:   xrand.New(cfg.Seed),
		model: map[string][]byte{},
	}
	c.res.Seed = cfg.Seed
	c.res.Cycles = cfg.Cycles
	c.fp = 14695981039346656037 // FNV-1a offset basis

	var opts []core.Option
	if cfg.Retry > 0 {
		opts = append(opts, core.WithRetry(cfg.Retry, retryBackoff))
	}
	c.dev = core.MustNewDevice(cfg.Spec, opts...)
	c.fl = c.dev.Flash()
	if err := c.mount(); err != nil {
		return nil, fmt.Errorf("faultcampaign: initial mount: %w", err)
	}
	for i := 0; i < numKeys; i++ {
		c.keys = append(c.keys, fmt.Sprintf("k%02d", i))
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		c.runCycle(cycle)
	}
	c.finish()
	return &c.res, nil
}

// mount (re)builds the software stack over the persistent flash array,
// as a reboot would.
func (c *campaign) mount() error {
	if c.store != nil {
		c.foldStoreStats(c.store.Stats())
		c.store = nil
	}
	var backendErr error
	if c.cfg.UseFTL {
		if c.ftl != nil {
			fst := c.ftl.Stats()
			c.ftlRetireTotal += fst.Retirements
		}
		f, err := ftl.Open(c.dev, ftl.WithSpares(c.cfg.Spares))
		if err != nil {
			return err
		}
		c.ftl = f
		ps := c.fl.Spec().PageSize
		if err := c.dev.SetApproxRegion(0, f.NumPages()*ps); err != nil {
			return err
		}
		c.store, backendErr = c.openStore(f)
	} else {
		if err := c.dev.SetApproxRegion(0, c.fl.Spec().Size()); err != nil {
			return err
		}
		c.store, backendErr = c.openStore(nil)
	}
	if backendErr == nil && c.cfg.Scrub {
		c.cursor = make([]int, c.fl.Banks())
	}
	return backendErr
}

// foldStoreStats accumulates a retired store's lifetime counters.
func (c *campaign) foldStoreStats(st kvs.Stats) {
	c.kvsTotals.Compactions += st.Compactions
	c.kvsTotals.Checkpoints += st.Checkpoints
	c.kvsTotals.CheckpointFailures += st.CheckpointFailures
	c.kvsTotals.CheckpointMounts += st.CheckpointMounts
	c.kvsTotals.ScanMounts += st.ScanMounts
	c.kvsTotals.SenseRetries += st.SenseRetries
	c.kvsTotals.SenseRecovered += st.SenseRecovered
	c.kvsTotals.MarginSenses += st.MarginSenses
}

// openStore mounts the kvs layer on the chosen backend.
func (c *campaign) openStore(f *ftl.FTL) (*kvs.Store, error) {
	var opts []kvs.Option
	if c.cfg.Verify {
		opts = append(opts, kvs.WithVerify())
	}
	if c.cfg.Compact {
		opts = append(opts, kvs.WithCompaction(kvs.CompactionConfig{}))
	}
	if c.cfg.CheckpointEvery > 0 {
		opts = append(opts, kvs.WithCheckpoint(kvs.CheckpointConfig{
			SlotPages: c.cfg.CheckpointPages,
			Interval:  c.cfg.CheckpointEvery,
		}))
	}
	if f != nil {
		return kvs.OpenOn(f, opts...)
	}
	return kvs.Open(c.dev, opts...)
}

// runCycle arms one fault, drives workload until it fires (or the op budget
// runs out), and — if power was lost — reboots and checks every invariant.
func (c *campaign) runCycle(cycle int) {
	f := c.drawFault()
	c.fl.ArmFault(f)
	c.mix(uint64(f.Kind), uint64(f.After), uint64(f.Bits), uint64(f.Retries))

	if c.cfg.Scrub {
		// The census only reads, so the armed fault can fire only in the
		// workload below.
		c.census()
		// The 0 holds the slot of a retired census class, keeping every
		// campaign fingerprint as it was.
		c.mix(c.res.ScrubSampled, c.res.ScrubAbsorbed, c.res.ScrubUnabsorbed, 0)
		c.mix(c.res.ScrubRetentionAbsorbed)
	}

	crashed := false
	ops := 0
	for ; ops < maxOpsPerCycle; ops++ {
		if c.driveOp(cycle) {
			crashed = true
			break
		}
	}
	c.mix(uint64(ops), boolU64(crashed))

	if crashed {
		c.res.Crashes++
		c.reboot(cycle)
	} else {
		// The armed fault may not have fired (gap longer than the
		// cycle's traffic); the next cycle's arming replaces it.
		c.resolvePending(cycle)
	}

	st := c.fl.Stats()
	c.mix(st.Programs, st.Erases, st.Reads, st.ProgramsSkipped, uint64(len(c.model)))
}

// drawFault draws the next fault of the campaign's stream and counts it
// by kind.
func (c *campaign) drawFault() flash.Fault {
	f := c.cfg.Mix.Draw(c.rng)
	switch f.Kind {
	case flash.FaultPowerLoss:
		c.res.PowerLossArmed++
	case flash.FaultStuckBits:
		c.res.StuckBitsArmed++
	case flash.FaultReadDisturb:
		c.res.ReadDisturbArmed++
	case flash.FaultTransientProgram:
		c.res.TransientProgramArmed++
	case flash.FaultTransientErase:
		c.res.TransientEraseArmed++
	case flash.FaultRetention:
		c.res.RetentionArmed++
	}
	return f
}

// driveOp performs one workload operation, returning true on power loss.
func (c *campaign) driveOp(cycle int) bool {
	key := c.keys[c.rng.Intn(len(c.keys))]
	switch r := c.rng.Intn(10); {
	case r < 5: // put
		val := make([]byte, valueSize)
		for i := range val {
			val[i] = c.rng.Byte()
		}
		c.pending = pendingOp{key: key, val: val, active: true}
		err := c.store.Put(key, val)
		if isPowerLoss(err) {
			return true
		}
		c.pending.active = false
		if err == nil {
			c.model[key] = val
		} else if !errors.Is(err, kvs.ErrFull) && !errors.Is(err, kvs.ErrDeviceReadOnly) {
			c.violation(cycle, "put %q: %v", key, err)
		}
	case r < 7: // delete
		c.pending = pendingOp{key: key, delete: true, active: true}
		err := c.store.Delete(key)
		if isPowerLoss(err) {
			return true
		}
		c.pending.active = false
		if err == nil {
			delete(c.model, key)
		} else if !errors.Is(err, kvs.ErrFull) && !errors.Is(err, kvs.ErrDeviceReadOnly) {
			c.violation(cycle, "delete %q: %v", key, err)
		}
	default: // get
		got, err := c.store.Get(key)
		if isPowerLoss(err) {
			return true
		}
		c.checkKey(cycle, key, got, err, "get")
	}
	return false
}

// maxAgingPerReboot bounds the cell-leak events one reboot applies, so a
// long-lived campaign with a tight RetentionEvery stays O(1) per reboot.
const maxAgingPerReboot = 64

// ageRetention applies the retention aging a reboot owes: one cell-leak
// event per RetentionEvery of busy time accumulated since the last step —
// charge leaks in real time, and the reboot is when the node was dark.
func (c *campaign) ageRetention() {
	if c.cfg.RetentionEvery <= 0 {
		return
	}
	busy := c.fl.Stats().Busy
	n := int((busy - c.agedBusy) / c.cfg.RetentionEvery)
	if n > maxAgingPerReboot {
		n = maxAgingPerReboot
	}
	c.agedBusy = busy
	if n <= 0 {
		return
	}
	marked := c.fl.AgeRetention(n)
	c.res.RetentionAged += uint64(marked)
	c.mix(uint64(n), uint64(marked))
}

// reboot clears faults, ages retention for the downtime, optionally injects
// a power loss into the recovery itself, remounts the stack and verifies
// every invariant.
func (c *campaign) reboot(cycle int) {
	c.fl.ClearFaults()
	c.ageRetention()

	// A remount can itself be interrupted — energy-harvesting nodes
	// brown out repeatedly. Bounded so the campaign always makes
	// progress.
	for attempt := 0; attempt < 5; attempt++ {
		if attempt == 0 && c.rng.Intn(10) == 0 {
			c.res.CrashesDuringRecovery++
			c.fl.ArmFault(flash.Fault{Kind: flash.FaultPowerLoss, After: c.rng.Intn(40)})
		}
		before := c.fl.Stats()
		err := c.mount()
		after := c.fl.Stats()
		c.res.RecoveryBusy += after.Busy - before.Busy
		c.res.RecoveryEnergy += after.Energy - before.Energy
		if err == nil {
			c.resolvePending(cycle)
			c.checkModel(cycle)
			return
		}
		c.fl.ClearFaults()
		if !isPowerLoss(err) {
			c.violation(cycle, "remount: %v", err)
			return
		}
	}
	c.violation(cycle, "remount: power lost on every attempt")
}

// resolvePending settles the operation that was in flight at the crash:
// after reboot the key must hold either its acked value or the pending one
// — the pending outcome is then absorbed into the model.
func (c *campaign) resolvePending(cycle int) {
	if !c.pending.active {
		return
	}
	p := c.pending
	c.pending.active = false
	got, err := c.store.Get(p.key)
	acked, hadAcked := c.model[p.key]

	switch {
	case p.delete:
		if errors.Is(err, kvs.ErrNotFound) {
			delete(c.model, p.key) // tombstone landed
			return
		}
		if err == nil && hadAcked && bytes.Equal(got, acked) {
			return // rolled back
		}
	default:
		if err == nil && bytes.Equal(got, p.val) {
			c.model[p.key] = p.val // landed
			return
		}
		if err == nil && hadAcked && bytes.Equal(got, acked) {
			return // rolled back
		}
		if errors.Is(err, kvs.ErrNotFound) && !hadAcked {
			return // rolled back to absent
		}
	}
	c.violation(cycle, "in-flight %q settled to torn state (err %v)", p.key, err)
}

// checkModel verifies every acked key after a reboot. It walks the fixed
// key universe, not the model map: map iteration order is randomised, and
// Get's read-repair programs flash — order must stay deterministic for the
// fingerprint to replay.
func (c *campaign) checkModel(cycle int) {
	for _, key := range c.keys {
		want, ok := c.model[key]
		if !ok {
			continue
		}
		got, err := c.store.Get(key)
		if err != nil || !bytes.Equal(got, want) {
			c.violation(cycle, "acked %q lost after reboot: err %v", key, err)
		}
	}
}

// The drift census. Flash cells drift: read disturb and worn erases leave
// cells stuck at 0, and programmed cells leak charge to the read
// threshold. With Config.Scrub, each cycle samples scrubPages pages per
// bank and counts each into one class of Result's Scrub* counters. The
// census reads the fault model's ground truth (flash.Device.StuckBits and
// RiseBits), which no controller can sense, so it is a checker of the
// campaign like checkModel, and it changes nothing on the device.

// censusMaxStuck is the drifted-cell budget an approximatable page
// absorbs: single-cell drift (the read-disturb case the record CRCs
// already repair) is absorbed, anything wider is unabsorbed, so the
// census sees both classes.
const censusMaxStuck = 1

// driftClass is a page's census class.
type driftClass int

const (
	// driftClean: no drift and not worn. Retired pages count as clean:
	// nothing lives there any more.
	driftClean driftClass = iota
	// driftAbsorbed: approximatable, not worn, and at most censusMaxStuck
	// stuck cells. Stuck bits are just extra 1→0 flips inside the error
	// budget, so the data keeps living there at no refresh cost.
	driftAbsorbed
	// driftRetentionAbsorbed: as driftAbsorbed, with a marginal retention
	// cell among the drifted ones; read noise inside the same budget.
	driftRetentionAbsorbed
	// driftUnabsorbed: exact pages with drift, approximatable pages past
	// the budget, and worn pages.
	driftUnabsorbed
)

// classifyDrift returns page p's census class.
func classifyDrift(d *core.Device, p int) driftClass {
	fl := d.Flash()
	if fl.Retired(p) {
		return driftClean
	}
	stuck, rise, worn := fl.StuckBits(p), fl.RiseBits(p), fl.WornOut(p)
	switch {
	case stuck == 0 && rise == 0 && !worn:
		return driftClean
	case d.Approximatable(p) && stuck+rise <= censusMaxStuck && !worn:
		if rise > 0 {
			return driftRetentionAbsorbed
		}
		return driftAbsorbed
	}
	return driftUnabsorbed
}

// census samples the next scrubPages pages of every bank, advancing the
// bank's cursor, and counts each page into its class.
func (c *campaign) census() {
	nb := c.fl.Banks()
	pages := c.fl.Spec().NumPages
	for b := 0; b < nb; b++ {
		// Pages p with p % nb == b: at least one, since a spec never has
		// more banks than pages.
		perBank := (pages - b + nb - 1) / nb
		for i := 0; i < scrubPages; i++ {
			idx := c.cursor[b] % perBank
			c.cursor[b] = idx + 1
			c.res.ScrubSampled++
			switch classifyDrift(c.dev, b+idx*nb) {
			case driftClean:
				c.res.ScrubClean++
			case driftAbsorbed:
				c.res.ScrubAbsorbed++
			case driftRetentionAbsorbed:
				c.res.ScrubRetentionAbsorbed++
			case driftUnabsorbed:
				c.res.ScrubUnabsorbed++
			}
		}
	}
}

// checkKey verifies one read against the model.
func (c *campaign) checkKey(cycle int, key string, got []byte, err error, op string) {
	want, ok := c.model[key]
	switch {
	case !ok:
		if !errors.Is(err, kvs.ErrNotFound) {
			c.violation(cycle, "%s %q: want not-found, got err %v", op, key, err)
		}
	case err != nil:
		c.violation(cycle, "%s %q: %v", op, key, err)
	case !bytes.Equal(got, want):
		c.violation(cycle, "%s %q: value mismatch", op, key)
	}
}

// violation records one invariant failure.
func (c *campaign) violation(cycle int, format string, args ...any) {
	c.res.ViolationCount++
	if len(c.res.Violations) < violationCap {
		msg := fmt.Sprintf(format, args...)
		c.res.Violations = append(c.res.Violations, fmt.Sprintf("cycle %d: %s", cycle, msg))
	}
}

// finish folds the terminal state into the result.
func (c *campaign) finish() {
	st := c.store.Stats()
	c.foldStoreStats(st)
	c.res.WastedPages = st.RetiredPages + st.QuarantinedPages
	c.res.CorrectedBits = st.CorrectedBits
	c.res.TornSkipped = st.TornSkipped
	c.res.Compactions = c.kvsTotals.Compactions
	c.res.Checkpoints = c.kvsTotals.Checkpoints
	c.res.CheckpointFailures = c.kvsTotals.CheckpointFailures
	c.res.CheckpointMounts = c.kvsTotals.CheckpointMounts
	c.res.ScanMounts = c.kvsTotals.ScanMounts
	c.res.FinalLiveKeys = c.store.Len()
	c.res.FaultsFired = c.fl.FaultsFired()
	if c.ftl != nil {
		fst := c.ftl.Stats()
		c.res.FTLRolledForward = fst.RolledForward
		c.res.FTLRolledBack = fst.RolledBack
		c.res.FTLRetirements = c.ftlRetireTotal + fst.Retirements
		c.res.CorrectedBits += fst.CorrectedBits
	}
	cs := c.dev.Stats()
	c.res.RetryAttempts = cs.RetryAttempts
	c.res.RetrySaves = cs.RetrySaves
	c.res.RetryRetired = cs.RetryRetired
	flStats := c.fl.Stats()
	c.res.ProgramFails = flStats.ProgramFails
	c.res.EraseFails = flStats.EraseFails
	c.res.SenseRetries = c.kvsTotals.SenseRetries
	c.res.SenseRecovered = c.kvsTotals.SenseRecovered
	c.res.MarginSenses = c.kvsTotals.MarginSenses
	if c.res.Crashes > 0 {
		c.res.MeanRecoveryBusy = c.res.RecoveryBusy / time.Duration(c.res.Crashes)
	}
	c.mix(c.res.FaultsFired, uint64(c.res.Crashes), uint64(c.res.ViolationCount))
	c.mix(c.res.Compactions, c.res.Checkpoints, c.res.CheckpointMounts, c.res.ScanMounts)
	c.mix(c.res.RetryAttempts, c.res.RetrySaves, c.res.RetryRetired,
		c.res.ProgramFails, c.res.EraseFails)
	c.mix(c.res.RetentionAged, c.res.SenseRetries, c.res.SenseRecovered,
		c.res.MarginSenses, c.res.ScrubRetentionAbsorbed, c.res.ScrubUnabsorbed)
	c.res.Fingerprint = c.fp
}

// mix folds values into the FNV-1a fingerprint.
func (c *campaign) mix(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			c.fp ^= v & 0xFF
			c.fp *= 1099511628211
			v >>= 8
		}
	}
}

// isPowerLoss unwraps the sentinel through every layer.
func isPowerLoss(err error) bool { return errors.Is(err, flash.ErrPowerLoss) }

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
