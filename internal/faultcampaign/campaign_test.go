package faultcampaign

import (
	"reflect"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestCampaignDeterministic: the whole campaign — fault schedule, workload,
// crashes, recovery stats, fingerprint — is a pure function of the config.
func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Cycles: 150}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Fingerprint == 0 {
		t.Error("fingerprint never mixed")
	}
}

// TestCampaignSeedsDiffer: different seeds must explore different schedules.
func TestCampaignSeedsDiffer(t *testing.T) {
	a, err := Run(Config{Seed: 1, Cycles: 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 2, Cycles: 60})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Error("distinct seeds produced identical fingerprints")
	}
}

// TestCampaignDirectKVS is the acceptance run: ≥1000 seeded crash/reboot
// cycles against the store on raw flash, zero recovery-invariant violations.
func TestCampaignDirectKVS(t *testing.T) {
	res, err := Run(Config{Seed: 7, Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res)
}

// TestCampaignKVSOnFTL: the same campaign through the journaled FTL, with
// commit read-back verification on.
func TestCampaignKVSOnFTL(t *testing.T) {
	res, err := Run(Config{Seed: 7, Cycles: 1000, UseFTL: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res)
}

// TestCampaignPowerLossOnly: a pure brown-out storm with short gaps so most
// cycles crash mid-operation.
func TestCampaignPowerLossOnly(t *testing.T) {
	res, err := Run(Config{
		Seed:   11,
		Cycles: 400,
		Mix:    flash.FaultMix{PowerLoss: 1, MinGap: 0, MaxGap: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res)
	if res.Crashes < res.Cycles/4 {
		t.Errorf("only %d/%d cycles crashed; gaps too generous for a brown-out storm", res.Crashes, res.Cycles)
	}
}

// TestCampaignScrubCensus: the scrubber takes its drift census every cycle
// while power losses and wear faults fire. Every sampled page must land in
// exactly one class, determinism must hold with the scrubber armed, and no
// acked data may be lost.
func TestCampaignScrubCensus(t *testing.T) {
	cfg := Config{
		Seed:   42,
		Cycles: 400,
		UseFTL: true,
		Verify: true,
		Spares: 2,
		Scrub:  true,
		Mix: flash.FaultMix{
			PowerLoss: 4, StuckBits: 4, ReadDisturb: 2,
			MinGap: 0, MaxGap: 100, MaxBits: 6,
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, a)
	if a.ScrubSampled == 0 {
		t.Error("scrubber never sampled a page")
	}
	if a.ScrubAbsorbed+a.ScrubUnabsorbed == 0 {
		t.Error("census never saw drift; fault mix too gentle")
	}
	if sum := a.ScrubClean + a.ScrubAbsorbed + a.ScrubRetentionAbsorbed + a.ScrubUnabsorbed + a.ScrubErrors; sum != a.ScrubSampled {
		t.Errorf("census does not balance: %d sampled, classes sum to %d", a.ScrubSampled, sum)
	}
	t.Logf("scrub: sampled=%d clean=%d absorbed=%d unabsorbed=%d errors=%d",
		a.ScrubSampled, a.ScrubClean, a.ScrubAbsorbed, a.ScrubUnabsorbed, a.ScrubErrors)

	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scrub campaign diverged across identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

// assertClean fails the test on any recovery-invariant violation and checks
// the campaign actually exercised faults.
func assertClean(t *testing.T, res *Result) {
	t.Helper()
	if res.ViolationCount != 0 {
		t.Fatalf("%d invariant violations, first: %v", res.ViolationCount, res.Violations)
	}
	if res.Crashes == 0 {
		t.Error("campaign never crashed; fault schedule too sparse to prove anything")
	}
	if res.FaultsFired == 0 {
		t.Error("no fault ever fired")
	}
	t.Logf("cycles=%d crashes=%d (during recovery %d) fired=%d wasted=%d corrected=%d torn=%d meanRecovery=%v fp=%016x",
		res.Cycles, res.Crashes, res.CrashesDuringRecovery, res.FaultsFired,
		res.WastedPages, res.CorrectedBits, res.TornSkipped, res.MeanRecoveryBusy, res.Fingerprint)
}

// ckptTestConfig is the crash-during-GC/checkpoint configuration: proactive
// compaction and interval checkpointing armed on a geometry with room for
// two 4-page checkpoint slots.
func ckptTestConfig(seed uint64, cycles int) Config {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 1
	return Config{
		Seed: seed, Cycles: cycles, Spec: spec,
		Compact: true, CheckpointEvery: 12, CheckpointPages: 4,
	}
}

// TestCampaignCompactionCheckpoint is the crash-during-GC/checkpoint
// acceptance run: power loss lands mid-compaction and mid-checkpoint-write,
// reboots restore from whatever checkpoint survived and replay the tail,
// and no acked key is ever lost. The workload must actually exercise the
// machinery: GC passes, committed checkpoints, and checkpointed mounts all
// have to show up in the totals.
func TestCampaignCompactionCheckpoint(t *testing.T) {
	res, err := Run(ckptTestConfig(7, 1000))
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res)
	if res.Compactions == 0 {
		t.Error("campaign never compacted")
	}
	if res.Checkpoints == 0 {
		t.Error("campaign never committed a checkpoint")
	}
	if res.CheckpointMounts == 0 {
		t.Error("no reboot ever mounted from a checkpoint")
	}
	t.Logf("compactions=%d checkpoints=%d (failures %d) mounts: %d ckpt / %d scan",
		res.Compactions, res.Checkpoints, res.CheckpointFailures,
		res.CheckpointMounts, res.ScanMounts)
}

// TestCampaignCompactionCheckpointReplay: the compact+ckpt campaign replays
// byte-identically — torn checkpoints, GC crash points and all.
func TestCampaignCompactionCheckpointReplay(t *testing.T) {
	a, err := Run(ckptTestConfig(99, 300))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ckptTestConfig(99, 300))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// transientTestConfig arms the full robustness stack: transient program and
// erase verify failures absorbed by the core retry budget, retention aging
// on every reboot, and a scrub pass per cycle absorbing marginal cells in
// the (fully approximatable) raw store. Retry covers Mix.MaxRetries, so
// every transient incident recovers without retirement.
func transientTestConfig(seed uint64, cycles int) Config {
	return Config{
		Seed:           seed,
		Cycles:         cycles,
		Retry:          3,
		RetentionEvery: 2 * time.Millisecond,
		Scrub:          true,
		Mix: flash.FaultMix{
			PowerLoss:        4,
			TransientProgram: 3,
			TransientErase:   1,
			Retention:        2,
			MinGap:           0,
			MaxGap:           250,
			MaxRetries:       3,
		},
	}
}

// TestCampaignTransientRetention is the transient+retention acceptance run:
// 1000 cycles of verify failures, brown-outs, read-time retention marks and
// power-off aging, with zero recovery-invariant violations. The machinery
// has to actually fire: retries must save writes (and, with the budget
// covering every incident, never retire), aging must mark cells, and the
// hardened read path must re-sense flicker.
func TestCampaignTransientRetention(t *testing.T) {
	res, err := Run(transientTestConfig(7, 1000))
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res)
	if res.TransientProgramArmed+res.TransientEraseArmed == 0 {
		t.Error("schedule never armed a transient fault")
	}
	if res.RetrySaves == 0 {
		t.Error("retry policy never saved a write")
	}
	if res.RetryRetired != 0 {
		t.Errorf("RetryRetired = %d; budget covers every incident, nothing should retire", res.RetryRetired)
	}
	if res.RetentionAged == 0 {
		t.Error("reboots never aged retention")
	}
	if res.SenseRetries == 0 {
		t.Error("store never re-sensed a flickering read")
	}
	t.Logf("retry: attempts=%d saves=%d | fails: program=%d erase=%d | retention: aged=%d senses=%d recovered=%d scrubAbsorbed=%d",
		res.RetryAttempts, res.RetrySaves, res.ProgramFails, res.EraseFails,
		res.RetentionAged, res.SenseRetries, res.SenseRecovered, res.ScrubRetentionAbsorbed)

	again, err := Run(transientTestConfig(7, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("transient campaign diverged across identical runs:\n%+v\nvs\n%+v", res, again)
	}
}

// TestCampaignTransientExhaust: with the retry budget below the worst
// incident, some transient-program faults must exhaust the budget and
// retire the page — and the store has to absorb every retirement without
// losing acked data. Erase transients are left out of the mix: a torn
// erase that outlasts the budget legitimately destroys the page image,
// which is the FTL's remap territory, not the raw store's.
func TestCampaignTransientExhaust(t *testing.T) {
	res, err := Run(Config{
		Seed:   13,
		Cycles: 400,
		Retry:  1,
		Mix: flash.FaultMix{
			PowerLoss:        2,
			TransientProgram: 4,
			MinGap:           0,
			MaxGap:           150,
			MaxRetries:       4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, res)
	if res.RetrySaves == 0 {
		t.Error("no single-shot incident was saved by the retry")
	}
	if res.RetryRetired == 0 {
		t.Error("no incident exhausted the budget; MaxRetries too low to exercise retirement")
	}
	t.Logf("exhaust: attempts=%d saves=%d retired=%d", res.RetryAttempts, res.RetrySaves, res.RetryRetired)
}

// TestCampaignTransientRequiresRetry: arming transient weights without a
// retry policy is a configuration error, not a latent campaign failure.
func TestCampaignTransientRequiresRetry(t *testing.T) {
	_, err := Run(Config{
		Seed: 1, Cycles: 10,
		Mix: flash.FaultMix{PowerLoss: 1, TransientProgram: 1, MaxGap: 50},
	})
	if err == nil {
		t.Fatal("transient mix without Retry accepted")
	}
}

// TestCampaignNegativeMixRejected: Run validates the caller's mix before
// filling defaults, so a negative weight or range surfaces as an error —
// not a panic, a skewed draw, or a silent swap to the default mix (which
// only an all-zero set of weights selects).
func TestCampaignNegativeMixRejected(t *testing.T) {
	for _, mix := range []flash.FaultMix{
		{PowerLoss: -1},
		{PowerLoss: -3, StuckBits: 2, MaxGap: 50},
		{MaxGap: -5},
	} {
		if _, err := Run(Config{Seed: 1, Cycles: 10, Mix: mix}); err == nil {
			t.Errorf("invalid mix %+v accepted", mix)
		}
	}
}

// refDraw is the reference for the campaign's fault stream: the draw the
// committed campaign artifacts were generated with, kept verbatim minus the
// per-kind counters.
func refDraw(m flash.FaultMix, rng *xrand.RNG) flash.Fault {
	total := m.PowerLoss + m.StuckBits + m.ReadDisturb +
		m.TransientProgram + m.TransientErase + m.Retention
	pick := rng.Intn(total)
	kind := flash.FaultPowerLoss
	switch {
	case pick < m.PowerLoss:
		kind = flash.FaultPowerLoss
	case pick < m.PowerLoss+m.StuckBits:
		kind = flash.FaultStuckBits
	case pick < m.PowerLoss+m.StuckBits+m.ReadDisturb:
		kind = flash.FaultReadDisturb
	case pick < m.PowerLoss+m.StuckBits+m.ReadDisturb+m.TransientProgram:
		kind = flash.FaultTransientProgram
	case pick < m.PowerLoss+m.StuckBits+m.ReadDisturb+m.TransientProgram+m.TransientErase:
		kind = flash.FaultTransientErase
	default:
		kind = flash.FaultRetention
	}
	gap := m.MinGap
	if m.MaxGap > m.MinGap {
		gap += rng.Intn(m.MaxGap - m.MinGap + 1)
	}
	bits := 1
	if kind == flash.FaultStuckBits && m.MaxBits > 1 {
		bits += rng.Intn(m.MaxBits)
	}
	f := flash.Fault{Kind: kind, After: gap, Bits: bits}
	if kind == flash.FaultTransientProgram || kind == flash.FaultTransientErase {
		f.Retries = 1
		if m.MaxRetries > 1 {
			f.Retries += rng.Intn(m.MaxRetries)
		}
	}
	return f
}

// TestFaultMixDrawMatchesCampaignDraw: over random valid mixes (zero
// weights included, at least one positive) and seeds, FaultMix.Draw returns
// the reference draw's fault every time and consumes the same generator
// draws, so the campaign's fault and workload streams are unchanged.
func TestFaultMixDrawMatchesCampaignDraw(t *testing.T) {
	gen := xrand.New(0xD4A3)
	for trial := 0; trial < 200; trial++ {
		var m flash.FaultMix
		for m.PowerLoss+m.StuckBits+m.ReadDisturb+m.TransientProgram+m.TransientErase+m.Retention == 0 {
			m = flash.FaultMix{
				PowerLoss: gen.Intn(6), StuckBits: gen.Intn(3), ReadDisturb: gen.Intn(3),
				TransientProgram: gen.Intn(3), TransientErase: gen.Intn(3), Retention: gen.Intn(3),
				MinGap: gen.Intn(20), MaxBits: gen.Intn(5), MaxRetries: gen.Intn(5),
			}
			m.MaxGap = m.MinGap + gen.Intn(300)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: generated an invalid mix: %v", trial, err)
		}
		seed := gen.Uint64()
		got, want := xrand.New(seed), xrand.New(seed)
		for i := 0; i < 2000; i++ {
			if g, w := m.Draw(got), refDraw(m, want); g != w {
				t.Fatalf("trial %d mix %+v seed %#x draw %d: Draw = %+v, reference %+v", trial, m, seed, i, g, w)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("trial %d mix %+v: generator state diverged after 2000 draws", trial, m)
		}
	}
}

// TestCampaignCheckersReportViolations: a campaign that never records a
// violation proves nothing unless its checkers fire on lost data. Seed a
// store that disagrees with the model in every way a reboot could and
// require each check to report it, with detail strings capped.
func TestCampaignCheckersReportViolations(t *testing.T) {
	cfg := Config{Seed: 1}.withDefaults()
	c := &campaign{
		cfg:   cfg,
		rng:   xrand.New(cfg.Seed),
		model: map[string][]byte{},
		keys:  []string{"a", "b", "c"},
	}
	c.dev = core.MustNewDevice(cfg.Spec)
	c.fl = c.dev.Flash()
	if err := c.mount(); err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "stored"}, {"c", "unacked"}} {
		if err := c.store.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	c.model["a"] = []byte("acked") // the store holds another value
	c.model["b"] = []byte("acked") // the store lost it

	c.checkModel(7) // a and b
	if c.res.ViolationCount != 2 {
		t.Fatalf("checkModel: %d violations, want 2: %v", c.res.ViolationCount, c.res.Violations)
	}
	for _, key := range c.keys { // a mismatches, b is missing, c should not exist
		got, err := c.store.Get(key)
		c.checkKey(7, key, got, err, "get")
	}
	if c.res.ViolationCount != 5 {
		t.Fatalf("checkKey: %d violations, want 5: %v", c.res.ViolationCount, c.res.Violations)
	}
	c.pending = pendingOp{key: "a", val: []byte("pending"), active: true}
	c.resolvePending(7) // "stored" is neither the acked nor the pending value
	if c.res.ViolationCount != 6 {
		t.Fatalf("resolvePending: %d violations, want 6: %v", c.res.ViolationCount, c.res.Violations)
	}
	for i := 0; i < violationCap; i++ {
		c.violation(8, "filler %d", i)
	}
	if len(c.res.Violations) != violationCap || c.res.ViolationCount != 6+violationCap {
		t.Errorf("%d detail strings for %d violations, want %d", len(c.res.Violations), c.res.ViolationCount, violationCap)
	}
}
