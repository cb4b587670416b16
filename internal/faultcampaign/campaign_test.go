package faultcampaign

import (
	"reflect"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/flash"
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

// TestCampaignScrub: the scrubber runs a deterministic pass every cycle
// through the FTL's crash-consistent refresh/retire hooks while power
// losses and wear faults fire — including mid-scrub. Determinism must hold
// with the scrubber armed, and no acked data may be lost.
func TestCampaignScrub(t *testing.T) {
	cfg := Config{
		Seed:       42,
		Cycles:     400,
		UseFTL:     true,
		Verify:     true,
		Spares:     2,
		Scrub:      true,
		ScrubPages: 4,
		Mix: flash.FaultMix{
			PowerLoss: 4, StuckBits: 4, ReadDisturb: 2,
			MinGap: 0, MaxGap: 300, MaxBits: 6,
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
	if a.ScrubAbsorbed+a.ScrubRefreshed == 0 {
		t.Error("scrubber never acted on drift; fault mix too gentle")
	}
	t.Logf("scrub: sampled=%d absorbed=%d refreshed=%d retired=%d errors=%d ftlRefreshes=%d",
		a.ScrubSampled, a.ScrubAbsorbed, a.ScrubRefreshed, a.ScrubRetired,
		a.ScrubErrors, a.FTLRefreshes)

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

// TestCampaignNegativeMixRejected: schedule construction validates weights,
// so a negative weight surfaces as an error from Run, not a panic or a
// skewed draw.
func TestCampaignNegativeMixRejected(t *testing.T) {
	_, err := Run(Config{
		Seed: 1, Cycles: 10,
		Mix: flash.FaultMix{PowerLoss: -1, StuckBits: 2, MaxGap: 50},
	})
	if err == nil {
		t.Fatal("negative fault weight accepted")
	}
}
