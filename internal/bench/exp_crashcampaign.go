package bench

import (
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/faultcampaign"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// CrashCampaignRow is one fault-injection scenario's outcome: a seeded
// campaign of crash/reboot cycles against the key-value store, with the
// recovery invariants checked after every crash. Everything here is
// deterministic — same seed, same numbers, same fingerprint.
type CrashCampaignRow struct {
	Scenario string `json:"scenario"`
	*faultcampaign.Result
}

// CrashCampaignReport is the machine-readable result written to
// BENCH_crashcampaign.json.
type CrashCampaignReport struct {
	Seed   uint64             `json:"seed"`
	Cycles int                `json:"cycles"`
	Rows   []CrashCampaignRow `json:"rows"`
}

// crashCampaignSeed keeps the published artifact reproducible.
const crashCampaignSeed = 0xF1A57

// crashCampaignScenarios are the published configurations: a pure
// brown-out storm against the raw store, a mixed fault diet (power loss +
// stuck bits + read disturb), the same mixed diet through the journaled FTL
// with commit read-back verification on, and a production-shaped store with
// proactive compaction and index checkpointing armed — so power loss lands
// mid-GC and mid-checkpoint, and reboots exercise the O(tail) mount path.
func crashCampaignScenarios(seed uint64, cycles int) []struct {
	name string
	cfg  faultcampaign.Config
} {
	brownout := flash.FaultMix{PowerLoss: 1, MinGap: 0, MaxGap: 60}
	// The compact+ckpt scenario needs room for two 4-page checkpoint slots
	// next to the data log; 32 pages leaves 24 for data, matching the other
	// scenarios' default geometry.
	ckptSpec := flash.DefaultSpec()
	ckptSpec.PageSize = 128
	ckptSpec.NumPages = 32
	ckptSpec.Banks = 1
	return []struct {
		name string
		cfg  faultcampaign.Config
	}{
		{"kvs/power-loss", faultcampaign.Config{Seed: seed, Cycles: cycles, Mix: brownout}},
		{"kvs/mixed", faultcampaign.Config{Seed: seed, Cycles: cycles}},
		{"kvs-on-ftl/mixed", faultcampaign.Config{Seed: seed, Cycles: cycles, UseFTL: true, Verify: true}},
		{"kvs/compact+ckpt", faultcampaign.Config{
			Seed: seed, Cycles: cycles, Spec: ckptSpec,
			Compact: true, CheckpointEvery: 12, CheckpointPages: 4,
		}},
	}
}

// RunCrashCampaign executes every scenario and returns the report.
func RunCrashCampaign(cfg Config) (*CrashCampaignReport, error) {
	cycles := 1000
	if cfg.Quick {
		cycles = 200
	}
	rep := &CrashCampaignReport{Seed: crashCampaignSeed, Cycles: cycles}
	for _, sc := range crashCampaignScenarios(crashCampaignSeed, cycles) {
		res, err := faultcampaign.Run(sc.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		rep.Rows = append(rep.Rows, CrashCampaignRow{Scenario: sc.name, Result: res})
	}
	return rep, nil
}

// Check gates BENCH_crashcampaign.json: every row proved something
// cleanly, and the compact+ckpt row stressed the machinery it exists to
// crash.
func (r *CrashCampaignReport) Check() error {
	sawCkpt := false
	for i, row := range r.Rows {
		if err := checkCampaignRow(i, row.Scenario, row.Result); err != nil {
			return err
		}
		// The compact+ckpt scenario must see GC passes and committed
		// checkpoints under power loss, with reboots restoring from a
		// checkpoint.
		if row.Scenario == "kvs/compact+ckpt" {
			sawCkpt = true
			if err := stressed(i, row.Scenario, counter{"compactions", row.Compactions},
				counter{"checkpoints", row.Checkpoints}, counter{"checkpoint_mounts", row.CheckpointMounts}); err != nil {
				return err
			}
		}
	}
	if !sawCkpt {
		return fmt.Errorf("missing the kvs/compact+ckpt scenario row")
	}
	return nil
}

// checkCampaignRow gates what every campaign row must show: the campaign
// proved something (crashes happened, fingerprint pinned) and proved it
// cleanly (no recovery-invariant violations).
func checkCampaignRow(i int, scenario string, res *faultcampaign.Result) error {
	switch {
	case res == nil:
		return fmt.Errorf("rows[%d] (%s): no campaign result", i, scenario)
	case res.ViolationCount != 0:
		return fmt.Errorf("rows[%d] (%s): %d recovery-invariant violations", i, scenario, res.ViolationCount)
	case res.Crashes == 0:
		return fmt.Errorf("rows[%d] (%s): campaign never crashed", i, scenario)
	case res.Fingerprint == 0:
		return fmt.Errorf("rows[%d] (%s): zero fingerprint", i, scenario)
	}
	return nil
}

// counter is a named campaign count that a scenario must drive above zero.
type counter struct {
	name string
	n    uint64
}

// stressed requires every counter to be nonzero: a scenario that never
// exercised the machinery it exists to crash proves nothing about it.
func stressed(i int, scenario string, cs ...counter) error {
	for _, c := range cs {
		if c.n == 0 {
			return fmt.Errorf("rows[%d] (%s): %s is 0; campaign never stressed it", i, scenario, c.name)
		}
	}
	return nil
}

// ExpCrashCampaign is the registry wrapper: the report as a rendered table.
func ExpCrashCampaign(cfg Config) (*Table, error) {
	rep, err := RunCrashCampaign(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "crashcampaign",
		Title:   "fault-injection campaign: crashes survived and recovery cost",
		Columns: []string{"scenario", "cycles", "crashes", "in-recovery", "fired", "violations", "mean recovery", "recovery energy", "wasted pages", "corrected bits", "fingerprint"},
	}
	for _, row := range rep.Rows {
		t.AddRow(row.Scenario,
			fmt.Sprintf("%d", row.Cycles),
			fmt.Sprintf("%d", row.Crashes),
			fmt.Sprintf("%d", row.CrashesDuringRecovery),
			fmt.Sprintf("%d", row.FaultsFired),
			fmt.Sprintf("%d", row.ViolationCount),
			row.MeanRecoveryBusy.Round(time.Microsecond).String(),
			row.RecoveryEnergy.String(),
			fmt.Sprintf("%d", row.WastedPages),
			fmt.Sprintf("%d", row.CorrectedBits),
			fmt.Sprintf("%016x", row.Fingerprint))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %#x; every scenario replays byte-identically from its seed (the fingerprint pins schedule + stats)", rep.Seed),
		"violations must be 0: every acknowledged key survives every crash exactly, or settles to old/new across the in-flight operation",
		"recovery cost is flash busy time and energy spent remounting (ftl journal replay + kvs index scan) after each crash")
	return t, nil
}
