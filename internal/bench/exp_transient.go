package bench

import (
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/faultcampaign"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// TransientRow is one transient-fault scenario's outcome: a seeded campaign
// where program/erase verify failures are absorbed by the core retry
// budget, retention drift ages cells between reboots, and the hardened
// read path re-senses flicker. Deterministic like every campaign row.
type TransientRow struct {
	Scenario string `json:"scenario"`
	// RecoveryRate is the fraction of transient incidents the retry policy
	// absorbed without retiring a page: saves / (saves + retired).
	RecoveryRate float64 `json:"recovery_rate"`
	*faultcampaign.Result
}

// TransientReport is the machine-readable result written to
// BENCH_transient.json.
type TransientReport struct {
	Seed   uint64         `json:"seed"`
	Cycles int            `json:"cycles"`
	Rows   []TransientRow `json:"rows"`
}

// transientSeed keeps the published artifact reproducible.
const transientSeed = 0xF1A58

// transientScenarios are the published configurations. The first four arm
// a retry budget that covers the worst incident (Retry >= Mix.MaxRetries),
// so every verify failure recovers without retirement — that is the >= 90%
// recovery invariant the artifact witnesses. The exhaust scenario inverts
// the budget (Retry 1 against incidents up to 4 failures) so retirement
// machinery is exercised too; it stays program-only because a torn erase
// that outlasts the budget legitimately destroys the page image, which is
// the FTL's remap territory, not the raw store's.
func transientScenarios(seed uint64, cycles int) []struct {
	name string
	cfg  faultcampaign.Config
} {
	transient := flash.FaultMix{
		PowerLoss: 4, TransientProgram: 3, TransientErase: 1,
		MinGap: 0, MaxGap: 250, MaxRetries: 3,
	}
	retention := transient
	retention.Retention = 2
	exhaust := flash.FaultMix{
		PowerLoss: 2, TransientProgram: 4,
		MinGap: 0, MaxGap: 150, MaxRetries: 4,
	}
	return []struct {
		name string
		cfg  faultcampaign.Config
	}{
		{"kvs/transient", faultcampaign.Config{
			Seed: seed, Cycles: cycles, Retry: 3, Mix: transient,
		}},
		{"kvs/transient+async", faultcampaign.Config{
			Seed: seed, Cycles: cycles, Retry: 3, Mix: transient, AsyncCommit: 8,
		}},
		{"kvs/transient+retention", faultcampaign.Config{
			Seed: seed, Cycles: cycles, Retry: 3, Mix: retention,
			RetentionEvery: 2 * time.Millisecond, Scrub: true,
		}},
		{"kvs/transient+retention+async", faultcampaign.Config{
			Seed: seed, Cycles: cycles, Retry: 3, Mix: retention,
			RetentionEvery: 2 * time.Millisecond, Scrub: true, AsyncCommit: 8,
		}},
		{"kvs/transient-exhaust", faultcampaign.Config{
			Seed: seed, Cycles: cycles, Retry: 1, Mix: exhaust,
		}},
	}
}

// RunTransient executes every scenario and returns the report.
func RunTransient(cfg Config) (*TransientReport, error) {
	cycles := 1000
	if cfg.Quick {
		cycles = 200
	}
	rep := &TransientReport{Seed: transientSeed, Cycles: cycles}
	for _, sc := range transientScenarios(transientSeed, cycles) {
		res, err := faultcampaign.Run(sc.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		rate := 1.0
		if n := res.RetrySaves + res.RetryRetired; n > 0 {
			rate = float64(res.RetrySaves) / float64(n)
		}
		rep.Rows = append(rep.Rows, TransientRow{Scenario: sc.name, RecoveryRate: rate, Result: res})
	}
	return rep, nil
}

// Check gates BENCH_transient.json: every row proved something cleanly
// and actually injected transients and saved writes; the retry policy
// recovers at least 90% of injected failures without retiring a page,
// except in the under-budgeted exhaust row, which must retire; retention
// rows age cells and exercise the hardened read path; and since retry
// backoffs and retention aging are charged per bank in issue order, each
// async row replays its sync twin byte for byte.
func (r *TransientReport) Check() error {
	fps := map[string]uint64{}
	sawExhaust := false
	for i, row := range r.Rows {
		if err := checkCampaignRow(i, row.Scenario, row.Result); err != nil {
			return err
		}
		fps[row.Scenario] = row.Fingerprint
		if err := stressed(i, row.Scenario, counter{"transient_program_armed", uint64(row.TransientProgramArmed)},
			counter{"retry_saves", row.RetrySaves}); err != nil {
			return err
		}
		switch row.Scenario {
		case "kvs/transient-exhaust":
			sawExhaust = true
			if row.RetryRetired == 0 {
				return fmt.Errorf("rows[%d] (%s): no incident exhausted the retry budget", i, row.Scenario)
			}
		default:
			if row.RecoveryRate < 0.9 {
				return fmt.Errorf("rows[%d] (%s): recovery rate %.2f, want >= 0.9", i, row.Scenario, row.RecoveryRate)
			}
		}
		if row.Scenario == "kvs/transient+retention" || row.Scenario == "kvs/transient+retention+async" {
			if err := stressed(i, row.Scenario, counter{"retention_aged", row.RetentionAged},
				counter{"sense_retries", row.SenseRetries}); err != nil {
				return err
			}
		}
	}
	if !sawExhaust {
		return fmt.Errorf("missing the kvs/transient-exhaust scenario row")
	}
	for _, pair := range [][2]string{
		{"kvs/transient", "kvs/transient+async"},
		{"kvs/transient+retention", "kvs/transient+retention+async"},
	} {
		syncFP, ok := fps[pair[0]]
		if !ok {
			return fmt.Errorf("missing the %s scenario row", pair[0])
		}
		asyncFP, ok := fps[pair[1]]
		if !ok {
			return fmt.Errorf("missing the %s scenario row", pair[1])
		}
		if syncFP != asyncFP {
			return fmt.Errorf("%s fingerprint %d != %s %d; async pipeline perturbed the campaign",
				pair[1], asyncFP, pair[0], syncFP)
		}
	}
	return nil
}

// ExpTransient is the registry wrapper: the report as a rendered table.
func ExpTransient(cfg Config) (*Table, error) {
	rep, err := RunTransient(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "transient",
		Title:   "transient faults: writes saved by retry, pages retired, retention repair",
		Columns: []string{"scenario", "cycles", "crashes", "violations", "retry saves", "retired", "recovery", "aged", "re-senses", "sense ok", "fingerprint"},
	}
	for _, row := range rep.Rows {
		t.AddRow(row.Scenario,
			fmt.Sprintf("%d", row.Cycles),
			fmt.Sprintf("%d", row.Crashes),
			fmt.Sprintf("%d", row.ViolationCount),
			fmt.Sprintf("%d", row.RetrySaves),
			fmt.Sprintf("%d", row.RetryRetired),
			pct(row.RecoveryRate),
			fmt.Sprintf("%d", row.RetentionAged),
			fmt.Sprintf("%d", row.SenseRetries),
			fmt.Sprintf("%d", row.SenseRecovered),
			fmt.Sprintf("%016x", row.Fingerprint))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %#x; every scenario replays byte-identically, and the async rows must fingerprint-match their sync twins", rep.Seed),
		"with Retry >= MaxRetries the retry policy must absorb every verify failure (recovery 100%, nothing retired)",
		"the exhaust scenario under-budgets retries on purpose: incidents outlasting the budget retire the page via the health gate",
		"retention rows age marginal cells at every reboot; re-senses (plus margin-aware senses) keep flickering records readable")
	return t, nil
}
