package bench

import (
	"encoding/json"
	"fmt"
)

// Artifact schema validation. The BENCH_*.json files committed at the repo
// root are the machine-readable results other tooling (CI, dashboards,
// regression diffing) consumes; this file is the contract that keeps them
// from drifting silently. ValidateArtifact checks both shape (required
// fields, right types) and the cross-field invariants each artifact exists
// to witness — a crash campaign with violations or a lifetime report whose
// managed configuration is not at least 2× the unmanaged baseline is not a
// valid artifact, whatever its JSON looks like.

// artifactSchemas maps the artifact file stem (e.g. "writepath" for
// BENCH_writepath.json) to its validator.
var artifactSchemas = map[string]func(doc map[string]any) error{
	"writepath":     validateWritePath,
	"crashcampaign": validateCrashCampaign,
	"transient":     validateTransient,
	"lifetime":      validateLifetime,
	"encode":        validateEncode,
	"kvscale":       validateKVScale,
	"inflash":       validateInflash,
}

// ArtifactKinds lists every artifact stem a repo checkout is expected to
// carry, in a stable order.
func ArtifactKinds() []string {
	return []string{"writepath", "crashcampaign", "transient", "lifetime", "encode", "kvscale", "inflash"}
}

// ValidateArtifact parses data as the named artifact kind (a stem from
// ArtifactKinds) and checks schema plus invariants.
func ValidateArtifact(kind string, data []byte) error {
	fn, ok := artifactSchemas[kind]
	if !ok {
		return fmt.Errorf("unknown artifact kind %q", kind)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", kind, err)
	}
	if err := fn(doc); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	return nil
}

// num extracts a required numeric field.
func num(doc map[string]any, key string) (float64, error) {
	v, ok := doc[key]
	if !ok {
		return 0, fmt.Errorf("missing field %q", key)
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("field %q is %T, want number", key, v)
	}
	return f, nil
}

// rows extracts the required non-empty "rows" array of objects.
func rows(doc map[string]any) ([]map[string]any, error) {
	v, ok := doc["rows"]
	if !ok {
		return nil, fmt.Errorf("missing field %q", "rows")
	}
	arr, ok := v.([]any)
	if !ok || len(arr) == 0 {
		return nil, fmt.Errorf("field %q must be a non-empty array", "rows")
	}
	out := make([]map[string]any, len(arr))
	for i, e := range arr {
		m, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("rows[%d] is %T, want object", i, e)
		}
		out[i] = m
	}
	return out, nil
}

// requireNums checks that every listed field of every row is a number.
func requireNums(rs []map[string]any, fields ...string) error {
	for i, r := range rs {
		for _, f := range fields {
			if _, err := num(r, f); err != nil {
				return fmt.Errorf("rows[%d]: %w", i, err)
			}
		}
	}
	return nil
}

func validateWritePath(doc map[string]any) error {
	banks, err := num(doc, "banks")
	if err != nil {
		return err
	}
	rs, err := rows(doc)
	if err != nil {
		return err
	}
	if err := requireNums(rs, "workers", "ops", "device_ops_per_sec", "speedup_vs_1_worker"); err != nil {
		return err
	}
	// Invariant: the tentpole claim — at `banks` workers the device-time
	// speedup over 1 worker is at least 2×.
	found := false
	for _, r := range rs {
		w, _ := num(r, "workers")
		if w != banks {
			continue
		}
		sp, _ := num(r, "speedup_vs_1_worker")
		if sp < 2 {
			return fmt.Errorf("speedup at %d workers is %.2f, want >= 2", int(banks), sp)
		}
		found = true
		break
	}
	if !found {
		return fmt.Errorf("no row with workers == banks (%d)", int(banks))
	}
	return validateHostScaling(doc)
}

// validateHostScaling checks the host-throughput section: every row names
// a known mode and carries its figures, and every mode runs allocation-free.
func validateHostScaling(doc map[string]any) error {
	v, ok := doc["host_scaling"]
	if !ok {
		return fmt.Errorf("missing field %q", "host_scaling")
	}
	arr, ok := v.([]any)
	if !ok || len(arr) == 0 {
		return fmt.Errorf("field %q must be a non-empty array", "host_scaling")
	}
	for i, e := range arr {
		r, ok := e.(map[string]any)
		if !ok {
			return fmt.Errorf("host_scaling[%d] is %T, want object", i, e)
		}
		mode, ok := r["mode"].(string)
		if !ok {
			return fmt.Errorf("host_scaling[%d]: missing mode", i)
		}
		if mode != "serial" && mode != "concurrent" && mode != "async" {
			return fmt.Errorf("host_scaling[%d]: unknown mode %q", i, mode)
		}
		for _, f := range []string{"banks", "workers", "ops", "ns_per_op", "ops_per_sec", "allocs_per_op", "host_speedup"} {
			if _, err := num(r, f); err != nil {
				return fmt.Errorf("host_scaling[%d] (%s): %w", i, mode, err)
			}
		}
		// The steady-state commit paths are pooled end to end; any
		// per-op allocation is a regression.
		if allocs, _ := num(r, "allocs_per_op"); allocs > 0.5 {
			banks, _ := num(r, "banks")
			return fmt.Errorf("host_scaling[%d] (%s, %d banks): %.2f allocs/op, want ~0", i, mode, int(banks), allocs)
		}
	}
	return nil
}

func validateEncode(doc map[string]any) error {
	for _, f := range []string{"seed", "span_bytes", "e2e_ops", "e2e_scalar_ns_per_op", "e2e_kernel_ns_per_op", "e2e_speedup",
		"e2e_mlc_ops", "e2e_mlc_scalar_ns_per_op", "e2e_mlc_kernel_ns_per_op", "e2e_mlc_speedup"} {
		if _, err := num(doc, f); err != nil {
			return err
		}
	}
	// Invariant: the speedup claim is void unless both paths computed
	// identical outputs and identical controller statistics.
	match, ok := doc["stats_match"].(bool)
	if !ok {
		return fmt.Errorf("missing stats_match flag")
	}
	if !match {
		return fmt.Errorf("kernel and scalar paths diverged; artifact is invalid")
	}
	rs, err := rows(doc)
	if err != nil {
		return err
	}
	if err := requireNums(rs, "width_bits", "values", "scalar_ns_per_value", "kernel_ns_per_value", "speedup"); err != nil {
		return err
	}
	// Invariants: the tentpole claims — at least one n-bit micro row shows
	// a ≥3× kernel speedup, at least one n-cell (MLC) micro row shows ≥5×
	// — and neither end-to-end write path regressed, with the MLC path
	// (scalar-only before the cell kernels) at least doubled.
	bestNBit, bestNCell := 0.0, 0.0
	for i, r := range rs {
		fam, ok := r["family"].(string)
		if !ok {
			return fmt.Errorf("rows[%d]: missing family name", i)
		}
		if _, ok := r["encoder"].(string); !ok {
			return fmt.Errorf("rows[%d]: missing encoder name", i)
		}
		sp, _ := num(r, "speedup")
		if fam == "nbit" && sp > bestNBit {
			bestNBit = sp
		}
		if fam == "ncell" && sp > bestNCell {
			bestNCell = sp
		}
	}
	if bestNBit < 3 {
		return fmt.Errorf("best n-bit kernel speedup is %.2f, want >= 3", bestNBit)
	}
	if bestNCell < 5 {
		return fmt.Errorf("best n-cell kernel speedup is %.2f, want >= 5", bestNCell)
	}
	if e2e, _ := num(doc, "e2e_speedup"); e2e < 1 {
		return fmt.Errorf("end-to-end write path regressed: e2e_speedup %.2f < 1", e2e)
	}
	if mlc, _ := num(doc, "e2e_mlc_speedup"); mlc < 2 {
		return fmt.Errorf("end-to-end MLC write path speedup %.2f, want >= 2", mlc)
	}
	return nil
}

func validateCrashCampaign(doc map[string]any) error {
	if _, err := num(doc, "seed"); err != nil {
		return err
	}
	rs, err := rows(doc)
	if err != nil {
		return err
	}
	if err := requireNums(rs, "cycles", "crashes", "faults_fired", "violation_count", "fingerprint"); err != nil {
		return err
	}
	fps := map[string]float64{}
	sawCkpt := false
	for i, r := range rs {
		scenario, ok := r["scenario"].(string)
		if !ok {
			return fmt.Errorf("rows[%d]: missing scenario name", i)
		}
		// Invariants: the campaign proved something (crashes happened,
		// fingerprint pinned) and proved it cleanly (no violations).
		if v, _ := num(r, "violation_count"); v != 0 {
			return fmt.Errorf("rows[%d] (%s): %v recovery-invariant violations", i, r["scenario"], v)
		}
		if c, _ := num(r, "crashes"); c == 0 {
			return fmt.Errorf("rows[%d] (%s): campaign never crashed", i, r["scenario"])
		}
		fp, _ := num(r, "fingerprint")
		if fp == 0 {
			return fmt.Errorf("rows[%d] (%s): zero fingerprint", i, r["scenario"])
		}
		fps[scenario] = fp
		// Invariant: the compact+ckpt scenario must actually exercise the
		// machinery it exists to crash — GC passes and committed checkpoints
		// under power loss, with reboots restoring from a checkpoint.
		if scenario == "kvs/compact+ckpt" {
			sawCkpt = true
			for _, f := range []string{"compactions", "checkpoints", "checkpoint_mounts"} {
				v, err := num(r, f)
				if err != nil {
					return fmt.Errorf("rows[%d] (%s): %w", i, scenario, err)
				}
				if v == 0 {
					return fmt.Errorf("rows[%d] (%s): %s is 0; campaign never stressed it", i, scenario, f)
				}
			}
		}
	}
	if !sawCkpt {
		return fmt.Errorf("missing the kvs/compact+ckpt scenario row")
	}
	// Invariant: the async commit pipeline replays the synchronous campaign
	// byte for byte — same seed, same fault schedule, same fingerprint.
	if syncFP, ok := fps["kvs/mixed"]; ok {
		if asyncFP, ok := fps["kvs/mixed+async"]; ok && asyncFP != syncFP {
			return fmt.Errorf("kvs/mixed+async fingerprint %v != kvs/mixed %v; async pipeline perturbed the campaign", asyncFP, syncFP)
		}
	}
	return nil
}

func validateTransient(doc map[string]any) error {
	if _, err := num(doc, "seed"); err != nil {
		return err
	}
	rs, err := rows(doc)
	if err != nil {
		return err
	}
	if err := requireNums(rs, "cycles", "crashes", "faults_fired", "violation_count",
		"fingerprint", "recovery_rate"); err != nil {
		return err
	}
	fps := map[string]float64{}
	sawExhaust := false
	for i, r := range rs {
		scenario, ok := r["scenario"].(string)
		if !ok {
			return fmt.Errorf("rows[%d]: missing scenario name", i)
		}
		if v, _ := num(r, "violation_count"); v != 0 {
			return fmt.Errorf("rows[%d] (%s): %v recovery-invariant violations", i, scenario, v)
		}
		if c, _ := num(r, "crashes"); c == 0 {
			return fmt.Errorf("rows[%d] (%s): campaign never crashed", i, scenario)
		}
		fp, _ := num(r, "fingerprint")
		if fp == 0 {
			return fmt.Errorf("rows[%d] (%s): zero fingerprint", i, scenario)
		}
		fps[scenario] = fp
		// Every scenario must actually inject transients and save writes.
		for _, f := range []string{"transient_program_armed", "retry_saves"} {
			v, err := num(r, f)
			if err != nil {
				return fmt.Errorf("rows[%d] (%s): %w", i, scenario, err)
			}
			if v == 0 {
				return fmt.Errorf("rows[%d] (%s): %s is 0; campaign never stressed it", i, scenario, f)
			}
		}
		if scenario == "kvs/transient-exhaust" {
			sawExhaust = true
			// Invariant: the under-budgeted scenario exercises retirement.
			v, err := num(r, "retry_retired")
			if err != nil {
				return fmt.Errorf("rows[%d] (%s): %w", i, scenario, err)
			}
			if v == 0 {
				return fmt.Errorf("rows[%d] (%s): no incident exhausted the retry budget", i, scenario)
			}
		} else {
			// Invariant: the retry policy recovers at least 90% of injected
			// transient failures without retiring a page.
			if rate, _ := num(r, "recovery_rate"); rate < 0.9 {
				return fmt.Errorf("rows[%d] (%s): recovery rate %.2f, want >= 0.9", i, scenario, rate)
			}
		}
		// Retention rows must age cells and exercise the hardened read path.
		if scenario == "kvs/transient+retention" || scenario == "kvs/transient+retention+async" {
			for _, f := range []string{"retention_aged", "sense_retries"} {
				v, err := num(r, f)
				if err != nil {
					return fmt.Errorf("rows[%d] (%s): %w", i, scenario, err)
				}
				if v == 0 {
					return fmt.Errorf("rows[%d] (%s): %s is 0; campaign never stressed it", i, scenario, f)
				}
			}
		}
	}
	if !sawExhaust {
		return fmt.Errorf("missing the kvs/transient-exhaust scenario row")
	}
	// Invariant: retry backoffs and retention aging are charged per bank in
	// issue order, so the async pipeline replays each sync twin byte for byte.
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
			return fmt.Errorf("%s fingerprint %v != %s %v; async pipeline perturbed the campaign",
				pair[1], asyncFP, pair[0], syncFP)
		}
	}
	return nil
}

func validateKVScale(doc map[string]any) error {
	for _, f := range []string{"seed", "page_size", "value_size", "hot_key_frac", "hot_op_frac"} {
		if _, err := num(doc, f); err != nil {
			return err
		}
	}
	rs, err := rows(doc)
	if err != nil {
		return err
	}
	if err := requireNums(rs, "keys", "data_pages", "slot_pages", "ops", "ops_per_sec",
		"compactions", "checkpoints", "live_bytes", "used_bytes", "space_amp",
		"scan_mount_device_ms", "ckpt_mount_device_ms", "mount_speedup",
		"tail_pages_replayed"); err != nil {
		return err
	}
	maxKeys, speedupAtMax := 0.0, 0.0
	for i, r := range rs {
		// Invariants per row: the workload actually forced GC and committed
		// checkpoints, amplification stayed under the 2.0 gate, and the
		// checkpointed mount beat the scan at all.
		if c, _ := num(r, "compactions"); c == 0 {
			return fmt.Errorf("rows[%d]: compactions is 0; workload never forced GC", i)
		}
		if c, _ := num(r, "checkpoints"); c < 1 {
			return fmt.Errorf("rows[%d]: no checkpoint committed", i)
		}
		amp, _ := num(r, "space_amp")
		if amp < 1 || amp > 2.0 {
			return fmt.Errorf("rows[%d]: space_amp %.2f outside [1, 2.0]", i, amp)
		}
		sp, _ := num(r, "mount_speedup")
		if sp <= 1 {
			return fmt.Errorf("rows[%d]: mount_speedup %.2f; checkpointed mount did not beat the scan", i, sp)
		}
		if k, _ := num(r, "keys"); k > maxKeys {
			maxKeys, speedupAtMax = k, sp
		}
	}
	// Invariant: the tentpole claim — at the largest key count the
	// checkpointed mount is at least 10× faster (device time) than the scan.
	if speedupAtMax < 10 {
		return fmt.Errorf("mount_speedup at %d keys is %.2f, want >= 10", int(maxKeys), speedupAtMax)
	}
	return nil
}

func validateInflash(doc map[string]any) error {
	for _, f := range []string{"seed", "page_size", "banks", "keys", "buckets", "value_size",
		"stale_updates", "samples", "sample_width"} {
		if _, err := num(doc, f); err != nil {
			return err
		}
	}
	rs, err := rows(doc)
	if err != nil {
		return err
	}
	if err := requireNums(rs, "selectivity_pct", "matches", "candidates", "false_positives",
		"senses", "pages_sensed", "scan_energy_uj", "host_energy_uj", "energy_x",
		"scan_device_ms", "host_device_ms", "time_x"); err != nil {
		return err
	}
	stale := 0.0
	for i, r := range rs {
		if _, ok := r["predicate"].(string); !ok {
			return fmt.Errorf("rows[%d]: missing predicate", i)
		}
		// Invariant: the pushdown path returned exactly the host-scan results
		// — the speedup claim is void on a path that loses or invents matches.
		eq, ok := r["equal"].(bool)
		if !ok {
			return fmt.Errorf("rows[%d]: missing equal flag", i)
		}
		if !eq {
			return fmt.Errorf("rows[%d] (%v): pushdown and host scans diverged", i, r["predicate"])
		}
		if s, _ := num(r, "senses"); s == 0 {
			return fmt.Errorf("rows[%d] (%v): no senses; the scan was not served in-flash", i, r["predicate"])
		}
		m, _ := num(r, "matches")
		c, _ := num(r, "candidates")
		if c < m {
			return fmt.Errorf("rows[%d] (%v): %v candidates for %v matches; the plan was not a superset", i, r["predicate"], c, m)
		}
		sel, _ := num(r, "selectivity_pct")
		ex, _ := num(r, "energy_x")
		// Invariants: the tentpole claim — at least a 3× device-energy win at
		// selective queries, and never a regression even at 50%.
		if sel <= 10 && ex < 3 {
			return fmt.Errorf("rows[%d]: energy_x %.2f at %.0f%% selectivity, want >= 3", i, ex, sel)
		}
		if ex <= 1 {
			return fmt.Errorf("rows[%d]: energy_x %.2f; pushdown costs more than reading everything", i, ex)
		}
		fp, _ := num(r, "false_positives")
		stale += fp
	}
	// Invariant: the workload re-bucketed keys, so stale index bits must have
	// surfaced (and been filtered) somewhere — else the soundness machinery
	// under test never ran.
	if stale == 0 {
		return fmt.Errorf("no stale-bit false positives across rows; the re-check path went unexercised")
	}
	v, ok := doc["approx"]
	if !ok {
		return fmt.Errorf("missing field %q", "approx")
	}
	arr, ok := v.([]any)
	if !ok || len(arr) == 0 {
		return fmt.Errorf("field %q must be a non-empty array", "approx")
	}
	for i, e := range arr {
		r, ok := e.(map[string]any)
		if !ok {
			return fmt.Errorf("approx[%d] is %T, want object", i, e)
		}
		for _, f := range []string{"tol", "queries", "exact_matches", "candidates", "missed",
			"max_err", "err_budget", "updates", "rejected", "base_update_uj", "flip_update_uj",
			"update_energy_x", "base_query_uj", "flip_query_uj", "query_energy_x",
			"base_erases", "flip_erases"} {
			if _, err := num(r, f); err != nil {
				return fmt.Errorf("approx[%d]: %w", i, err)
			}
		}
		// Invariants: bounded-error search — no intended reading missed, the
		// observed error inside its budget, refreshes erase-free, and both
		// energy comparisons in FlipBit's favour.
		if m, _ := num(r, "missed"); m != 0 {
			return fmt.Errorf("approx[%d]: %v intended readings missed; the widened window lost matches", i, m)
		}
		me, _ := num(r, "max_err")
		eb, _ := num(r, "err_budget")
		if me > eb {
			return fmt.Errorf("approx[%d]: max_err %v exceeds budget %v", i, me, eb)
		}
		if fe, _ := num(r, "flip_erases"); fe != 0 {
			return fmt.Errorf("approx[%d]: %v erases on the erase-free refresh path", i, fe)
		}
		if ux, _ := num(r, "update_energy_x"); ux < 5 {
			return fmt.Errorf("approx[%d]: update_energy_x %.2f, want >= 5", i, ux)
		}
		if qx, _ := num(r, "query_energy_x"); qx <= 1 {
			return fmt.Errorf("approx[%d]: query_energy_x %.2f; in-flash search did not beat read-all", i, qx)
		}
	}
	return nil
}

func validateLifetime(doc map[string]any) error {
	for _, f := range []string{"seed", "endurance_cycles", "page_size", "num_pages", "spares"} {
		if _, err := num(doc, f); err != nil {
			return err
		}
	}
	rs, err := rows(doc)
	if err != nil {
		return err
	}
	if err := requireNums(rs, "writes_to_first_loss", "lifetime_x", "erases", "max_wear"); err != nil {
		return err
	}
	var sawUnmanaged, sawManaged bool
	for i, r := range rs {
		cfg, ok := r["config"].(string)
		if !ok {
			return fmt.Errorf("rows[%d]: missing config name", i)
		}
		lost, ok := r["data_lost"].(bool)
		if !ok {
			return fmt.Errorf("rows[%d] (%s): missing data_lost flag", i, cfg)
		}
		x, _ := num(r, "lifetime_x")
		switch cfg {
		case "unmanaged":
			sawUnmanaged = true
			if x != 1 {
				return fmt.Errorf("unmanaged lifetime_x = %v, want 1 (it is the baseline)", x)
			}
		default:
			sawManaged = true
			// The acceptance invariants: managed configurations at least
			// double writes-to-first-loss and never lose acknowledged data.
			if x < 2 {
				return fmt.Errorf("%s lifetime_x = %v, want >= 2", cfg, x)
			}
			if lost {
				return fmt.Errorf("%s lost acknowledged data; managed end of life must be a clean refusal", cfg)
			}
		}
	}
	if !sawUnmanaged || !sawManaged {
		return fmt.Errorf("need both an unmanaged baseline row and a managed row")
	}
	return validateLifetimeDensity(doc)
}

// validateLifetimeDensity checks the cell-density sweep: one row per cell
// mode, each with a sane capacity multiplier (exactly its bits per cell), a
// derated endurance rating, and a workload that actually survived some
// writes before first loss.
func validateLifetimeDensity(doc map[string]any) error {
	v, ok := doc["density"]
	if !ok {
		return fmt.Errorf("missing field %q", "density")
	}
	arr, ok := v.([]any)
	if !ok || len(arr) == 0 {
		return fmt.Errorf("field %q must be a non-empty array", "density")
	}
	cells := map[string]bool{}
	for i, e := range arr {
		r, ok := e.(map[string]any)
		if !ok {
			return fmt.Errorf("density[%d] is %T, want object", i, e)
		}
		cell, ok := r["cell"].(string)
		if !ok {
			return fmt.Errorf("density[%d]: missing cell name", i)
		}
		if _, ok := r["encoder"].(string); !ok {
			return fmt.Errorf("density[%d] (%s): missing encoder name", i, cell)
		}
		if _, ok := r["data_lost"].(bool); !ok {
			return fmt.Errorf("density[%d] (%s): missing data_lost flag", i, cell)
		}
		for _, f := range []string{"bits_per_cell", "capacity_x", "endurance_cycles",
			"writes_to_first_loss", "mae", "erases", "max_wear"} {
			if _, err := num(r, f); err != nil {
				return fmt.Errorf("density[%d] (%s): %w", i, cell, err)
			}
		}
		bits, _ := num(r, "bits_per_cell")
		capx, _ := num(r, "capacity_x")
		if capx != bits {
			return fmt.Errorf("density[%d] (%s): capacity_x %v != bits_per_cell %v", i, cell, capx, bits)
		}
		if e, _ := num(r, "endurance_cycles"); e < 1 {
			return fmt.Errorf("density[%d] (%s): endurance_cycles %v, want >= 1", i, cell, e)
		}
		if w, _ := num(r, "writes_to_first_loss"); w <= 0 {
			return fmt.Errorf("density[%d] (%s): writes_to_first_loss %v; the workload never survived a write", i, cell, w)
		}
		cells[cell] = true
	}
	for _, c := range []string{"SLC", "MLC", "TLC"} {
		if !cells[c] {
			return fmt.Errorf("density sweep missing a %s row", c)
		}
	}
	return nil
}
