package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/faultcampaign"
)

// committedArtifact reads BENCH_<kind>.json from the repo root.
func committedArtifact(t *testing.T, kind string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+kind+".json"))
	if err != nil {
		t.Fatalf("artifact missing: %v", err)
	}
	return data
}

// TestCommittedArtifacts validates every BENCH_*.json checked in at the repo
// root against its report type and invariants. CI runs this so a
// hand-edited or stale artifact cannot land silently.
func TestCommittedArtifacts(t *testing.T) {
	for _, a := range Artifacts() {
		t.Run(a.Kind, func(t *testing.T) {
			if err := ValidateArtifact(a.Kind, committedArtifact(t, a.Kind)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestArtifactsRegenerateIdentically runs every artifact's experiment twice
// and requires byte-identical output: a committed artifact holds only
// figures the simulator determines, never host timings, so CI can diff a
// fresh run against the committed copy.
func TestArtifactsRegenerateIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every artifact experiment twice; skipped in -short")
	}
	for _, a := range Artifacts() {
		t.Run(a.Kind, func(t *testing.T) {
			var out [2]bytes.Buffer
			for i := range out {
				rep, err := a.Run(quick)
				if err != nil {
					t.Fatal(err)
				}
				if err := WriteArtifact(&out[i], rep); err != nil {
					t.Fatal(err)
				}
			}
			first, second := strings.Split(out[0].String(), "\n"), strings.Split(out[1].String(), "\n")
			for i := range min(len(first), len(second)) {
				if first[i] != second[i] {
					t.Fatalf("two runs differ at line %d:\n%s\n%s", i+1, first[i], second[i])
				}
			}
			if len(first) != len(second) {
				t.Fatalf("two runs differ in length: %d vs %d lines", len(first), len(second))
			}
		})
	}
}

// mutate adapts a mutation of one report type to the Report interface.
func mutate[R Report](f func(R)) func(Report) {
	return func(r Report) { f(r.(R)) }
}

// crashRow finds a scenario's campaign result.
func crashRow(r *CrashCampaignReport, scenario string) *faultcampaign.Result {
	for _, row := range r.Rows {
		if row.Scenario == scenario {
			return row.Result
		}
	}
	return nil
}

// TestValidateArtifactRejects breaks each invariant of a committed artifact
// once and requires validation to fail. Typed cases mutate the decoded
// report, which must then fail its own Check — not only the re-encode
// comparison — and be rejected once re-encoded; raw cases edit the
// committed bytes, for the faults a typed report cannot express.
func TestValidateArtifactRejects(t *testing.T) {
	typed := []struct {
		name   string
		kind   string
		mutate func(Report)
	}{
		{"empty rows", "lifetime", mutate(func(r *LifetimeReport) { r.Rows = r.Rows[:0] })},
		{"lifetime missing baseline", "lifetime", mutate(func(r *LifetimeReport) {
			r.Rows = slices.DeleteFunc(r.Rows, func(row LifetimeRow) bool { return row.Config == "unmanaged" })
		})},
		{"lifetime ratio below 2x", "lifetime", mutate(func(r *LifetimeReport) { r.Rows[1].LifetimeX = 1.5 })},
		{"lifetime managed lost data", "lifetime", mutate(func(r *LifetimeReport) { r.Rows[1].DataLost = true })},
		{"campaign with violations", "crashcampaign", mutate(func(r *CrashCampaignReport) { r.Rows[0].ViolationCount = 1 })},
		{"campaign never crashed", "crashcampaign", mutate(func(r *CrashCampaignReport) { r.Rows[0].Crashes = 0 })},
		{"writepath below 2x at banks", "writepath", mutate(func(r *WritePathReport) {
			for i := range r.Rows {
				if r.Rows[i].Workers == r.Banks {
					r.Rows[i].Speedup = 1.5
				}
			}
		})},
		{"encode stats mismatch", "encode", mutate(func(r *EncodeKernelReport) { r.StatsMatch = false })},
		{"campaign missing compact+ckpt scenario", "crashcampaign", mutate(func(r *CrashCampaignReport) {
			r.Rows = slices.DeleteFunc(r.Rows, func(row CrashCampaignRow) bool { return row.Scenario == "kvs/compact+ckpt" })
		})},
		{"transient missing retention scenario", "transient", mutate(func(r *TransientReport) {
			r.Rows = slices.DeleteFunc(r.Rows, func(row TransientRow) bool { return row.Scenario == "kvs/transient+retention" })
		})},
		{"campaign compact+ckpt never compacted", "crashcampaign", mutate(func(r *CrashCampaignReport) {
			crashRow(r, "kvs/compact+ckpt").Compactions = 0
		})},
		{"kvscale speedup below 10x at max keys", "kvscale", mutate(func(r *KVScaleReport) { r.Rows[len(r.Rows)-1].MountSpeedup = 8 })},
		{"kvscale amplification above gate", "kvscale", mutate(func(r *KVScaleReport) { r.Rows[0].SpaceAmp = 2.5 })},
		{"kvscale never compacted", "kvscale", mutate(func(r *KVScaleReport) { r.Rows[0].Compactions = 0 })},
		{"inflash pushdown diverged from host", "inflash", mutate(func(r *InflashReport) { r.Rows[0].Equal = false })},
		{"inflash below 3x at selective query", "inflash", mutate(func(r *InflashReport) { r.Rows[0].EnergyX = 2 })},
		{"inflash no stale bits exercised", "inflash", mutate(func(r *InflashReport) {
			for i := range r.Rows {
				r.Rows[i].FalsePositives = 0
			}
		})},
		{"inflash approx missed a reading", "inflash", mutate(func(r *InflashReport) { r.Approx[0].Missed = 1 })},
		{"inflash refresh path erased", "inflash", mutate(func(r *InflashReport) { r.Approx[0].FlipErases = 4 })},
		{"lifetime missing density sweep", "lifetime", mutate(func(r *LifetimeReport) { r.Density = nil })},
		{"lifetime density missing TLC row", "lifetime", mutate(func(r *LifetimeReport) {
			r.Density = slices.DeleteFunc(r.Density, func(d DensityRow) bool { return d.Cell == "TLC" })
		})},
		{"lifetime density capacity mismatch", "lifetime", mutate(func(r *LifetimeReport) { r.Density[1].CapacityX = 3 })},
		{"lifetime density zero writes", "lifetime", mutate(func(r *LifetimeReport) { r.Density[2].WritesToFirstLoss = 0 })},
	}
	for _, tc := range typed {
		a, err := artifactOf(tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		rep := a.New()
		if err := json.Unmarshal(committedArtifact(t, tc.kind), rep); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tc.mutate(rep)
		if rep.Check() == nil {
			t.Errorf("%s: Check passed but should have failed", tc.name)
		}
		var buf bytes.Buffer
		if err := WriteArtifact(&buf, rep); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ValidateArtifact(tc.kind, buf.Bytes()) == nil {
			t.Errorf("%s: validated but should have been rejected", tc.name)
		}
	}

	// edit replaces the first old in the committed artifact with new.
	edit := func(kind, old, new string) []byte {
		data := string(committedArtifact(t, kind))
		if !strings.Contains(data, old) {
			t.Fatalf("BENCH_%s.json has no %q to edit", kind, old)
		}
		return []byte(strings.Replace(data, old, new, 1))
	}
	// editCrashes rewrites the first row's "crashes" field, whatever its
	// figure, by expanding repl over the match ($1 is the line's leading
	// newline and indent, $2 the figure): a re-baselined campaign keeps
	// these cases aimed at the same field.
	crashes := regexp.MustCompile(`(\n *)"crashes": (\d+),`)
	editCrashes := func(repl string) []byte {
		data := committedArtifact(t, "crashcampaign")
		m := crashes.FindSubmatchIndex(data)
		if m == nil {
			t.Fatalf("BENCH_crashcampaign.json has no %s", crashes)
		}
		out := crashes.Expand(slices.Clone(data[:m[0]]), []byte(repl), data, m)
		return append(out, data[m[1]:]...)
	}
	raw := []struct {
		name string
		kind string
		doc  []byte
	}{
		{"unknown kind", "nope", []byte(`{}`)},
		{"bad json", "lifetime", []byte(`{`)},
		{"unknown top-level field", "crashcampaign", edit("crashcampaign", "{\n", "{\n  \"extra\": 1,\n")},
		{"unknown row field", "crashcampaign", edit("crashcampaign", `"scenario": "kvs/mixed",`, `"scenario": "kvs/mixed", "bogus": 0,`)},
		{"missing field", "crashcampaign", editCrashes("")},
		{"wrong-typed field", "crashcampaign", editCrashes(`$1"crashes": "$2",`)},
	}
	for _, tc := range raw {
		if err := ValidateArtifact(tc.kind, tc.doc); err == nil {
			t.Errorf("%s: validated but should have been rejected", tc.name)
		}
	}
}
