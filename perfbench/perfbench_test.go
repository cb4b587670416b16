package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/kvs"
)

// briefOps keeps each workload's test run short; the kv workloads still
// reboot three times per round.
var briefOps = map[string]int{"camera": 2000, "kvchurn": 3000, "kvscan": 3000}

// deterministic returns the metrics of a report that must repeat exactly
// for a seed.
func deterministic(rep *report) map[string]float64 {
	out := map[string]float64{}
	for _, ms := range []metrics{rep.E2E, rep.Layers} {
		for name, m := range ms {
			if m.Kind == "deterministic" {
				out[name] = m.Value
			}
		}
	}
	return out
}

// TestWorkloadsRepeatPerSeed runs each workload briefly twice at one seed
// and once at another: every device figure and the fingerprint repeat for
// the same seed, and every output checks out at both seeds.
func TestWorkloadsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ops := briefOps[w.name]
			a, err := measure(w, 1, ops, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := measure(w, 1, ops, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, err := measure(w, 2, ops, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{a, b, c} {
				if !r.Correct || r.Failed != 0 || r.E2E["error_rate"].Value != 0 {
					t.Errorf("seed %d: correct %v, %d of %d failed, mismatch %v", r.Seed, r.Correct, r.Failed, r.Attempted, r.Mismatch)
				}
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("same seed, fingerprints %s and %s", a.Fingerprint, b.Fingerprint)
			}
			if da, db := deterministic(a), deterministic(b); !reflect.DeepEqual(da, db) {
				t.Errorf("same seed, deterministic figures differ:\n%v\n%v", da, db)
			}
			if a.Fingerprint == c.Fingerprint {
				t.Errorf("seeds 1 and 2 gave the same fingerprint %s", a.Fingerprint)
			}
		})
	}
}

// TestTracedRunMatchesUntraced checks that tracing changes nothing the
// simulator computes and produces every declared per-layer metric.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, err := tracedRun(w, 3, rounds*briefOps[w.name])
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Fingerprint != rep.UntracedFingerprint {
				t.Fatalf("traced %s vs untraced %s, correct %v, mismatch %v",
					rep.Fingerprint, rep.UntracedFingerprint, rep.Correct, rep.Mismatch)
			}
			for _, name := range perLayer {
				if m, ok := rep.Layers[name]; !ok || m.Value == 0 {
					t.Errorf("per-layer metric %s missing or zero: %+v", name, m)
				}
			}
			checkCatalogue(t, w.name, rep)
		})
	}
}

// catalogueEntry is one metric of metrics.json.
type catalogueEntry struct {
	Unit      string
	Better    string
	Kind      string
	Workloads []string
	Gated     bool
	Optional  string
}

type catalogue struct {
	EndToEnd map[string]catalogueEntry `json:"end_to_end"`
	PerLayer map[string]catalogueEntry `json:"per_layer"`
}

func loadCatalogue(t *testing.T) catalogue {
	t.Helper()
	var cat catalogue
	raw, err := os.ReadFile("metrics.json")
	if err == nil {
		err = json.Unmarshal(raw, &cat)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// checkCatalogue checks that metrics.json describes exactly the metrics a
// workload's traced run reports, with their units and kinds.
func checkCatalogue(t *testing.T, workload string, rep *report) {
	t.Helper()
	cat := loadCatalogue(t)
	for _, sec := range []struct {
		got metrics
		cat map[string]catalogueEntry
	}{{rep.E2E, cat.EndToEnd}, {rep.Layers, cat.PerLayer}} {
		for name, m := range sec.got {
			e, ok := sec.cat[name]
			switch {
			case !ok:
				t.Errorf("%s reports %s, which metrics.json lacks", workload, name)
			case e.Unit != m.Unit || e.Kind != m.Kind:
				t.Errorf("%s: reported as %s/%s, catalogued as %s/%s", name, m.Unit, m.Kind, e.Unit, e.Kind)
			case !contains(e.Workloads, workload):
				t.Errorf("%s reports %s, catalogued for %v only", workload, name, e.Workloads)
			}
		}
		for name, e := range sec.cat {
			if _, ok := sec.got[name]; !ok && e.Optional == "" && contains(e.Workloads, workload) {
				t.Errorf("%s does not report %s", workload, name)
			}
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestShimForwardsExactExtensions checks the traced backends implement the
// optional kvs extensions of the backend they wrap, and nothing more.
func TestShimForwardsExactExtensions(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.NumPages = 64
	dev := core.MustNewDevice(spec)
	f, err := ftl.Open(dev, ftl.WithSpares(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []kvs.Backend{rawBackend{dev}, f} {
		w, err := wrapBackend(b, "x", newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := extensions(w), extensions(b); got != want {
			t.Errorf("%T: shim has extensions %q, backend %q", b, got, want)
		}
	}
	if got := extensions(f); got != "sense wear" {
		t.Errorf("FTL extensions %q, want sense and wear only", got)
	}
	if got := extensions(rawBackend{dev}); got != "sense wear in-flash" {
		t.Errorf("raw device extensions %q", got)
	}
}

func extensions(b kvs.Backend) string {
	var out []string
	if _, ok := b.(kvs.PageSenser); ok {
		out = append(out, "sense")
	}
	if _, ok := b.(kvs.WearBackend); ok {
		out = append(out, "wear")
	}
	if _, ok := b.(kvs.InFlashBackend); ok {
		out = append(out, "in-flash")
	}
	return strings.Join(out, " ")
}

// TestBenchmarkJSONMatchesProgram keeps the declared workloads and metrics
// in step with the program and with metrics.json, which marks the declared
// end-to-end metrics as gated.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit, Better string }
	var decl struct {
		Workloads []declared
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(xs []declared) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	if got := names(decl.Workloads); !reflect.DeepEqual(got, wl) {
		t.Errorf("workloads %v, program has %v", got, wl)
	}
	if got := names(decl.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", got, endToEnd)
	}
	if got := names(decl.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, program has %v", got, perLayer)
	}

	cat := loadCatalogue(t)
	gated := 0
	for _, e := range cat.EndToEnd {
		if e.Gated {
			gated++
		}
	}
	if gated != len(decl.EndToEnd) {
		t.Errorf("metrics.json gates %d end-to-end metrics, BENCHMARK.json declares %d", gated, len(decl.EndToEnd))
	}
	for _, d := range decl.EndToEnd {
		if c := cat.EndToEnd[d.Name]; !c.Gated || c.Unit != d.Unit || c.Better != d.Better {
			t.Errorf("%s: declared %s/%s, catalogued %+v", d.Name, d.Unit, d.Better, c)
		}
	}
	for _, d := range decl.PerLayer {
		if c := cat.PerLayer[d.Name]; c.Unit != d.Unit || c.Better != d.Better {
			t.Errorf("%s: declared %s/%s, catalogued %+v", d.Name, d.Unit, d.Better, c)
		}
	}
}

// TestResultLine checks the last output line carries exactly the declared
// end-to-end metrics, and that bad arguments fail without a result.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "camera", "--seed", "4", "--seconds", "1", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v", keys)
	}
	var ms map[string]value
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(ms), len(endToEnd))
	}
	for _, name := range endToEnd {
		if m, ok := ms[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("metric %s: %+v", name, m)
		}
	}

	out.Reset()
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}
