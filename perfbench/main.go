// Command perfbench is the repository's benchmark. It runs one named
// workload through the public functions of the kvs, ftl, core and flash
// packages, checks every output against its own model, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a traced
// run) as the last line of standard output:
//
//	bash perfbench/run.sh --workload kvchurn --seed 7 --seconds 10 --trace 0
//
// Each workload is a closed loop: one client, no think time, and a fixed op
// count (opsPerSecond × --seconds), so every simulated-device figure repeats
// exactly for a given seed. Inputs are generated from --seed before the
// clock starts. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// bench is one workload instance: set up, run the timed phase once, report.
type bench interface {
	// setup generates the inputs and builds, populates and warms the device.
	setup() error
	// run issues the timed ops, recording each into r.
	run(r *recorder) error
	// report adds the workload's own end-to-end metrics and, when traced,
	// its per-layer metrics.
	report(r *recorder, e2e, layers metrics)
	flash() *flash.Device
	// fingerprint hashes the flash contents and the stats of every layer.
	fingerprint() string
	close()
}

type workload struct {
	name string
	// opsPerSecond sizes the timed phase: --seconds × opsPerSecond ops,
	// about --seconds of host time on a 2-CPU x86 container.
	opsPerSecond int
	new          func(seed uint64, ops int, tr *tracer) bench
}

var workloads = []workload{
	{"camera", 25000, newCamera},
	{"kvchurn", 11000, newKV(kvchurnShape())},
	{"kvscan", 30000, newKV(kvscanShape())},
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares; the result
// line carries exactly these. Every workload reports all of them. The full
// report printed before it also carries the workload-specific ones.
var (
	endToEnd = []string{
		"setup_s", "dev_us_per_op", "energy_uj_per_op", "erases_per_mib",
	}
	perLayer = []string{
		"flash.busy_us_per_op.read", "flash.busy_us_per_op.program", "flash.busy_us_per_op.erase",
		"flash.energy_uj_per_op.read", "flash.energy_uj_per_op.program", "flash.energy_uj_per_op.erase",
		"flash.erases_per_kop", "flash.program_bytes_per_op", "flash.program_skip_frac", "flash.events_per_op",
	}
)

// rounds is how many times an untraced run sets up and measures; each
// round issues an equal share of the run's ops.
const rounds = 3

func main() {
	// One processor: the client and the async commit workers share it, so
	// host times measure the program's CPU cost per op. With two, whether a
	// read ran on the core that had just committed the page decided its
	// latency, and that choice varied from one process to the next.
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: camera, kvchurn or kvscan")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "timed phase length; sets the op count")
	trace := fs.Int("trace", 0, "1: print per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload camera|kvchurn|kvscan, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ops := w.opsPerSecond * *seconds

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, ops)
	} else {
		rep, err = measure(w, *seed, ops, rounds, nil)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	want, got := endToEnd, rep.E2E
	if *trace == 1 {
		want, got = perLayer, rep.Layers
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for _, n := range want {
		m, ok := got[n]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not produce metric %s\n", w.name, n)
			return 1
		}
		line.Metrics[n] = value{Value: m.Value, Unit: m.Unit}
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	last, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is the full record of a run, printed before the result line.
type report struct {
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Ops         int      `json:"ops"`
	Fingerprint string   `json:"fingerprint"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Mismatch    []string `json:"mismatch,omitempty"`
	E2E         metrics  `json:"end_to_end"`
	Layers      metrics  `json:"per_layer,omitempty"`

	// PerSlice holds the host-timed figures of every slice of every round.
	PerSlice map[string][]float64 `json:"host_per_slice"`

	// Traced runs only: the untraced run's fingerprint, which must match.
	UntracedFingerprint string `json:"untraced_fingerprint,omitempty"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs the workload in rounds: each round sets up from scratch and
// issues the same ops/rounds timed ops. Rounds are identical in every
// simulated figure, which the fingerprint check enforces; merge says how
// the host-timed figures combine. tr is nil for an untraced run; a traced
// run is a single round.
func measure(w workload, seed uint64, ops, nRounds int, tr *tracer) (*report, error) {
	per := max(ops/nRounds, 1)
	rep := &report{Workload: w.name, Seed: seed, Correct: true, PerSlice: map[string][]float64{}}
	var wholes, sliceFigures []metrics
	for i := 0; i < nRounds; i++ {
		whole, sliced, layers, fp, err := round(w, seed, per, tr, rep)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		if i > 0 && fp != rep.Fingerprint {
			rep.Correct = false
			rep.Mismatch = append(rep.Mismatch, fmt.Sprintf("round %d fingerprint %s != %s", i+1, fp, rep.Fingerprint))
		}
		rep.Fingerprint, rep.Layers = fp, layers
		wholes = append(wholes, whole)
		sliceFigures = append(sliceFigures, sliced...)
		for _, m := range sliced {
			for name, v := range m {
				rep.PerSlice[name] = append(rep.PerSlice[name], v.Value)
			}
		}
	}
	rep.E2E = merge(wholes, sliceFigures)
	rep.Correct = rep.Correct && rep.Failed == 0
	return rep, nil
}

// round sets the workload up once and runs its timed phase, adding its op
// counts to rep. It returns the figures taken over the whole round, the
// host-timed ones of each slice, and the per-layer ones of a traced round.
func round(w workload, seed uint64, ops int, tr *tracer, rep *report) (whole metrics, sliced []metrics, layers metrics, fp string, err error) {
	t0 := time.Now()
	b := w.new(seed, ops, tr)
	defer b.close()
	if err := b.setup(); err != nil {
		return nil, nil, nil, "", fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)
	r := newRecorder(b.flash(), tr, ops)
	if err := b.run(r); err != nil {
		return nil, nil, nil, "", err
	}
	rep.Ops += r.ops
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	whole = metrics{}
	whole.host("setup_s", setup.Seconds(), "s", 1)
	r.roundMetrics(whole)
	if tr != nil {
		layers = metrics{}
		flashLayerMetrics(layers, r)
	}
	b.report(r, whole, layers)
	return whole, r.sliceMetrics(), layers, b.fingerprint(), nil
}

// tracedRun runs one untraced and one traced round at the same seed and op
// count. The traced round must leave every layer's stats and the flash
// contents bit-identical to the untraced one; its per-layer metrics carry
// both throughputs, so the tracing overhead shows.
func tracedRun(w workload, seed uint64, ops int) (*report, error) {
	base, err := measure(w, seed, ops/rounds, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	rep, err := measure(w, seed, ops/rounds, 1, newTracer())
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	rep.UntracedFingerprint = base.Fingerprint
	if base.Fingerprint != rep.Fingerprint {
		rep.Mismatch = append(rep.Mismatch, "traced fingerprint differs from untraced")
	}
	rep.Correct = rep.Correct && base.Correct && base.Fingerprint == rep.Fingerprint
	rep.Attempted += base.Attempted
	rep.Failed += base.Failed
	plain, traced := base.E2E["ops_per_s"].Value, rep.E2E["ops_per_s"].Value
	rep.Layers.host("trace.untraced_ops_per_s", plain, "1/s", base.Ops)
	rep.Layers.host("trace.traced_ops_per_s", traced, "1/s", rep.Ops)
	rep.Layers.host("trace.overhead_frac", ratio(plain-traced, plain), "fraction", rep.Ops)
	return rep, nil
}

// newRNG derives a workload's input stream from the seed.
func newRNG(seed uint64, workload string) *xrand.RNG {
	h := fnv.New64a()
	io.WriteString(h, workload)
	return xrand.New(seed*0x9E3779B97F4A7C15 ^ h.Sum64())
}

// fingerprint hashes the flash array's contents and the given stats. Flash
// stats are hashed field by field with energy as its exact bit pattern.
func fingerprint(fl *flash.Device, parts ...any) string {
	h := fnv.New64a()
	page := make([]byte, fl.Spec().PageSize)
	for p := 0; p < fl.Spec().NumPages; p++ {
		fl.PeekPage(p, page)
		h.Write(page)
	}
	st := fl.Stats()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %d %x %d\n", st.Reads, st.Programs, st.ProgramsSkipped,
		st.Erases, st.Scrubs, st.Retirements, st.ProgramFails, st.EraseFails, st.Waits, st.Senses,
		st.PagesSensed, math.Float64bits(float64(st.Energy)), st.Busy)
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
