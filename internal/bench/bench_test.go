package bench

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Quick: true}

// TestRegistryComplete: every paper table and figure has an experiment.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "table1", "table2", "fig4", "fig5", "table3",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "table4",
	}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown ID should return nil")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// TestAllExperimentsRunQuick: every registered experiment completes and
// renders in quick mode. This is the integration test of the whole stack.
// The renders, host cells masked, must match testdata/experiments.golden,
// so every deterministic figure the paper tables print is pinned. After a
// reviewed change of those figures, regenerate it with
//
//	go test ./internal/bench -run TestAllExperimentsRunQuick -update
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	var got bytes.Buffer
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			if !strings.Contains(buf.String(), strings.ToUpper(e.ID)) {
				t.Error("render missing experiment ID")
			}
			maskHost(tab).Render(&got)
		})
	}
	if t.Failed() {
		return
	}

	const golden = "testdata/experiments.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("quick renders drifted from %s at line %d (run with -update after reviewing):\ngot:  %s\nwant: %s",
					golden, i+1, g, w)
			}
		}
	}
}

// maskHost returns a copy of tab with every host cell and host note
// replaced by "(host)", leaving only figures of the simulated device.
func maskHost(tab *Table) *Table {
	m := *tab
	m.Rows = make([][]string, len(tab.Rows))
	for i, row := range tab.Rows {
		m.Rows[i] = slices.Clone(row)
		for j := range row {
			if j < len(tab.Columns) && slices.Contains(tab.HostColumns, tab.Columns[j]) {
				m.Rows[i][j] = "(host)"
			}
		}
	}
	m.Notes = slices.Clone(tab.Notes)
	for _, i := range tab.HostNotes {
		m.Notes[i] = "(host)"
	}
	return &m
}

// parsePct turns "12.3%" into 0.123.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v / 100
}

// TestFig10Shape: substantial mean savings at high PSNR, with static clips
// saving more than high-motion clips.
func TestFig10Shape(t *testing.T) {
	tab, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[1] != "MEAN" {
		t.Fatalf("expected MEAN row, got %v", last)
	}
	meanRed := parsePct(t, last[2])
	if meanRed < 0.3 {
		t.Errorf("mean video energy reduction %.2f too low (paper: 0.68)", meanRed)
	}
	meanPSNR, _ := strconv.ParseFloat(last[3], 64)
	if meanPSNR < 40 {
		t.Errorf("mean PSNR %.1f below the visually-lossless bar (paper: 42)", meanPSNR)
	}
	first := parsePct(t, tab.Rows[0][2])
	lastVid := parsePct(t, tab.Rows[len(tab.Rows)-2][2])
	if first <= lastVid {
		t.Errorf("static clip (%.2f) should out-save high-motion clip (%.2f)", first, lastVid)
	}
}

// TestFig11Shape: FlipBit must beat frame-rate reduction on average PSNR at
// matched flash energy (the paper's claim is about the average).
func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	var fbSum, rrSum float64
	for _, row := range tab.Rows {
		fb, _ := strconv.ParseFloat(row[2], 64)
		rr, _ := strconv.ParseFloat(row[3], 64)
		fbSum += fb
		rrSum += rr
	}
	if fbSum <= rrSum {
		t.Errorf("FlipBit mean PSNR %.1f <= frame-rate reduction %.1f",
			fbSum/float64(len(tab.Rows)), rrSum/float64(len(tab.Rows)))
	}
}

// TestFig14Monotone: energy reduction non-decreasing, PSNR non-increasing
// with threshold.
func TestFig14Monotone(t *testing.T) {
	tab, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	prevRed, prevPSNR := -1.0, 1e9
	for _, row := range tab.Rows {
		red := parsePct(t, row[1])
		psnr, _ := strconv.ParseFloat(row[2], 64)
		if red < prevRed-0.02 {
			t.Errorf("threshold %s: reduction %.3f fell below %.3f", row[0], red, prevRed)
		}
		if psnr > prevPSNR+0.5 {
			t.Errorf("threshold %s: PSNR %.1f rose above %.1f", row[0], psnr, prevPSNR)
		}
		prevRed, prevPSNR = red, psnr
	}
}

// TestFig16Shape: the paper's §V-B finding — n = 1's cruder approximations
// fail the error gate more often, so it saves clearly less energy, while
// n >= 2 is nearly uniform, all at comparable (threshold-bounded) quality.
func TestFig16Shape(t *testing.T) {
	tab, err := Fig16(quick)
	if err != nil {
		t.Fatal(err)
	}
	var red1, red2, redMin2, redMax2 float64
	redMin2 = 1
	for _, row := range tab.Rows {
		red := parsePct(t, row[1])
		psnr, _ := strconv.ParseFloat(row[2], 64)
		if psnr < 40 {
			t.Errorf("n=%s PSNR %.1f below the quality bar", row[0], psnr)
		}
		if row[0] == "1" {
			red1 = red
			continue
		}
		if row[0] == "2" {
			red2 = red
		}
		if red < redMin2 {
			redMin2 = red
		}
		if red > redMax2 {
			redMax2 = red
		}
	}
	if red1 >= red2 {
		t.Errorf("n=1 savings %.2f should be below n=2 savings %.2f", red1, red2)
	}
	if redMax2-redMin2 > 0.15 {
		t.Errorf("n>=2 savings spread %.2f..%.2f not nearly uniform", redMin2, redMax2)
	}
}

// TestFig17Positive: lifetime increases on every clip.
func TestFig17Positive(t *testing.T) {
	tab, err := Fig17(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] == "GEOMEAN" {
			if inc := parsePct(t, row[4]); inc <= 0 {
				t.Errorf("geomean lifetime increase %.2f not positive", inc)
			}
			continue
		}
		if inc := parsePct(t, row[4]); inc < 0 {
			t.Errorf("video %s lifetime decreased: %.2f", row[1], inc)
		}
	}
}

// TestFig12Shape: every model keeps accuracy within 1% at its tuned
// threshold while saving energy.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains all four models")
	}
	tab, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] == "MEAN" {
			if red := parsePct(t, row[4]); red < 0.15 {
				t.Errorf("mean ML energy reduction %.2f too low (paper: 0.39)", red)
			}
			continue
		}
		base, _ := strconv.ParseFloat(row[2], 64)
		acc, _ := strconv.ParseFloat(row[3], 64)
		if acc < base-0.011 {
			t.Errorf("%s: accuracy %.3f dropped more than 1%% below %.3f", row[0], acc, base)
		}
	}
}

// TestFig13Quality: detection F1 on approximated video stays high.
func TestFig13Quality(t *testing.T) {
	tab, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[1] != "GEOMEAN" {
		t.Fatalf("expected GEOMEAN row, got %v", last)
	}
	f1, _ := strconv.ParseFloat(last[4], 64)
	if f1 < 0.85 {
		t.Errorf("geomean F1 %.2f too low (paper: 0.96)", f1)
	}
}

// TestTableIVShape is covered in internal/hw; here we just check rendering
// carries both configurations.
func TestTableIVRows(t *testing.T) {
	tab, err := TableIV(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table IV should have 3 rows (configurable, n=2, n=2 PLA), got %d", len(tab.Rows))
	}
}

func TestRenderAlignment(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "long-column"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("render too short: %q", buf.String())
	}
}

// TestWritePathShape pins the tentpole's scaling claim: on a 4-bank device
// the commit benchmark must show at least 2× device-time throughput at 4
// workers versus 1, and the report must serialize to JSON.
func TestWritePathShape(t *testing.T) {
	rep, err := RunWritePath(quick)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Banks != 4 {
		t.Fatalf("expected a 4-bank device, got %d", rep.Banks)
	}
	var at1, at4 float64
	for _, r := range rep.Rows {
		if r.Workers == 1 {
			at1 = r.DeviceOpsPerSec
		}
		if r.Workers == 4 {
			at4 = r.DeviceOpsPerSec
		}
	}
	if at1 <= 0 || at4 <= 0 {
		t.Fatalf("missing 1- or 4-worker row: %+v", rep.Rows)
	}
	if at4 < 2*at1 {
		t.Errorf("4-worker throughput %.0f ops/s is not ≥2× the 1-worker %.0f ops/s", at4, at1)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup_vs_1_worker") {
		t.Error("JSON report missing speedup field")
	}
}

// TestEncodeKernelShape runs the encodekernel experiment at quick scale and
// requires the report to pass its own artifact gate — both paths in exact
// agreement — and, outside the race detector, the host-time gates the
// artifact does not carry: no end-to-end regression on the SLC write path
// (kernel ≥1× scalar), and the MLC write path, scalar-only before the cell
// kernels, at least doubled.
func TestEncodeKernelShape(t *testing.T) {
	rep, err := RunEncodeKernel(quick)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("quick-scale report fails its own gate: %v", err)
	}
	if raceEnabled {
		t.Log("race detector on: skipping the host-time gates (instrumentation overhead swamps kernel-vs-scalar ratios)")
		return
	}
	if rep.E2ESpeedup < 1 {
		t.Errorf("end-to-end write path regressed: kernel %.0f ns/op vs scalar %.0f ns/op (%.2fx), want >= 1",
			rep.E2EKernelNsPerOp, rep.E2EScalarNsPerOp, rep.E2ESpeedup)
	}
	if rep.E2EMLCSpeedup < 2 {
		t.Errorf("end-to-end MLC write path: kernel %.0f ns/op vs scalar %.0f ns/op (%.2fx), want >= 2",
			rep.E2EMLCKernelNsPerOp, rep.E2EMLCScalarNsPerOp, rep.E2EMLCSpeedup)
	}
}

// TestKVScaleShape runs the store-scale experiment at quick scale and
// requires the report to pass its own artifact gate: GC fired under
// load, checkpoints committed, space amplification within the 2.0 gate, and
// the checkpointed mount ≥10× the full scan in device time.
func TestKVScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("drives thousands of store operations; skipped in -short")
	}
	rep, err := RunKVScale(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatalf("expected at least 2 key counts, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		t.Logf("keys=%d ops=%d compactions=%d checkpoints=%d amp=%.2f speedup=%.1f (scan %.1fms, ckpt %.1fms device)",
			r.Keys, r.Ops, r.Compactions, r.Checkpoints, r.SpaceAmp,
			r.MountSpeedup, r.ScanMountDeviceMs, r.CkptMountDeviceMs)
	}
	if err := rep.Check(); err != nil {
		t.Errorf("quick-scale report fails its own gate: %v", err)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{4, 1}); g != 2 {
		t.Errorf("geomean(4,1) = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
}
