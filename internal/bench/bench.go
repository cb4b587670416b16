// Package bench regenerates every table and figure of the paper's
// evaluation (§V). Each experiment is a function returning a Table of
// typed, rendered rows; cmd/flipbit prints them and the repository-level
// benchmarks in bench_test.go drive them under `go test -bench`.
//
// Absolute numbers come from the simulated substrates documented in
// DESIGN.md; EXPERIMENTS.md records paper-vs-measured for each experiment.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Config controls experiment scale.
type Config struct {
	// Quick trims workloads (fewer frames, fewer test samples) so the
	// whole suite completes in seconds; shapes are preserved.
	Quick bool

	// Cell selects the flash cell density the device-level experiments run
	// at (cmd/flipbit -cell). The zero value, SLC, reproduces the committed
	// artifacts; MLC and TLC re-derate the part via flash.DensitySpec so
	// the same scenarios sweep the density axis.
	Cell flash.CellMode
}

// applyCell re-parameterises a device spec for the configured density.
// SLC is the identity, so default runs match the committed artifacts.
func (c Config) applyCell(s flash.Spec) flash.Spec {
	if c.Cell == flash.SLC {
		return s
	}
	return flash.DensitySpec(s, c.Cell)
}

// Table is one regenerated result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// HostColumns names the columns, and HostNotes indexes the notes, that
	// measure the host (wall-clock time, allocations, GOMAXPROCS) rather
	// than the simulated device. Everything else in a table is
	// deterministic, which is what the experiments golden pins.
	HostColumns []string
	HostNotes   []int
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddHostNote appends a note that carries a host measurement.
func (t *Table) AddHostNote(note string) {
	t.HostNotes = append(t.HostNotes, len(t.Notes))
	t.Notes = append(t.Notes, note)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "── %s — %s\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("─", total))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderCSV writes the table as RFC-4180 CSV (header row first), for
// feeding plots. Notes are omitted.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment is a registry entry.
type Experiment struct {
	ID   string
	What string
	Run  func(Config) (*Table, error)
}

// Registry returns every experiment in paper order plus the ablations.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "flash operation power vs ARM Cortex-M0+", Fig1},
		{"table1", "flash operation latency and energy", TableI},
		{"table2", "derived n=2 approximation truth table", TableII},
		{"fig4", "worked 1-bit approximation example", Fig4},
		{"fig5", "worked 2-bit approximation example", Fig5},
		{"table3", "evaluated ML models", TableIII},
		{"fig10", "video energy reduction and PSNR (2-bit, threshold 2)", Fig10},
		{"fig11", "FlipBit vs frame-rate reduction at matched energy", Fig11},
		{"fig12", "ML energy reduction and accuracy at tuned thresholds", Fig12},
		{"fig13", "object-detection F1 on approximated video", Fig13},
		{"fig14", "video threshold sweep", Fig14},
		{"fig15", "ML threshold sweep", Fig15},
		{"fig16", "N-bit window sweep on video", Fig16},
		{"fig17", "video lifetime increase", Fig17},
		{"fig18", "ML lifetime increase", Fig18},
		{"table4", "hardware overhead at 33 MHz (65 nm)", TableIV},
		{"ablation-optimality", "n-bit error vs exact optimal encoder", AblationOptimality},
		{"ablation-metric", "MAE vs MSE page gating", AblationErrorMetric},
		{"ablation-fallback", "per-page vs per-value fallback", AblationFallback},
		{"ablation-skip", "skip-unchanged-byte programming", AblationSkipProgram},
		{"ablation-mlc", "SLC n-bit vs MLC n-cell encoding", AblationMLC},
		{"ablation-float", "float32 mantissa-window approximation (§VI)", AblationFloat},
		{"ablation-pagesize", "erase-granularity sensitivity on video", AblationPageSize},
		{"exp-related", "related-work erase-reduction techniques (§VII)", ExpRelated},
		{"exp-wear", "wear leveling × FlipBit composition (§II-B)", ExpWear},
		{"exp-harvest", "energy-harvesting checkpoint progress (§VI)", ExpHarvest},
		{"writepath", "bank-sharded commit throughput, serial vs concurrent", ExpWritePath},
		{"encodekernel", "batch encode kernels vs scalar per-value encoding", ExpEncodeKernel},
		{"crashcampaign", "fault-injection campaign: crash/reboot survival and recovery cost", ExpCrashCampaign},
		{"transient", "transient-fault campaign: verify-retry-retire and retention repair", ExpTransient},
		{"lifetime", "writes to first data loss: unmanaged vs endurance-managed", ExpLifetime},
		{"kvscale", "store at scale: GC under load, space amplification, O(tail) mount", ExpKVScale},
		{"inflash", "in-flash predicate pushdown and approximate search vs host scans", ExpInflash},
	}
}

// ByID returns the registered experiment or nil.
func ByID(id string) *Experiment {
	for _, e := range Registry() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

// --- small shared helpers ---

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// geomean of positive values; zero/negative entries are clamped to eps so a
// single perfect result does not blow up the aggregate.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x < 1e-9 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
