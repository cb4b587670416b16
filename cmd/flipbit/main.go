// Command flipbit regenerates the tables and figures of "FlipBit:
// Approximate Flash Memory for IoT Devices" (HPCA 2024) from the simulation
// library in this repository.
//
// Usage:
//
//	flipbit list                 # show every experiment
//	flipbit fig10                # regenerate one experiment
//	flipbit fig10 fig14 table4   # several
//	flipbit all                  # everything, in paper order
//	flipbit -quick all           # trimmed workloads (seconds, same shapes)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/flipbit-sim/flipbit/internal/bench"
	"github.com/flipbit-sim/flipbit/internal/faultcampaign"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Flags live on their own FlagSet (not flag.CommandLine) so the usage
// golden test sees exactly the program's flags, not the test binary's.
var (
	flags      = flag.NewFlagSet("flipbit", flag.ExitOnError)
	quick      = flags.Bool("quick", false, "trim workloads for a fast run (shapes preserved)")
	cellMode   = flags.String("cell", "slc", "cell density for device-level experiments: slc, mlc or tlc (derates latency, energy and endurance)")
	csvDir     = flags.String("csv", "", "also write each table as <dir>/<id>.csv")
	benchJSON  = flags.String("benchjson", "", "write the writepath JSON report to this path and every other BENCH_<kind>.json artifact next to it, each only if it passes its gate")
	faults     = flags.Bool("faults", false, "run a fault-injection campaign against the key-value store and print its outcome")
	seed       = flags.Uint64("seed", 1, "campaign seed for -faults (same seed replays byte-identically)")
	cycles     = flags.Int("cycles", 1000, "crash/reboot cycles for -faults")
	onFTL      = flags.Bool("ftl", false, "run the -faults campaign through the journaled FTL with read-back verification")
	scrub      = flags.Bool("scrub", false, "arm the background scrubber (and a 2-page spare pool with -ftl) during the -faults campaign")
	retry      = flags.Int("retry", 0, "arm transient program/erase verify failures in the -faults mix, absorbed by a verify-retry budget of this many re-issues")
	cpuProfile = flags.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with 'go tool pprof')")
	memProfile = flags.String("memprofile", "", "write a heap profile taken at exit to this file")
)

// main delegates to run so deferred profile writers execute before the
// process exits — os.Exit inside run's body would skip them.
func main() {
	os.Exit(run())
}

func run() int {
	flags.Usage = usage
	_ = flags.Parse(os.Args[1:])
	args := flags.Args()
	cell, err := parseCellMode(*cellMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flipbit: %v\n", err)
		return 2
	}
	cfg := bench.Config{Quick: *quick, Cell: cell}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flipbit: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "flipbit: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flipbit: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "flipbit: memprofile: %v\n", err)
			}
		}()
	}

	if *faults {
		if err := runFaults(*seed, *cycles, *onFTL, *scrub, *retry); err != nil {
			fmt.Fprintf(os.Stderr, "flipbit: faults: %v\n", err)
			return 1
		}
		if len(args) == 0 && *benchJSON == "" {
			return 0
		}
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "flipbit: benchjson: %v\n", err)
			return 1
		}
		if len(args) == 0 {
			return 0
		}
	}
	if len(args) == 0 {
		usage()
		return 2
	}

	if args[0] == "list" {
		for _, e := range bench.Registry() {
			fmt.Printf("  %-20s %s\n", e.ID, e.What)
		}
		return 0
	}

	var ids []string
	if args[0] == "all" {
		for _, e := range bench.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}
	for _, id := range ids {
		e := bench.ByID(id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "flipbit: unknown experiment %q (try 'flipbit list')\n", id)
			return 2
		}
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flipbit: %s: %v\n", id, err)
			return 1
		}
		tab.Render(os.Stdout)
		fmt.Printf("  (%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, tab); err != nil {
				fmt.Fprintf(os.Stderr, "flipbit: csv: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// parseCellMode maps the -cell flag onto a flash.CellMode.
func parseCellMode(s string) (flash.CellMode, error) {
	switch s {
	case "slc":
		return flash.SLC, nil
	case "mlc":
		return flash.MLC, nil
	case "tlc":
		return flash.TLC, nil
	}
	return flash.SLC, fmt.Errorf("unknown -cell mode %q (want slc, mlc or tlc)", s)
}

// writeBenchJSON runs every registered artifact's experiment and writes
// its report: writepath to path, the others as BENCH_<kind>.json next to
// it. A report that fails its gate is named on stderr and not written.
func writeBenchJSON(path string, cfg bench.Config) error {
	var failed []string
	for _, a := range bench.Artifacts() {
		rep, err := a.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Kind, err)
		}
		if err := rep.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "flipbit: benchjson: %s fails its gate, not written: %v\n", a.Kind, err)
			failed = append(failed, a.Kind)
			continue
		}
		out := path
		if a.Kind != "writepath" {
			out = filepath.Join(filepath.Dir(path), "BENCH_"+a.Kind+".json")
		}
		if err := writeArtifact(out, rep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if len(failed) > 0 {
		return fmt.Errorf("not written, gate failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// writeArtifact writes rep to a new file at path.
func writeArtifact(path string, rep bench.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteArtifact(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFaults runs one seeded campaign and prints a human-readable summary.
// A non-zero violation count is a hard failure: it means a committed key
// was lost or settled to a torn value after a crash.
func runFaults(seed uint64, cycles int, onFTL, scrub bool, retry int) error {
	cfg := faultcampaign.Config{Seed: seed, Cycles: cycles, UseFTL: onFTL, Verify: onFTL, Scrub: scrub}
	if scrub && onFTL {
		cfg.Spares = 2
	}
	if retry > 0 {
		// Transient verify failures join the mix, with incidents bounded by
		// the budget (MaxRetries <= retry) so every one recovers in place.
		cfg.Retry = retry
		cfg.Mix = flash.FaultMix{
			PowerLoss: 4, TransientProgram: 3, TransientErase: 1,
			MinGap: 0, MaxGap: 250, MaxRetries: retry,
		}
	}
	start := time.Now()
	res, err := faultcampaign.Run(cfg)
	if err != nil {
		return err
	}
	stack := "kvs on raw flash"
	if onFTL {
		stack = "kvs on journaled ftl (verify on)"
	}
	if scrub {
		stack += " + scrubber"
	}
	fmt.Printf("fault campaign: seed %#x, %d cycles against %s (%v host time)\n",
		seed, res.Cycles, stack, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  crashes survived     %d (%d during recovery itself)\n", res.Crashes, res.CrashesDuringRecovery)
	fmt.Printf("  faults fired         %d (armed: %d power-loss, %d stuck-bits, %d read-disturb)\n",
		res.FaultsFired, res.PowerLossArmed, res.StuckBitsArmed, res.ReadDisturbArmed)
	fmt.Printf("  mean recovery        %v flash busy, %s total recovery energy\n",
		res.MeanRecoveryBusy.Round(time.Microsecond), res.RecoveryEnergy)
	fmt.Printf("  wasted pages         %d (retired + quarantined), %d bits corrected, %d torn records skipped\n",
		res.WastedPages, res.CorrectedBits, res.TornSkipped)
	if scrub {
		fmt.Printf("  scrubber             %d sampled, %d absorbed, %d refreshed, %d retired\n",
			res.ScrubSampled, res.ScrubAbsorbed, res.ScrubRefreshed, res.ScrubRetired)
	}
	if retry > 0 {
		fmt.Printf("  verify-retry         %d re-issues saved %d writes, %d pages retired on exhaustion (armed: %d program, %d erase)\n",
			res.RetryAttempts, res.RetrySaves, res.RetryRetired,
			res.TransientProgramArmed, res.TransientEraseArmed)
	}
	fmt.Printf("  fingerprint          %016x (replays byte-identically from the seed)\n", res.Fingerprint)
	if res.ViolationCount != 0 {
		fmt.Printf("  VIOLATIONS           %d\n", res.ViolationCount)
		for _, v := range res.Violations {
			fmt.Printf("    %s\n", v)
		}
		return fmt.Errorf("%d recovery-invariant violations", res.ViolationCount)
	}
	fmt.Printf("  violations           0 — every committed key survived every crash\n")
	return nil
}

func writeCSV(dir, id string, tab *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.RenderCSV(f)
}

func usage() {
	printUsage(os.Stderr)
}

// printUsage writes the full help text — header plus flag defaults — to w.
// Kept separate from usage() so the golden test can pin the output.
func printUsage(w io.Writer) {
	fmt.Fprint(w, usageHeader)
	flags.SetOutput(w)
	flags.PrintDefaults()
	flags.SetOutput(os.Stderr)
}

const usageHeader = `usage: flipbit [-quick] <experiment-id>... | all | list

Regenerates the paper's tables and figures. Examples:
  flipbit list
  flipbit table2 fig10
  flipbit -quick all
  flipbit -faults -seed 7 -cycles 2000        # crash/reboot campaign, raw flash
  flipbit -faults -ftl                        # same through the journaled FTL
  flipbit -faults -ftl -scrub                 # same with the scrubber armed
  flipbit -faults -retry 3                    # with transient verify failures + retry
  flipbit lifetime                            # writes-to-first-data-loss comparison
  flipbit -cell mlc writepath                 # device experiments on a derated MLC part
  flipbit inflash                             # in-flash pushdown vs host scans
  flipbit -benchjson BENCH_writepath.json     # machine-readable bench artifacts
  flipbit -cpuprofile cpu.pprof -quick all    # profile the run for go tool pprof
`
