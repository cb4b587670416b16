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
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Flags live on their own FlagSet (not flag.CommandLine) so the usage
// golden test sees exactly the program's flags, not the test binary's.
var (
	flags      = flag.NewFlagSet("flipbit", flag.ExitOnError)
	quick      = flags.Bool("quick", false, "trim workloads for a fast run (shapes preserved)")
	cellMode   = flags.String("cell", "slc", "cell density for device-level experiments: slc, mlc or tlc (derates latency, energy and endurance)")
	csvDir     = flags.String("csv", "", "also write each table as <dir>/<id>.csv")
	benchJSON  = flags.String("benchjson", "", "write the writepath JSON report to this path and every other BENCH_<kind>.json artifact next to it, each only if it passes its gate (full-scale SLC only: -quick and -cell mlc|tlc are rejected)")
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
	// The committed artifacts are the full-scale SLC reports; a trimmed or
	// derated run would overwrite them with reports that still pass their
	// gates.
	if *benchJSON != "" && (*quick || cell != flash.SLC) {
		fmt.Fprintln(os.Stderr, "flipbit: -benchjson writes the full-scale SLC artifacts; drop -quick and -cell")
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

	// Resolve every ID before running any, so a typo late in the list
	// fails fast instead of after the experiments ahead of it.
	exps := bench.Registry()
	if args[0] != "all" {
		exps = nil
		for _, id := range args {
			e := bench.ByID(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "flipbit: unknown experiment %q (try 'flipbit list')\n", id)
				return 2
			}
			exps = append(exps, *e)
		}
	}
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flipbit: %s: %v\n", e.ID, err)
			return 1
		}
		tab.Render(os.Stdout)
		fmt.Printf("  (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, tab); err != nil {
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
  flipbit crashcampaign transient             # crash/reboot and verify-retry campaigns
  flipbit lifetime                            # writes-to-first-data-loss comparison
  flipbit -cell mlc writepath                 # device experiments on a derated MLC part
  flipbit inflash                             # in-flash pushdown vs host scans
  flipbit -benchjson BENCH_writepath.json     # machine-readable bench artifacts
  flipbit -cpuprofile cpu.pprof -quick all    # profile the run for go tool pprof
`
