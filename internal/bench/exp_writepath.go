package bench

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// WritePathRow is one measured configuration of the commit-throughput
// benchmark: `workers` goroutines issuing page commits against a bank-
// sharded device. Host metrics (ns/op, allocs) depend on the machine the
// benchmark runs on; device metrics come from the simulator's datasheet
// timing model, where ops on different banks overlap, and are deterministic.
type WritePathRow struct {
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HostSpeedup float64 `json:"host_speedup_vs_1_worker"`

	DeviceMillis    float64 `json:"device_ms"`
	DeviceOpsPerSec float64 `json:"device_ops_per_sec"`
	Speedup         float64 `json:"speedup_vs_1_worker"`
}

// HostScalingRow is one measured configuration of the host-throughput
// section: a drive mode at a bank count. host_speedup is relative to the
// serial row of the same bank count — one caller committing page by page.
// On a single-CPU host the speedup therefore measures what group commit
// and batch-kernel amortization save over plain serial commit, not
// parallel hardware; with more CPUs the concurrent and async modes
// additionally scale across banks.
type HostScalingRow struct {
	Mode            string  `json:"mode"` // serial | concurrent | async
	Banks           int     `json:"banks"`
	Workers         int     `json:"workers"`
	Depth           int     `json:"depth,omitempty"` // async queue depth
	Ops             int     `json:"ops"`
	NsPerOp         float64 `json:"ns_per_op"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	HostSpeedup     float64 `json:"host_speedup"`
	DeviceMillis    float64 `json:"device_ms"`
	DeviceOpsPerSec float64 `json:"device_ops_per_sec"`
}

// WritePathReport is the machine-readable result written to
// BENCH_writepath.json: serial (1 worker) versus multi-worker commit
// throughput on a bank-sharded device, plus the host-scaling section
// comparing pipeline generations across bank counts.
type WritePathReport struct {
	Banks       int              `json:"banks"`
	PageSize    int              `json:"page_size"`
	NumPages    int              `json:"num_pages"`
	Threshold   float64          `json:"threshold"`
	GoMaxProc   int              `json:"gomaxprocs"`
	NumCPU      int              `json:"num_cpu"`
	Rows        []WritePathRow   `json:"rows"`
	HostScaling []HostScalingRow `json:"host_scaling"`
}

// writePathSpec is the device the commit benchmark runs against: the default
// part geometry with the default 4-bank partition.
func writePathSpec() flash.Spec {
	s := flash.DefaultSpec()
	s.NumPages = 256
	s.Banks = flash.DefaultBanks
	return s
}

// writePathWorkers are the measured concurrency levels. 1 is the serial
// baseline; 8 oversubscribes the 4 banks so two workers contend per bank.
var writePathWorkers = []int{1, 2, 4, 8}

// writePathPlan pre-generates one commit sequence per bank, identical for
// every worker level, so all levels execute the same per-bank op multisets
// and serial-vs-concurrent results stay comparable.
type writePathPlan struct {
	spec    flash.Spec
	perBank [][]int // bank -> page sequence
	payload []byte
}

func newWritePathPlan(spec flash.Spec, banks, totalOps int) writePathPlan {
	rng := xrand.New(0xBE9C)
	var bankPages [][]int
	for b := 0; b < banks; b++ {
		var pages []int
		for p := 0; p < spec.NumPages; p++ {
			if p%banks == b {
				pages = append(pages, p)
			}
		}
		bankPages = append(bankPages, pages)
	}
	perBank := make([][]int, banks)
	for b := range perBank {
		seq := make([]int, totalOps/banks)
		for i := range seq {
			seq[i] = bankPages[b][rng.Intn(len(bankPages[b]))]
		}
		perBank[b] = seq
	}
	payload := make([]byte, spec.PageSize)
	for i := range payload {
		payload[i] = rng.Byte()
	}
	return writePathPlan{spec, perBank, payload}
}

// run executes the plan with `workers` goroutines. Banks are dealt to
// workers round-robin (bank b goes to worker b mod workers); when workers
// exceed the bank count, a bank's sequence is split among the extra workers,
// which contend on that bank's commit lock. Returns host wall time, host
// allocations, and the simulated device time.
//
// The device time models what the datasheet-level hardware would take: each
// bank is an independent execution unit that performs its ops serially, and
// a worker issues its next op only when the previous one finishes. For
// disjoint-bank workers the critical path is the busiest worker; for shared
// banks it is the busiest bank. Per-bank busy time is read from the stats
// shards, so the figure is deterministic and independent of host CPU count.
func (pl writePathPlan) run(d *core.Device, workers int) (elapsed time.Duration, allocs uint64, device time.Duration) {
	return pl.runMode(d, workers, 0)
}

// runMode is run with an optional async pipeline: depth > 0 makes each
// worker feed WriteAsync with a window of `depth` outstanding commits
// (waiting the oldest when the window fills), then Flush inside the timed
// region so every enqueued commit is accounted for.
func (pl writePathPlan) runMode(d *core.Device, workers, depth int) (elapsed time.Duration, allocs uint64, device time.Duration) {
	banks := len(pl.perBank)
	type chunk struct {
		bank  int
		pages []int
	}
	perWorker := make([][]chunk, workers)
	if workers <= banks {
		for b := 0; b < banks; b++ {
			w := b % workers
			perWorker[w] = append(perWorker[w], chunk{b, pl.perBank[b]})
		}
	} else {
		// Split each bank's sequence among the workers assigned to it.
		for w := 0; w < workers; w++ {
			b := w % banks
			share := workers / banks
			idx := w / banks
			seq := pl.perBank[b]
			lo := len(seq) * idx / share
			hi := len(seq) * (idx + 1) / share
			perWorker[w] = append(perWorker[w], chunk{b, seq[lo:hi]})
		}
	}

	busyBefore := make([]time.Duration, banks)
	for b := 0; b < banks; b++ {
		busyBefore[b] = d.Flash().BankStats(b).Busy
	}

	// Pre-spawn the workers parked on a start gate so goroutine stacks and
	// scheduling structures are allocated outside the measured region —
	// otherwise allocs/op grows with the worker count and the steady-state
	// zero-allocation property of the commit path is unobservable.
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(chunks []chunk) {
			defer wg.Done()
			var window []*core.Commit
			if depth > 0 {
				window = make([]*core.Commit, 0, depth)
			}
			<-ready
			if depth > 0 {
				for _, c := range chunks {
					for _, p := range c.pages {
						if len(window) == depth {
							_ = window[0].Wait()
							window = window[:copy(window, window[1:])]
						}
						window = append(window, d.WriteAsync(d.Flash().PageBase(p), pl.payload))
					}
				}
				for _, cm := range window {
					_ = cm.Wait()
				}
				return
			}
			for _, c := range chunks {
				for _, p := range c.pages {
					_ = d.Write(d.Flash().PageBase(p), pl.payload)
				}
			}
		}(perWorker[w])
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	close(ready)
	wg.Wait()
	if depth > 0 {
		d.Flush()
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)

	bankBusy := make([]time.Duration, banks)
	for b := 0; b < banks; b++ {
		bankBusy[b] = d.Flash().BankStats(b).Busy - busyBefore[b]
	}
	if workers <= banks {
		// Critical path: the worker with the most total bank busy time.
		for w := 0; w < workers; w++ {
			var sum time.Duration
			for _, c := range perWorker[w] {
				sum += bankBusy[c.bank]
			}
			if sum > device {
				device = sum
			}
		}
	} else {
		// Banks saturate: each executes its full sequence serially no
		// matter how many workers feed it.
		for _, b := range bankBusy {
			if b > device {
				device = b
			}
		}
	}
	return elapsed, after.Mallocs - before.Mallocs, device
}

// RunWritePath measures commit throughput at each worker level and returns
// the machine-readable report. Each level gets a fresh device so wear and
// array state never carry between levels.
func RunWritePath(cfg Config) (*WritePathReport, error) {
	spec := cfg.applyCell(writePathSpec())
	totalOps := 40960
	if cfg.Quick {
		totalOps = 8192
	}
	rep := &WritePathReport{
		Banks:     spec.Banks,
		PageSize:  spec.PageSize,
		NumPages:  spec.NumPages,
		Threshold: 4,
		GoMaxProc: runtime.GOMAXPROCS(0),
		NumCPU:    runtime.NumCPU(),
	}
	plan := newWritePathPlan(spec, spec.Banks, totalOps)
	warm := newWritePathPlan(spec, spec.Banks, 256*spec.Banks)
	for _, workers := range writePathWorkers {
		dev, err := core.NewDevice(spec)
		if err != nil {
			return nil, err
		}
		if err := dev.SetApproxRegion(0, spec.Size()); err != nil {
			return nil, err
		}
		dev.SetThreshold(rep.Threshold)
		warm.run(dev, workers) // prime the buffer pool outside the timed region
		elapsed, allocs, device := plan.run(dev, workers)
		ops := (totalOps / spec.Banks) * spec.Banks
		rep.Rows = append(rep.Rows, WritePathRow{
			Workers:         workers,
			Ops:             ops,
			NsPerOp:         float64(elapsed.Nanoseconds()) / float64(ops),
			OpsPerSec:       float64(ops) / elapsed.Seconds(),
			AllocsPerOp:     float64(allocs) / float64(ops),
			DeviceMillis:    float64(device.Nanoseconds()) / 1e6,
			DeviceOpsPerSec: float64(ops) / device.Seconds(),
		})
	}
	hostBase := rep.Rows[0].OpsPerSec
	devBase := rep.Rows[0].DeviceOpsPerSec
	for i := range rep.Rows {
		rep.Rows[i].HostSpeedup = rep.Rows[i].OpsPerSec / hostBase
		rep.Rows[i].Speedup = rep.Rows[i].DeviceOpsPerSec / devBase
	}
	if err := runHostScaling(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// writePathAsyncDepth is the async-commit queue depth of the host-scaling
// rows: deep enough that group commit forms full batches, shallow enough
// that a Flush drains in microseconds.
const writePathAsyncDepth = 8

// runHostScaling measures the host-throughput section: serial, concurrent
// and async group commit at bank counts 4, 8 and 16, each at GOMAXPROCS =
// NumCPU. The serial row of each bank count is the baseline its
// host_speedup column divides by.
func runHostScaling(cfg Config, rep *WritePathReport) error {
	totalOps := 40960
	if cfg.Quick {
		totalOps = 8192
	}
	modes := []struct {
		mode   string
		fanout bool // workers = banks (otherwise 1)
		depth  int
	}{
		{"serial", false, 0},
		{"concurrent", true, 0},
		{"async", true, writePathAsyncDepth},
	}
	for _, banks := range []int{4, 8, 16} {
		spec := cfg.applyCell(writePathSpec())
		spec.Banks = banks
		plan := newWritePathPlan(spec, banks, totalOps)
		warm := newWritePathPlan(spec, banks, 256*banks)
		var base float64
		for _, m := range modes {
			opts := []core.Option{}
			if m.depth > 0 {
				opts = append(opts, core.WithAsyncCommit(m.depth))
			}
			dev, err := core.NewDevice(spec, opts...)
			if err != nil {
				return err
			}
			if err := dev.SetApproxRegion(0, spec.Size()); err != nil {
				return err
			}
			dev.SetThreshold(rep.Threshold)
			workers := 1
			if m.fanout {
				workers = banks
			}
			warm.runMode(dev, workers, m.depth)
			elapsed, allocs, device := plan.runMode(dev, workers, m.depth)
			if m.depth > 0 {
				if err := dev.Close(); err != nil {
					return err
				}
			}
			ops := (totalOps / banks) * banks
			row := HostScalingRow{
				Mode:            m.mode,
				Banks:           banks,
				Workers:         workers,
				Depth:           m.depth,
				Ops:             ops,
				NsPerOp:         float64(elapsed.Nanoseconds()) / float64(ops),
				OpsPerSec:       float64(ops) / elapsed.Seconds(),
				AllocsPerOp:     float64(allocs) / float64(ops),
				DeviceMillis:    float64(device.Nanoseconds()) / 1e6,
				DeviceOpsPerSec: float64(ops) / device.Seconds(),
			}
			if m.mode == "serial" {
				base = row.OpsPerSec
			}
			row.HostSpeedup = row.OpsPerSec / base
			rep.HostScaling = append(rep.HostScaling, row)
		}
	}
	return nil
}

// Check gates BENCH_writepath.json: the tentpole claim — at `banks`
// workers the device-time speedup over 1 worker is at least 2× — and a
// host-scaling section whose every row names a known mode and runs
// allocation-free, since the steady-state commit paths are pooled end to
// end and any per-op allocation is a regression.
func (r *WritePathReport) Check() error {
	i := slices.IndexFunc(r.Rows, func(row WritePathRow) bool { return row.Workers == r.Banks })
	if i < 0 {
		return fmt.Errorf("no row with workers == banks (%d)", r.Banks)
	}
	if sp := r.Rows[i].Speedup; sp < 2 {
		return fmt.Errorf("speedup at %d workers is %.2f, want >= 2", r.Banks, sp)
	}
	if len(r.HostScaling) == 0 {
		return fmt.Errorf("host_scaling is empty")
	}
	for i, h := range r.HostScaling {
		if h.Mode != "serial" && h.Mode != "concurrent" && h.Mode != "async" {
			return fmt.Errorf("host_scaling[%d]: unknown mode %q", i, h.Mode)
		}
		if h.AllocsPerOp > 0.5 {
			return fmt.Errorf("host_scaling[%d] (%s, %d banks): %.2f allocs/op, want ~0", i, h.Mode, h.Banks, h.AllocsPerOp)
		}
	}
	return nil
}

// ExpWritePath is the registry wrapper: the report as a rendered table.
func ExpWritePath(cfg Config) (*Table, error) {
	rep, err := RunWritePath(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "writepath",
		Title:   "bank-sharded commit throughput: serial vs concurrent workers",
		Columns: []string{"workers", "ops", "host ns/op", "allocs/op", "device ms", "device ops/sec", "speedup"},
	}
	for _, r := range rep.Rows {
		t.AddRow(fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%d", r.Ops),
			f1(r.NsPerOp), f2(r.AllocsPerOp),
			f1(r.DeviceMillis), f1(r.DeviceOpsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("device: %d banks × %d pages of %dB, threshold %g, GOMAXPROCS %d",
			rep.Banks, rep.NumPages/rep.Banks, rep.PageSize, rep.Threshold, rep.GoMaxProc),
		"speedup is in simulated device time (banks overlap datasheet busy time); host wall-clock scaling additionally depends on CPU count",
		"8 workers saturate: two workers share each bank's serial execution unit")
	for _, r := range rep.HostScaling {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"host_scaling %-13s banks=%-2d workers=%-2d  %8.0f ops/s  %.2f allocs/op  %.2fx vs serial",
			r.Mode, r.Banks, r.Workers, r.OpsPerSec, r.AllocsPerOp, r.HostSpeedup))
	}
	return t, nil
}
