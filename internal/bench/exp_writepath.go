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
// sharded device. Device metrics come from the simulator's datasheet timing
// model, where ops on different banks overlap, and are deterministic; they
// are the artifact. Host metrics (ns/op, allocs) depend on the machine the
// benchmark runs on, so they are printed in the table and never committed —
// BenchmarkWritePath* in internal/core measures host cost.
type WritePathRow struct {
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"-"`
	AllocsPerOp float64 `json:"-"`
	HostSpeedup float64 `json:"-"`

	DeviceMillis    float64 `json:"device_ms"`
	DeviceOpsPerSec float64 `json:"device_ops_per_sec"`
	Speedup         float64 `json:"speedup_vs_1_worker"`
}

// WritePathReport is the machine-readable result written to
// BENCH_writepath.json: serial (1 worker) versus multi-worker commit
// throughput on a bank-sharded device.
type WritePathReport struct {
	Banks     int            `json:"banks"`
	PageSize  int            `json:"page_size"`
	NumPages  int            `json:"num_pages"`
	Threshold float64        `json:"threshold"`
	GoMaxProc int            `json:"-"`
	NumCPU    int            `json:"-"`
	Rows      []WritePathRow `json:"rows"`
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

func newWritePathPlan(spec flash.Spec, totalOps int) writePathPlan {
	banks := spec.Banks
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
			<-ready
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
	plan := newWritePathPlan(spec, totalOps)
	warm := newWritePathPlan(spec, 256*spec.Banks)
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
			AllocsPerOp:     float64(allocs) / float64(ops),
			DeviceMillis:    float64(device.Nanoseconds()) / 1e6,
			DeviceOpsPerSec: float64(ops) / device.Seconds(),
		})
	}
	hostBase := rep.Rows[0].NsPerOp
	devBase := rep.Rows[0].DeviceOpsPerSec
	for i := range rep.Rows {
		rep.Rows[i].HostSpeedup = hostBase / rep.Rows[i].NsPerOp
		rep.Rows[i].Speedup = rep.Rows[i].DeviceOpsPerSec / devBase
	}
	return rep, nil
}

// Check gates BENCH_writepath.json on the tentpole claim: at `banks`
// workers the device-time speedup over 1 worker is at least 2×.
func (r *WritePathReport) Check() error {
	i := slices.IndexFunc(r.Rows, func(row WritePathRow) bool { return row.Workers == r.Banks })
	if i < 0 {
		return fmt.Errorf("no row with workers == banks (%d)", r.Banks)
	}
	if sp := r.Rows[i].Speedup; sp < 2 {
		return fmt.Errorf("speedup at %d workers is %.2f, want >= 2", r.Banks, sp)
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
		Columns: []string{"workers", "ops", "host ns/op", "allocs/op", "host speedup", "device ms", "device ops/sec", "speedup"},

		HostColumns: []string{"host ns/op", "allocs/op", "host speedup"},
	}
	for _, r := range rep.Rows {
		t.AddRow(fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%d", r.Ops),
			f1(r.NsPerOp), f2(r.AllocsPerOp), fmt.Sprintf("%.2fx", r.HostSpeedup),
			f1(r.DeviceMillis), f1(r.DeviceOpsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	t.AddHostNote(fmt.Sprintf("device: %d banks × %d pages of %dB, threshold %g; host: GOMAXPROCS %d of %d CPUs",
		rep.Banks, rep.NumPages/rep.Banks, rep.PageSize, rep.Threshold, rep.GoMaxProc, rep.NumCPU))
	t.Notes = append(t.Notes,
		"speedup is in simulated device time (banks overlap datasheet busy time); host wall-clock scaling additionally depends on CPU count",
		"8 workers saturate: two workers share each bank's serial execution unit")
	return t, nil
}
