package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// The encodekernel experiment checks the table-driven batch encode kernel
// (internal/approx/kernel.go, one find-first-break chain over 1-bit cells
// for the n-bit encoders and 2-bit cells for the n-cell encoder) against
// the per-value scalar reference path, at two levels:
//
//   - per encoder and width: EncodeSlice versus a LoadLE/Approximate/StoreLE
//     loop over the same random span, whose outputs must be identical;
//   - end-to-end: the serial write-path workload replayed on two devices,
//     one on the kernels (the default) and one forced onto the scalar path
//     with core.WithScalarEncode, with the controller statistics of both
//     required to match exactly. The comparison runs twice: once on the
//     SLC part with its default n-bit encoder, and once on the same part
//     derated to MLC with the n-cell encoder — the configuration that ran
//     scalar-only before the cell kernels existed.
//
// Results land in BENCH_encode.json, which holds only what is the same on
// every host: the workload and whether both paths agreed. The end-to-end
// host timings are printed in the table and gated by TestEncodeKernelShape
// (SLC ≥1×, MLC ≥2×); the per-encoder speedups are measured by
// BenchmarkEncodeSlice*/BenchmarkEncodeScalar* and gated by
// TestEncodeSliceSpeedup in internal/approx.

// EncodeKernelReport is the machine-readable result written to
// BENCH_encode.json.
type EncodeKernelReport struct {
	Seed      uint64 `json:"seed"`
	SpanBytes int    `json:"span_bytes"`
	GoMaxProc int    `json:"-"`

	E2EOps           int     `json:"e2e_ops"`
	E2EScalarNsPerOp float64 `json:"-"`
	E2EKernelNsPerOp float64 `json:"-"`
	E2ESpeedup       float64 `json:"-"`

	// The MLC twin of the end-to-end comparison: the same workload on the
	// part derated to MLC with the n-cell encoder, where the scalar device
	// is exactly the pre-kernel MLC write path.
	E2EMLCOps           int     `json:"e2e_mlc_ops"`
	E2EMLCScalarNsPerOp float64 `json:"-"`
	E2EMLCKernelNsPerOp float64 `json:"-"`
	E2EMLCSpeedup       float64 `json:"-"`

	StatsMatch bool `json:"stats_match"`
}

// encodeKernelConfigs are the checked (encoder, width) pairs: the hot
// n-bit and n-cell encoders at the widths the workloads use, plus OneBit
// and Exact.
func encodeKernelConfigs() []struct {
	enc approx.Encoder
	w   bits.Width
} {
	return []struct {
		enc approx.Encoder
		w   bits.Width
	}{
		{approx.OneBit{}, bits.W32},
		{approx.MustNBit(2), bits.W8},
		{approx.MustNBit(2), bits.W32},
		{approx.MustNBit(8), bits.W32},
		{approx.Exact{}, bits.W32},
		{approx.MustNCell(1), bits.W32},
		{approx.MustNCell(2), bits.W8},
		{approx.MustNCell(2), bits.W32},
		{approx.MustNCell(4), bits.W32},
	}
}

// RunEncodeKernel runs both encode paths and returns the report.
func RunEncodeKernel(cfg Config) (*EncodeKernelReport, error) {
	const seed = 0xE4C0
	const span = 4096
	e2eOps := 8192
	if cfg.Quick {
		e2eOps = 2048
	}
	rep := &EncodeKernelReport{
		Seed:       seed,
		SpanBytes:  span,
		GoMaxProc:  runtime.GOMAXPROCS(0),
		StatsMatch: true,
	}

	rng := xrand.New(seed)
	prev := make([]byte, span)
	exact := make([]byte, span)
	kernelOut := make([]byte, span)
	scalarOut := make([]byte, span)
	for i := range prev {
		prev[i], exact[i] = rng.Byte(), rng.Byte()
	}

	for _, c := range encodeKernelConfigs() {
		be, ok := c.enc.(approx.BatchEncoder)
		if !ok {
			return nil, fmt.Errorf("%s has no batch kernel", c.enc.Name())
		}
		be.EncodeSlice(prev, exact, kernelOut, c.w)
		vb := c.w.Bytes()
		for i := 0; i+vb <= span; i += vb {
			p := bits.LoadLE(prev[i:], c.w)
			e := bits.LoadLE(exact[i:], c.w)
			bits.StoreLE(scalarOut[i:], c.enc.Approximate(p, e, c.w), c.w)
		}
		// Any speedup is only meaningful if both paths computed the same
		// thing; a mismatch poisons the whole artifact.
		if !bytes.Equal(kernelOut, scalarOut) {
			rep.StatsMatch = false
		}
	}

	// End-to-end: the serial write-path workload on a kernel device versus
	// a scalar-forced device. Same plan, same seed, same threshold. e2e
	// compares kernel (no extra options) against scalar (WithScalarEncode)
	// on the given spec and returns (kernel ns/op, scalar ns/op, ops).
	e2e := func(spec flash.Spec, opts ...core.Option) (float64, float64, int, error) {
		plan := newWritePathPlan(spec, e2eOps)
		warm := newWritePathPlan(spec, 256*spec.Banks)
		run := func(extra ...core.Option) (time.Duration, core.Stats, error) {
			d, err := core.NewDevice(spec, append(append([]core.Option{}, opts...), extra...)...)
			if err != nil {
				return 0, core.Stats{}, err
			}
			if err := d.SetApproxRegion(0, spec.Size()); err != nil {
				return 0, core.Stats{}, err
			}
			d.SetThreshold(4)
			warm.run(d, 1)
			d.ResetStats()
			elapsed, _, _ := plan.run(d, 1)
			return elapsed, d.Stats(), nil
		}
		kElapsed, kStats, err := run()
		if err != nil {
			return 0, 0, 0, err
		}
		sElapsed, sStats, err := run(core.WithScalarEncode())
		if err != nil {
			return 0, 0, 0, err
		}
		if kStats != sStats {
			rep.StatsMatch = false
		}
		ops := (e2eOps / spec.Banks) * spec.Banks
		return float64(kElapsed.Nanoseconds()) / float64(ops),
			float64(sElapsed.Nanoseconds()) / float64(ops), ops, nil
	}

	spec := cfg.applyCell(writePathSpec())
	kNs, sNs, ops, err := e2e(spec)
	if err != nil {
		return nil, err
	}
	rep.E2EOps = ops
	rep.E2EKernelNsPerOp = kNs
	rep.E2EScalarNsPerOp = sNs
	rep.E2ESpeedup = sNs / kNs

	// The MLC twin: same part derated to two bits per cell, encoding with
	// the n-cell window. Before the cell kernels this configuration was
	// pinned to the scalar path, so its speedup is the headline number.
	mlcSpec := flash.DensitySpec(writePathSpec(), flash.MLC)
	kNs, sNs, ops, err = e2e(mlcSpec, core.WithEncoder(approx.MustNCell(2)))
	if err != nil {
		return nil, err
	}
	rep.E2EMLCOps = ops
	rep.E2EMLCKernelNsPerOp = kNs
	rep.E2EMLCScalarNsPerOp = sNs
	rep.E2EMLCSpeedup = sNs / kNs
	return rep, nil
}

// Check gates BENCH_encode.json: both encode paths computed identical
// outputs and identical controller statistics.
func (r *EncodeKernelReport) Check() error {
	if !r.StatsMatch {
		return fmt.Errorf("kernel and scalar paths diverged; artifact is invalid")
	}
	return nil
}

// ExpEncodeKernel is the registry wrapper: the report as a rendered table.
func ExpEncodeKernel(cfg Config) (*Table, error) {
	rep, err := RunEncodeKernel(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "encodekernel",
		Title:   "batch encode kernels vs scalar per-value encoding, end to end",
		Columns: []string{"write path", "ops", "scalar ns/op", "kernel ns/op", "speedup"},

		HostColumns: []string{"scalar ns/op", "kernel ns/op", "speedup"},
	}
	t.AddRow("SLC (n-bit)", fmt.Sprintf("%d", rep.E2EOps),
		f1(rep.E2EScalarNsPerOp), f1(rep.E2EKernelNsPerOp), fmt.Sprintf("%.2fx", rep.E2ESpeedup))
	t.AddRow("MLC (n-cell)", fmt.Sprintf("%d", rep.E2EMLCOps),
		f1(rep.E2EMLCScalarNsPerOp), f1(rep.E2EMLCKernelNsPerOp), fmt.Sprintf("%.2fx", rep.E2EMLCSpeedup))
	t.AddHostNote(fmt.Sprintf("stats match: %v (%d encoder/width spans and both write paths); host: GOMAXPROCS %d",
		rep.StatsMatch, len(encodeKernelConfigs()), rep.GoMaxProc))
	t.Notes = append(t.Notes,
		"kernel path: one EncodeSlice per page span with in-kernel stats; scalar path: LoadLE + Approximate + StoreLE per value",
		"per-encoder kernel timings: go test ./internal/approx -bench 'EncodeSlice|EncodeScalar'")
	return t, nil
}
