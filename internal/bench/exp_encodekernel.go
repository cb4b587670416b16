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

// The encodekernel experiment measures the table-driven batch encode
// kernels (internal/approx/kernel.go) against the per-value scalar
// reference path, at two levels:
//
//   - micro: EncodeSlice versus a LoadLE/Approximate/StoreLE loop over the
//     same random span, per encoder and width — the encode stage in
//     isolation;
//   - end-to-end: the serial write-path workload replayed on two devices,
//     one on the kernels (the default) and one forced onto the scalar path
//     with core.WithScalarEncode, with the controller statistics of both
//     required to match exactly. The comparison runs twice: once on the
//     SLC part with its default n-bit encoder, and once on the same part
//     derated to MLC with the n-cell encoder — the configuration that ran
//     scalar-only before the cell kernels existed.
//
// Results land in BENCH_encode.json; EncodeKernelReport.Check pins the
// acceptance invariants (≥3× on an n-bit micro row, ≥5× on an n-cell micro
// row, SLC e2e speedup ≥1, MLC e2e speedup ≥2, stats matched).

// EncodeKernelRow is one micro-benchmark configuration.
type EncodeKernelRow struct {
	Encoder          string  `json:"encoder"`
	Family           string  `json:"family"` // "nbit", "ncell", "onebit" or "exact"
	WidthBits        int     `json:"width_bits"`
	Values           int     `json:"values"`
	ScalarNsPerValue float64 `json:"scalar_ns_per_value"`
	KernelNsPerValue float64 `json:"kernel_ns_per_value"`
	Speedup          float64 `json:"speedup"`
}

// EncodeKernelReport is the machine-readable result written to
// BENCH_encode.json.
type EncodeKernelReport struct {
	Seed      uint64            `json:"seed"`
	SpanBytes int               `json:"span_bytes"`
	GoMaxProc int               `json:"gomaxprocs"`
	Rows      []EncodeKernelRow `json:"rows"`

	E2EOps           int     `json:"e2e_ops"`
	E2EScalarNsPerOp float64 `json:"e2e_scalar_ns_per_op"`
	E2EKernelNsPerOp float64 `json:"e2e_kernel_ns_per_op"`
	E2ESpeedup       float64 `json:"e2e_speedup"`

	// The MLC twin of the end-to-end comparison: the same workload on the
	// part derated to MLC with the n-cell encoder, where the scalar device
	// is exactly the pre-kernel MLC write path.
	E2EMLCOps           int     `json:"e2e_mlc_ops"`
	E2EMLCScalarNsPerOp float64 `json:"e2e_mlc_scalar_ns_per_op"`
	E2EMLCKernelNsPerOp float64 `json:"e2e_mlc_kernel_ns_per_op"`
	E2EMLCSpeedup       float64 `json:"e2e_mlc_speedup"`

	StatsMatch bool `json:"stats_match"`
}

// encodeKernelConfigs are the measured (encoder, width) pairs: the hot
// n-bit encoders at the widths the workloads use, plus OneBit and Exact.
func encodeKernelConfigs() []struct {
	enc    approx.Encoder
	family string
	w      bits.Width
} {
	return []struct {
		enc    approx.Encoder
		family string
		w      bits.Width
	}{
		{approx.OneBit{}, "onebit", bits.W32},
		{approx.MustNBit(2), "nbit", bits.W8},
		{approx.MustNBit(2), "nbit", bits.W32},
		{approx.MustNBit(8), "nbit", bits.W32},
		{approx.Exact{}, "exact", bits.W32},
		{approx.MustNCell(1), "ncell", bits.W32},
		{approx.MustNCell(2), "ncell", bits.W8},
		{approx.MustNCell(2), "ncell", bits.W32},
		{approx.MustNCell(4), "ncell", bits.W32},
	}
}

// RunEncodeKernel measures the kernels and returns the report.
func RunEncodeKernel(cfg Config) (*EncodeKernelReport, error) {
	const seed = 0xE4C0
	const span = 4096
	reps := 400
	e2eOps := 8192
	if cfg.Quick {
		reps = 50
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
		vb := c.w.Bytes()
		values := span / vb

		be.EncodeSlice(prev, exact, kernelOut, c.w) // derive lazy LUTs up front
		kStart := time.Now()
		for r := 0; r < reps; r++ {
			be.EncodeSlice(prev, exact, kernelOut, c.w)
		}
		kernelNs := float64(time.Since(kStart).Nanoseconds()) / float64(reps*values)

		sStart := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i+vb <= span; i += vb {
				p := bits.LoadLE(prev[i:], c.w)
				e := bits.LoadLE(exact[i:], c.w)
				bits.StoreLE(scalarOut[i:], c.enc.Approximate(p, e, c.w), c.w)
			}
		}
		scalarNs := float64(time.Since(sStart).Nanoseconds()) / float64(reps*values)

		// The speedup claim is only meaningful if both paths computed the
		// same thing; a mismatch poisons the whole artifact.
		if !bytes.Equal(kernelOut, scalarOut) {
			rep.StatsMatch = false
		}

		rep.Rows = append(rep.Rows, EncodeKernelRow{
			Encoder:          c.enc.Name(),
			Family:           c.family,
			WidthBits:        int(c.w),
			Values:           values,
			ScalarNsPerValue: scalarNs,
			KernelNsPerValue: kernelNs,
			Speedup:          scalarNs / kernelNs,
		})
	}

	// End-to-end: the serial write-path workload on a kernel device versus
	// a scalar-forced device. Same plan, same seed, same threshold. e2e
	// compares kernel (no extra options) against scalar (WithScalarEncode)
	// on the given spec and returns (kernel ns/op, scalar ns/op, ops).
	e2e := func(spec flash.Spec, opts ...core.Option) (float64, float64, int, error) {
		plan := newWritePathPlan(spec, spec.Banks, e2eOps)
		warm := newWritePathPlan(spec, spec.Banks, 256*spec.Banks)
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

// Check gates BENCH_encode.json. The speedup claims are void unless both
// paths computed identical outputs and identical controller statistics;
// given that, at least one n-bit micro row shows a ≥3× kernel speedup, at
// least one n-cell (MLC) micro row shows ≥5×, and neither end-to-end write
// path regressed, with the MLC path (scalar-only before the cell kernels)
// at least doubled.
func (r *EncodeKernelReport) Check() error {
	if !r.StatsMatch {
		return fmt.Errorf("kernel and scalar paths diverged; artifact is invalid")
	}
	bestNBit, bestNCell := 0.0, 0.0
	for _, row := range r.Rows {
		if row.Family == "nbit" {
			bestNBit = max(bestNBit, row.Speedup)
		}
		if row.Family == "ncell" {
			bestNCell = max(bestNCell, row.Speedup)
		}
	}
	if bestNBit < 3 {
		return fmt.Errorf("best n-bit kernel speedup is %.2f, want >= 3", bestNBit)
	}
	if bestNCell < 5 {
		return fmt.Errorf("best n-cell kernel speedup is %.2f, want >= 5", bestNCell)
	}
	if r.E2ESpeedup < 1 {
		return fmt.Errorf("end-to-end write path regressed: e2e_speedup %.2f < 1", r.E2ESpeedup)
	}
	if r.E2EMLCSpeedup < 2 {
		return fmt.Errorf("end-to-end MLC write path speedup %.2f, want >= 2", r.E2EMLCSpeedup)
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
		Title:   "batch encode kernels vs scalar per-value encoding",
		Columns: []string{"encoder", "width", "scalar ns/val", "kernel ns/val", "speedup"},
	}
	for _, r := range rep.Rows {
		t.AddRow(r.Encoder, fmt.Sprintf("%d", r.WidthBits),
			f2(r.ScalarNsPerValue), f2(r.KernelNsPerValue),
			fmt.Sprintf("%.1fx", r.Speedup))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("end-to-end serial write path: scalar %.0f ns/op, kernel %.0f ns/op (%.2fx), stats match: %v",
			rep.E2EScalarNsPerOp, rep.E2EKernelNsPerOp, rep.E2ESpeedup, rep.StatsMatch),
		fmt.Sprintf("end-to-end MLC write path (n-cell encoder): scalar %.0f ns/op, kernel %.0f ns/op (%.2fx)",
			rep.E2EMLCScalarNsPerOp, rep.E2EMLCKernelNsPerOp, rep.E2EMLCSpeedup),
		"kernel path: one EncodeSlice per page span with in-kernel stats; scalar path: LoadLE + Approximate + StoreLE per value",
		"outputs of both paths are compared in-run; a divergence clears stats_match and invalidates the artifact")
	return t, nil
}
