package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// ErrorMetric selects the page-error statistic compared against the
// threshold register. The paper uses MAE because it is cheaper in hardware
// than MSE (§III-A4); MSE exists for the ablation bench.
type ErrorMetric int

// Supported error metrics.
const (
	MetricMAE ErrorMetric = iota
	MetricMSE
)

func (m ErrorMetric) String() string {
	if m == MetricMSE {
		return "MSE"
	}
	return "MAE"
}

// FallbackPolicy selects when a page abandons approximation and performs an
// exact erase-and-program. The paper gates on the mean error of the page;
// the per-value policy (ablation) falls back as soon as any single value
// exceeds the threshold.
type FallbackPolicy int

// Supported fallback policies.
const (
	FallbackPerPage FallbackPolicy = iota
	FallbackPerValue
)

func (p FallbackPolicy) String() string {
	if p == FallbackPerValue {
		return "per-value"
	}
	return "per-page"
}

// ErrExactDegraded is returned by the health-gated commit path
// (WithHealthGate) when exact data would land on a degraded page — one that
// has worn out or been retired. Approximate writes still proceed (stuck
// cells are just extra 1→0 flips inside the error budget); callers holding
// exact data must place it elsewhere.
var ErrExactDegraded = errors.New("core: page degraded; exact data refused")

// Stats aggregates the controller's decisions across committed pages.
type Stats struct {
	PagesApprox uint64 // pages committed with programs only (no erase)
	PagesExact  uint64 // pages that fell back to erase + exact program

	ValuesApproximated uint64 // values where approx != exact
	ValuesTotal        uint64 // values considered by the error check
	ErrorSum           uint64 // accumulated |exact - approx| over ValuesTotal

	// Health-gate accounting (zero unless WithHealthGate is configured).
	PagesDegraded uint64 // approximate commits routed onto degraded pages
	ExactRefused  uint64 // commits refused with ErrExactDegraded

	// Verify-retry accounting (zero unless WithRetry is configured).
	RetryAttempts uint64 // re-issued programs/erases after a transient verify failure
	RetrySaves    uint64 // operations that succeeded after at least one retry
	RetryRetired  uint64 // pages retired after exhausting the retry budget
}

// MAE returns the mean absolute error introduced across all checked values.
func (s Stats) MAE() float64 {
	if s.ValuesTotal == 0 {
		return 0
	}
	return float64(s.ErrorSum) / float64(s.ValuesTotal)
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.PagesApprox += o.PagesApprox
	s.PagesExact += o.PagesExact
	s.ValuesApproximated += o.ValuesApproximated
	s.ValuesTotal += o.ValuesTotal
	s.ErrorSum += o.ErrorSum
	s.PagesDegraded += o.PagesDegraded
	s.ExactRefused += o.ExactRefused
	s.RetryAttempts += o.RetryAttempts
	s.RetrySaves += o.RetrySaves
	s.RetryRetired += o.RetryRetired
}

// Device is a flash chip with the FlipBit controller attached. All writes
// go through the buffered commit pipeline of §III-B; reads pass straight
// through to the flash array.
//
// Read and Write are safe for concurrent use: commits to pages in
// different flash banks proceed in parallel, commits within one bank
// serialize on the bank's commit lock, and controller statistics are
// sharded per bank and merged deterministically, so a concurrent run
// reports totals identical to a serial run of the same per-bank workload.
// Configuration (SetApproxRegion, SetThreshold, SetEncoder, …) is not
// synchronised against in-flight writes: configure, then commit traffic.
type Device struct {
	fl  *flash.Device
	enc approx.Encoder

	// The four §III-C configuration registers ("two to store the start
	// and end address of the approximatable memory region, one for the
	// variable type, and one for the MAE threshold"), set only through
	// their validating setters: the region [approxStart, approxEnd), the
	// value width, and the threshold in Q16.16 fixed point.
	approxStart, approxEnd int
	width                  bits.Width
	threshold              uint32

	// cell caches the flash spec's cell mode (immutable after
	// construction) so the commit hot path never re-copies the Spec.
	cell flash.CellMode

	metric   ErrorMetric
	fallback FallbackPolicy

	// scalarEncode forces the per-value reference encode path even when
	// the encoder carries a batch kernel (WithScalarEncode).
	scalarEncode bool

	// commitMu serializes commit sessions per bank; shards are the
	// matching per-bank controller statistics, each guarded by its
	// bank's commit lock.
	commitMu []sync.Mutex
	shards   []Stats

	// bufPool recycles commit-session buffer sets; commits borrow a set
	// for the duration of one page session instead of contending for the
	// two fixed SRAM buffers of the serial design.
	bufPool sync.Pool

	// healthGate, when set, makes commitPage consult page health: exact
	// data is refused on degraded pages with ErrExactDegraded while
	// approximate data keeps flowing onto them.
	healthGate bool

	// retryMax/retryBackoff parameterise the verify-retry policy
	// (WithRetry): programs and erases that fail with flash.ErrTransient
	// are re-issued up to retryMax times with a linearly growing backoff
	// charged to the device-time ledger; exhausting the budget retires
	// the page instead of failing the write.
	retryMax     int
	retryBackoff time.Duration

	// Construction-time option state.
	observers []flash.Observer
}

// commitBuffers is the SRAM triple one page commit works on: the page's
// previous contents, the exact data after the CPU's stores, and the
// approximation candidate.
type commitBuffers struct {
	previous []byte
	exact    []byte
	approx   []byte
}

// Option configures a Device at construction.
type Option func(*Device)

// WithEncoder selects the approximation encoder (default: 2-bit n-bit
// algorithm, the configuration the paper evaluates most).
func WithEncoder(e approx.Encoder) Option { return func(d *Device) { d.enc = e } }

// WithErrorMetric selects MAE (default) or MSE page gating.
func WithErrorMetric(m ErrorMetric) Option { return func(d *Device) { d.metric = m } }

// WithFallbackPolicy selects per-page (default) or per-value fallback.
func WithFallbackPolicy(p FallbackPolicy) Option { return func(d *Device) { d.fallback = p } }

// WithObserver attaches an operation-event observer to the underlying
// flash device at construction. The observer receives every flash
// operation the controller issues; it must be safe for concurrent use if
// the device is driven from multiple goroutines.
func WithObserver(o flash.Observer) Option {
	return func(d *Device) { d.observers = append(d.observers, o) }
}

// WithHealthGate makes the commit path consult page health: commits that
// would place exact data on a degraded (worn-out or retired) page fail with
// ErrExactDegraded instead of writing data an upcoming erase would corrupt,
// while approximate commits keep flowing onto degraded pages — the paper's
// graceful-degradation story. The gate is also predictive: an exact commit
// that needs an erase on a page already at its endurance rating is refused
// *before* that erase kills the page, so acknowledged data is never
// destroyed by a doomed rewrite. Off by default, preserving the classic
// best-effort ErrWornOut behaviour.
func WithHealthGate() Option { return func(d *Device) { d.healthGate = true } }

// WithRetry installs the verify-retry policy on the commit and erase paths:
// a program or erase whose verify fails transiently (flash.ErrTransient) is
// re-issued up to max times, waiting backoff × attempt between issues (the
// wait is charged to the flash busy-time ledger via ChargeWait, so retries
// cost device time deterministically). A page that exhausts the budget is
// handed to the retire machinery — the page is fenced and the caller sees
// ErrExactDegraded, which the FTL and the KVS already route around by
// placing the data elsewhere — instead of failing the write outright.
func WithRetry(max int, backoff time.Duration) Option {
	return func(d *Device) {
		d.retryMax = max
		d.retryBackoff = backoff
	}
}

// WithScalarEncode forces the commit pipeline's per-value reference encode
// path even when the configured encoder has a compiled batch kernel
// (approx.BatchEncoder). The kernels are bit-identical to the scalar
// encoders — property- and fuzz-tested — so this option exists for
// differential testing and for measuring the kernels' end-to-end impact
// (the encodekernel bench experiment), not for correctness.
func WithScalarEncode() Option { return func(d *Device) { d.scalarEncode = true } }

// NewDevice builds a FlipBit device over a fresh flash array described by
// spec. The controller starts with approximation disabled (empty region),
// width 8 and threshold 0.
func NewDevice(spec flash.Spec, opts ...Option) (*Device, error) {
	d := &Device{
		enc: approx.MustNBit(2),
	}
	d.width = bits.W8
	for _, o := range opts {
		o(d)
	}
	fl, err := flash.NewDevice(spec)
	if err != nil {
		return nil, err
	}
	d.fl = fl
	d.cell = fl.Spec().Cell
	for _, o := range d.observers {
		fl.Attach(o)
	}
	nb := fl.Banks()
	d.commitMu = make([]sync.Mutex, nb)
	d.shards = make([]Stats, nb)
	ps := fl.Spec().PageSize
	d.bufPool.New = func() any {
		return &commitBuffers{
			previous: make([]byte, ps),
			exact:    make([]byte, ps),
			approx:   make([]byte, ps),
		}
	}
	return d, nil
}

// MustNewDevice is NewDevice for configurations known to be valid.
func MustNewDevice(spec flash.Spec, opts ...Option) *Device {
	d, err := NewDevice(spec, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// Flash exposes the underlying flash device for statistics and inspection.
func (d *Device) Flash() *flash.Device { return d.fl }

// Stats returns a snapshot of the controller's decision counters: the
// per-bank shards merged in bank order. All counters are integers, so the
// merge is exact and a concurrent run that performed the same per-bank
// commits as a serial run reports identical totals.
func (d *Device) Stats() Stats {
	var s Stats
	for b := range d.shards {
		d.commitMu[b].Lock()
		s.add(d.shards[b])
		d.commitMu[b].Unlock()
	}
	return s
}

// ResetStats clears both controller and flash statistics. This is the
// deep reset: the controller's per-bank decision shards and every flash
// bank's operation ledger go to zero together, so before/after deltas line
// up across both layers. Flash wear counters are physical state and are
// preserved (see flash.Device.ResetStats). To clear only the flash ledger
// and keep the controller's decision history, call Flash().ResetStats().
func (d *Device) ResetStats() {
	for b := range d.shards {
		d.commitMu[b].Lock()
		d.shards[b] = Stats{}
		d.commitMu[b].Unlock()
	}
	d.fl.ResetStats()
}

// SetEncoder swaps the approximation encoder at run time (the synthesized
// hardware is run-time configurable for n = 1..8, §III-B).
func (d *Device) SetEncoder(e approx.Encoder) { d.enc = e }

// --- Convenience configuration (what setApproxThreshold() and the linker
// script of Listing 1/2 boil down to) ---

// SetApproxRegion marks [start, end) as approximatable. Both bounds must be
// page aligned. Setting an empty region disables approximation.
func (d *Device) SetApproxRegion(start, end int) error {
	ps := d.fl.Spec().PageSize
	if start < 0 || start > end || end > d.fl.Spec().Size() || start%ps != 0 || end%ps != 0 {
		return fmt.Errorf("%w: [%#x, %#x)", ErrBadRegion, start, end)
	}
	d.approxStart, d.approxEnd = start, end
	return nil
}

// SetWidth configures the value width used for approximation and error
// accounting.
func (d *Device) SetWidth(w bits.Width) error {
	if !w.Valid() {
		return fmt.Errorf("%w: got %d", ErrBadWidth, w)
	}
	d.width = w
	return nil
}

// Width returns the configured value width.
func (d *Device) Width() bits.Width { return d.width }

// SetThreshold sets the error threshold (MAE or MSE depending on metric) in
// value units. This is the library equivalent of setApproxThreshold() in
// Listing 1. Thresholds at or above 65536 saturate the Q16.16 register to
// ThresholdUnlimited, which disables the error gate.
func (d *Device) SetThreshold(t float64) {
	d.threshold = ThresholdToFixed(t)
}

// Approximatable reports whether the given page lies entirely in the
// configured approximatable region.
func (d *Device) Approximatable(page int) bool {
	base := d.fl.PageBase(page)
	return base >= d.approxStart && base+d.fl.Spec().PageSize <= d.approxEnd
}

// --- Data path ---

// Read fills dst from flash starting at addr (random access, as NOR
// supports; §II-C).
func (d *Device) Read(addr int, dst []byte) error {
	return d.fl.Read(addr, dst)
}

// SensePage performs a slow margin-aware controller sense of physical page
// p (dst must be one page): the read reference is shifted away from the
// threshold boundary, so marginal retention cells resolve to their stored
// value instead of flickering like they do on fast host reads. The
// hardened read path falls back to it when fast re-reads cannot settle a
// checksum, leaving only persistent damage for the single-bit repair to
// judge. Charged like any other full-page read.
func (d *Device) SensePage(p int, dst []byte) error {
	return d.fl.ReadPage(p, dst)
}

// Write stores data at addr through the FlipBit commit pipeline, splitting
// the access into page-sized sessions. Pages inside the approximatable
// region may be written approximately; all other pages are written exactly
// (with an erase only when physically required).
//
// A worn-out page reports flash.ErrWornOut but the write is still performed
// best-effort, so callers can continue and observe degraded data — exactly
// how a deployed device fails.
func (d *Device) Write(addr int, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	ps := d.fl.Spec().PageSize
	var wornOut error
	for len(data) > 0 {
		page := d.fl.PageOf(addr)
		off := addr - d.fl.PageBase(page)
		n := ps - off
		if n > len(data) {
			n = len(data)
		}
		if err := d.commitPage(page, off, data[:n]); err != nil {
			if errors.Is(err, flash.ErrWornOut) {
				wornOut = err
			} else {
				return err
			}
		}
		addr += n
		data = data[n:]
	}
	return wornOut
}

// --- Commit pipeline (§III-B "System Integration") ---
//
// One approximate page commit runs five explicit stages:
//
//	load   — read the page's previous contents into a pooled buffer set
//	apply  — the CPU's stores land in the exact buffer
//	encode — the approximation unit rewrites the approx buffer value by
//	         value from (previous, exact), tracking error
//	gate   — the error threshold / reachability decision (Fig. 9 hardware)
//	program/erase — the chosen buffer commits to the flash array
//
// An exact page needs no encode: it senses and programs only the stored
// span, and loads the whole page only when the span needs an erase
// (commitExact).
//
// A session borrows its three SRAM page buffers from a sync.Pool rather
// than sharing two fixed device buffers, so sessions against different
// flash banks run concurrently; the bank's commit lock keeps the
// read-modify-write atomic per bank.

// session carries one page commit through the pipeline stages.
type session struct {
	d    *Device
	page int
	off  int
	data []byte
	bufs *commitBuffers
}

// encodeResult is what the encode stage hands the gate stage.
type encodeResult struct {
	tracker      approx.ErrorTracker
	approximated uint64
	exceeded     bool // per-value policy tripped
	unreachable  bool // some approximated value needs an erase anyway
}

// commitPage runs one commit session for a single page: off/data describe
// the bytes the CPU stores into the exact buffer.
func (d *Device) commitPage(page, off int, data []byte) error {
	bank := d.fl.BankOf(page)
	d.commitMu[bank].Lock()
	defer d.commitMu[bank].Unlock()

	bufs := d.bufPool.Get().(*commitBuffers)
	defer d.bufPool.Put(bufs)
	s := &session{d: d, page: page, off: off, data: data, bufs: bufs}

	// Health gate (§II-B graceful degradation): a degraded page — worn
	// out or retired — must not receive exact data. Even a program-only
	// exact write is unsafe there: stuck cells silently corrupt the next
	// value that needs them at 1. Approximate commits continue below.
	degraded := d.healthGate && d.fl.Degraded(page)

	if !d.Approximatable(page) {
		return s.commitExact(bank, degraded)
	}

	// Stage 1: load. One array read is charged; the mirror into the
	// exact buffer is an SRAM copy.
	if err := s.load(); err != nil {
		return err
	}
	// Stage 2: apply the CPU's stores.
	s.apply()

	// Stage 3: encode the approximation candidate.
	enc := s.encode()

	// Stage 4: gate on the error threshold (Fig. 9 hardware).
	if s.gate(enc) {
		if degraded || (d.healthGate && d.fl.AtRating(page)) {
			// The erase fallback is doomed on a degraded page — the
			// erase sticks more cells and the exact program lands
			// corrupted — and equally doomed on a page at its rating,
			// where this very erase would be the one that kills it.
			// Refuse instead of silently destroying data.
			d.shards[bank].ExactRefused++
			return fmt.Errorf("page %d: %w", page, ErrExactDegraded)
		}
		d.shards[bank].PagesExact++
		return d.retryOp(bank, page, s.eraseProgramExact)
	}

	// Stage 5: approximate commit — programs only, no erase possible by
	// construction (every value is a bitwise subset of previous, so stuck
	// cells — already 0 in previous — are automatically respected).
	sh := &d.shards[bank]
	sh.PagesApprox++
	sh.ValuesApproximated += enc.approximated
	sh.ValuesTotal += uint64(enc.tracker.Count())
	sh.ErrorSum += enc.tracker.SumAbs()
	if degraded {
		sh.PagesDegraded++
	}
	return d.retryOp(bank, page, s.programApprox)
}

// retryOp runs one flash-committing operation under the verify-retry policy
// (WithRetry). A transient verify failure is re-issued up to retryMax times
// with a linearly growing backoff charged to the device-time ledger; state
// after a transient failure is recoverable by construction (every bit that
// moved, moved toward the target), so a re-issue picks up where the failed
// pulse stopped. A page that exhausts the budget is retired and the caller
// sees ErrExactDegraded — the signal the FTL's spare-pool remap and the
// KVS's tail-retirement already treat as "place this data elsewhere" — so
// the write as a whole still succeeds. Called with the page's bank commit
// lock held (the retry stats live in that bank's shard).
func (d *Device) retryOp(bank, page int, op func() error) error {
	err := op()
	if err == nil || d.retryMax <= 0 || !errors.Is(err, flash.ErrTransient) {
		return err
	}
	sh := &d.shards[bank]
	for attempt := 1; attempt <= d.retryMax; attempt++ {
		sh.RetryAttempts++
		d.fl.ChargeWait(bank, d.retryBackoff*time.Duration(attempt))
		err = op()
		if err == nil {
			sh.RetrySaves++
			return nil
		}
		if !errors.Is(err, flash.ErrTransient) {
			return err
		}
	}
	sh.RetryRetired++
	if rerr := d.fl.Retire(page); rerr != nil {
		return errors.Join(err, rerr)
	}
	return fmt.Errorf("page %d: retry budget exhausted (%v): %w", page, err, ErrExactDegraded)
}

// ErasePage erases page p through the verify-retry policy. Management
// layers (the FTL's garbage collector, the KVS's compaction and reclaim
// paths) route their erases here instead of hitting the flash device
// directly, so a transiently failing erase is retried with backoff and an
// exhausted page is retired rather than silently left half-erased.
func (d *Device) ErasePage(p int) error {
	bank := d.fl.BankOf(p)
	d.commitMu[bank].Lock()
	defer d.commitMu[bank].Unlock()
	return d.retryOp(bank, p, func() error { return d.fl.ErasePage(p) })
}

// commitExact commits a page outside the approximatable region. NOR flash
// programs bytes in place, so an exact store needs only the bytes it
// writes: the session senses the stored span [off, off+len(data)) into the
// previous buffer, and when every byte is reachable it programs just the
// span. Only a store that needs an erase loads the whole page, since the
// erase must re-program all of it.
func (s *session) commitExact(bank int, degraded bool) error {
	d := s.d
	if err := d.fl.SenseSpan(d.fl.PageBase(s.page)+s.off, s.prevSpan()); err != nil {
		return err
	}
	if degraded {
		d.shards[bank].ExactRefused++
		return fmt.Errorf("page %d: %w", s.page, ErrExactDegraded)
	}
	if !s.needsErase() {
		return d.retryOp(bank, s.page, s.programSpan)
	}
	// Predictive fencing: a page at its endurance rating is still healthy,
	// but the erase this commit needs would push it past the rating and
	// stick cells under the fresh exact data. Refuse while the data is
	// still intact somewhere.
	if d.healthGate && d.fl.AtRating(s.page) {
		d.shards[bank].ExactRefused++
		return fmt.Errorf("page %d: %w", s.page, ErrExactDegraded)
	}
	// A whole-page store already sensed the page; a partial one loads it.
	if len(s.data) < len(s.bufs.exact) {
		if err := s.load(); err != nil {
			return err
		}
	}
	s.apply()
	return d.retryOp(bank, s.page, s.eraseProgramExact)
}

// prevSpan is the previous-buffer window under the CPU's stores.
func (s *session) prevSpan() []byte {
	return s.bufs.previous[s.off : s.off+len(s.data)]
}

// load reads the page into the previous buffer and mirrors it into the
// exact and approx buffers.
func (s *session) load() error {
	if err := s.d.fl.ReadPage(s.page, s.bufs.previous); err != nil {
		return err
	}
	copy(s.bufs.exact, s.bufs.previous)
	copy(s.bufs.approx, s.bufs.previous)
	return nil
}

// apply lands the CPU's stores in the exact buffer.
func (s *session) apply() {
	copy(s.bufs.exact[s.off:], s.data)
}

// encode rewrites the approx buffer from (previous, exact), tracking error
// over the values the CPU actually touched. When the encoder carries a
// compiled batch kernel (approx.BatchEncoder) sound for the device's cell
// mode — see kernelEngages — the whole span is encoded in one EncodeSlice
// call with the statistics accumulated in-kernel; otherwise (encoders
// without kernels, mode/kernel mismatches, or WithScalarEncode) it falls
// back to the per-value reference loop, which doubles as the
// differential-test oracle for the kernels.
func (s *session) encode() encodeResult {
	d := s.d
	w := d.Width()
	lo, hi, batch := s.kernelSpan(w)
	if batch {
		return s.encodeBatch(d.enc.(approx.BatchEncoder), lo, hi, w)
	}
	// Devirtualize the hot encoders: the concrete-typed calls let the
	// compiler skip the interface dispatch per value (and inline the
	// trivial ones), which matters at one call per value per page.
	switch enc := d.enc.(type) {
	case approx.Exact:
		return encodeScalarLoop(enc, s, lo, hi, w)
	case approx.OneBit:
		return encodeScalarLoop(enc, s, lo, hi, w)
	case *approx.NBit:
		return encodeScalarLoop(enc, s, lo, hi, w)
	case *approx.NCell:
		return encodeScalarLoop(enc, s, lo, hi, w)
	default:
		return encodeScalarLoop(d.enc, s, lo, hi, w)
	}
}

// kernelEngages reports whether enc's compiled batch kernel is sound on a
// device with the given cell mode — both its outputs (must be programmable
// without an erase) and its Unreachable verdict must match what the scalar
// loop would conclude under that mode's reachability:
//
//   - the NCell kernel reasons per two-bit cell, so it engages only on
//     MLC: its outputs may set bits (10 → 01), which SLC cannot program,
//     and a legal MLC cell move can *raise* a TLC field (0b1000 → 0b0100
//     lifts TLC field 0 from 0 to 4).
//   - Exact's kernel judges reachability with the SLC word-wise subset
//     test, so it engages only on SLC; on denser modes that verdict is
//     pessimistic and would diverge from the scalar loop's.
//   - every other batch encoder (OneBit, NBit) emits bitwise subsets of
//     previous — reachable under every cell mode, Unreachable always
//     false, matching the scalar verdict — so they engage everywhere.
func kernelEngages(enc approx.Encoder, cell flash.CellMode) bool {
	if _, ok := enc.(approx.BatchEncoder); !ok {
		return false
	}
	switch enc.(type) {
	case *approx.NCell:
		return cell == flash.MLC
	case approx.Exact:
		return cell == flash.SLC
	default:
		return true
	}
}

// kernelSpan returns the value-aligned dirty span the encode stage covers
// and whether the compiled batch kernel applies to it (a batch encoder
// sound for the cell mode, no scalar override, and a whole number of
// values).
func (s *session) kernelSpan(w bits.Width) (lo, hi int, batch bool) {
	d := s.d
	vb := w.Bytes()
	lo, hi = alignDown(s.off, vb), alignUp(s.off+len(s.data), vb)
	if hi > len(s.bufs.exact) {
		hi = len(s.bufs.exact)
	}
	if !d.scalarEncode && (hi-lo)%vb == 0 {
		return lo, hi, kernelEngages(d.enc, d.cell)
	}
	return lo, hi, false
}

// encodeBatch runs the compiled kernel over the aligned dirty span and
// converts its in-kernel statistics to an encodeResult. BatchStats carries
// exactly the aggregates the scalar loop accumulates: the error sums feed
// the tracker, MaxAbs reproduces the per-value threshold test (some value
// exceeds the threshold iff the largest one does), and Unreachable mirrors
// the per-value reachability check (approx kernel outputs are reachable by
// construction under the cell mode they engage on, so it only fires for
// Exact on an unreachable span).
func (s *session) encodeBatch(be approx.BatchEncoder, lo, hi int, w bits.Width) encodeResult {
	st := be.EncodeSlice(s.bufs.previous[lo:hi], s.bufs.exact[lo:hi], s.bufs.approx[lo:hi], w)
	var res encodeResult
	res.tracker.AddBatch(st.Count, st.SumAbs, st.SumSq)
	res.approximated = st.Approximated
	res.unreachable = st.Unreachable
	if s.d.fallback == FallbackPerValue {
		threshold := s.d.threshold
		res.exceeded = threshold != ThresholdUnlimited &&
			uint64(st.MaxAbs)<<ThresholdFracBits > uint64(threshold)
	}
	return res
}

// encodeScalarLoop is the per-value reference encode stage, generic over
// the encoder's concrete type so session.encode's type switch devirtualizes
// the Approximate call. Loop invariants (cell mode, threshold register,
// fallback policy) are hoisted out of the loop.
func encodeScalarLoop[E approx.Encoder](enc E, s *session, lo, hi int, w bits.Width) encodeResult {
	d := s.d
	vb := w.Bytes()
	cell := d.cell
	threshold := d.threshold
	perValue := d.fallback == FallbackPerValue && threshold != ThresholdUnlimited
	var res encodeResult
	for i := lo; i < hi; i += vb {
		prev := bits.LoadLE(s.bufs.previous[i:], w)
		exact := bits.LoadLE(s.bufs.exact[i:], w)
		a := enc.Approximate(prev, exact, w)
		bits.StoreLE(s.bufs.approx[i:], a, w)
		res.tracker.Add(exact, a)
		if a != exact {
			res.approximated++
		}
		// Encoders may return a value that is not reachable through
		// program pulses when approximating it is unacceptable (e.g.
		// the float32 encoder protecting sign/exponent bits, §VI);
		// the hardware's per-page needs-erase signal forces the
		// exact fallback in that case.
		if !valueReachable(cell, prev, a, w) {
			res.unreachable = true
		}
		if perValue && uint64(bits.AbsDiff(exact, a))<<ThresholdFracBits > uint64(threshold) {
			res.exceeded = true
		}
	}
	return res
}

// gate decides whether the page must fall back to the exact erase path.
func (s *session) gate(enc encodeResult) bool {
	exceeded := enc.exceeded
	if s.d.fallback == FallbackPerPage {
		exceeded = s.d.overThreshold(&enc.tracker, s.d.threshold)
	}
	return exceeded || enc.unreachable
}

// programApprox commits the approximation candidate with programs only.
func (s *session) programApprox() error {
	return s.d.fl.ProgramPage(s.page, s.bufs.approx)
}

// needsErase reports whether the CPU's stores require an erase: some bit
// needs a 0→1 transition only an erase can provide. The exact buffer
// differs from previous only inside the dirty span the CPU stored, so only
// that span is scanned — the stored data against the previous span,
// word-wise for SLC cells, where reachability is the bitwise subset test
// over uint64 loads.
func (s *session) needsErase() bool {
	prev, exact := s.prevSpan(), s.data
	if s.d.cell == flash.SLC {
		return !bits.SubsetBytes(exact, prev)
	}
	for i, v := range exact {
		if !s.d.cell.Reachable(prev[i], v) {
			return true
		}
	}
	return false
}

// programSpan programs the CPU's stores in place with no erase: the
// conventional (non-FlipBit) write path and the fair baseline for every
// experiment. Bytes outside the span are neither sensed nor pulsed.
func (s *session) programSpan() error {
	return s.d.fl.ProgramSpan(s.d.fl.PageBase(s.page)+s.off, s.data)
}

// eraseProgramExact erases the page and programs the exact buffer: the
// approximation-failure fallback (§III-B specifies an exact write to an
// erased page) and the erase path of an exact commit.
func (s *session) eraseProgramExact() error {
	return s.d.fl.EraseProgramPage(s.page, s.bufs.exact)
}

// ThresholdUnlimited is the all-ones threshold register value; it disables
// the error gate entirely so every approximatable page commits erase-free.
const ThresholdUnlimited = ^uint32(0)

// overThreshold compares the page error statistic with the Q16.16 threshold
// using integer arithmetic, as the accumulator hardware would.
func (d *Device) overThreshold(tr *approx.ErrorTracker, threshold uint32) bool {
	if tr.Count() == 0 || threshold == ThresholdUnlimited {
		return false
	}
	switch d.metric {
	case MetricMSE:
		mse := tr.MSE()
		return mse > FixedToThreshold(threshold)
	default:
		return tr.SumAbs()<<ThresholdFracBits > uint64(threshold)*uint64(tr.Count())
	}
}

// valueReachable reports whether a width-w value can move from `from` to
// `to` with program pulses only. For SLC that is one word-wise subset test
// (to &^ from == 0, equivalent to the per-byte test since bytes don't
// interact); MLC needs the per-byte cell-level walk.
func valueReachable(m flash.CellMode, from, to uint32, w bits.Width) bool {
	if m == flash.SLC {
		return to&^from == 0
	}
	for i := 0; i < w.Bytes(); i++ {
		if !m.Reachable(byte(from>>uint(8*i)), byte(to>>uint(8*i))) {
			return false
		}
	}
	return true
}

func alignDown(v, a int) int { return v - v%a }

func alignUp(v, a int) int {
	if r := v % a; r != 0 {
		return v + a - r
	}
	return v
}
