// Package flipbit is a simulation library for FlipBit — approximate flash
// memory for IoT devices (Buck, Ganesan, Enright Jerger; HPCA 2024).
//
// Flash memory can clear bits (1 → 0) with a cheap byte program, but
// setting a bit (0 → 1) forces a page erase that is ~340× slower, ~360×
// more energetic, and wears the device out. FlipBit exploits this
// asymmetry: instead of writing an exact value, the flash controller writes
// the closest value reachable using only 1 → 0 transitions, as long as the
// page's mean absolute error stays under a programmer-supplied threshold.
//
// The package covers what an application drives:
//
//   - Device: a NOR flash chip with the FlipBit controller attached
//     (configuration registers, commit path, statistics), with the
//     encoder, observer and health-gate options;
//   - Spec: the flash part model (geometry and bank count, Table I
//     latency/energy, endurance);
//   - the approximation encoders of §III-A (1-bit, n-bit, optimal, and the
//     MLC n-cell variant of §VI);
//   - the op-event bus and its subscribers (Observer, Ledger);
//   - endurance management: the Scrubber's drift census and the
//     wear-leveling FTL with a spare pool;
//   - the log-structured key-value store with GC, checkpoints and
//     in-flash predicate scans.
//
// Fault injection, cell-density derating and the controller ablation
// knobs stay internal; the experiment harness drives them directly.
//
// Quickstart:
//
//	dev, err := flipbit.NewDevice(flipbit.DefaultSpec())
//	if err != nil { ... }
//	dev.SetApproxRegion(0, 4096)        // like the linker script of Listing 2
//	dev.SetWidth(flipbit.W8)            // the variable-type register
//	dev.SetThreshold(2)                 // setApproxThreshold(2) of Listing 1
//	err = dev.Write(0, sensorData)      // may approximate, never erases if it can help it
//	_ = dev.Read(0, buf)
//	stats := dev.Flash().Stats()        // erases, programs, energy, busy time
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/flipbit; runnable scenarios are under examples/.
package flipbit

import (
	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/kvs"
)

// Device is a flash chip with the FlipBit controller attached. See
// internal/core for the commit-path documentation.
type Device = core.Device

// Option configures a Device at construction.
type Option = core.Option

// Spec describes a flash part: geometry, datasheet timing/energy, and
// endurance.
type Spec = flash.Spec

// FlashStats counts flash operations and their energy/latency cost.
type FlashStats = flash.Stats

// Encoder produces an erase-free approximation of a value given the
// previous cell contents.
type Encoder = approx.Encoder

// Width is the logical width of values stored in the approximatable region.
type Width = bits.Width

// Supported value widths (the §III-C variable-type register).
const (
	W8  = bits.W8
	W16 = bits.W16
	W32 = bits.W32
)

// Observer receives one OpEvent per flash operation from the op-event bus.
// Implementations must be safe for concurrent use: banks emit in parallel.
type Observer = flash.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = flash.ObserverFunc

// OpEvent describes one flash operation: kind, bank, address, cost.
type OpEvent = flash.OpEvent

// OpKind discriminates OpEvent records.
type OpKind = flash.OpKind

// Operation kinds carried by OpEvent.Kind.
const (
	OpRead        = flash.OpRead
	OpProgram     = flash.OpProgram
	OpProgramSkip = flash.OpProgramSkip
	OpErase       = flash.OpErase
)

// Ledger is a concurrency-safe energy accounting sink; subscribe one with
// NewLedgerObserver to meter a device's energy per operation kind.
type Ledger = energy.Ledger

// NewLedgerObserver adapts a Ledger into an Observer for WithObserver or
// Device.Flash().Attach.
func NewLedgerObserver(l *Ledger) Observer { return flash.NewLedgerObserver(l) }

// NewDevice builds a FlipBit device over a fresh (fully erased) flash array
// described by spec. Approximation starts disabled; configure it with
// SetApproxRegion, SetWidth and SetThreshold.
func NewDevice(spec Spec, opts ...Option) (*Device, error) {
	return core.NewDevice(spec, opts...)
}

// DefaultSpec returns the embedded NOR part the paper evaluates against:
// 256-byte pages, Table I latency and energy, 100k-cycle endurance.
func DefaultSpec() Spec { return flash.DefaultSpec() }

// WithEncoder selects the approximation encoder (default: 2-bit).
func WithEncoder(e Encoder) Option { return core.WithEncoder(e) }

// WithObserver attaches an observer to the device's op-event bus at
// construction, before any operation can be missed.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// NewNBitEncoder returns the n-bit approximation encoder of Algorithm 2
// (1 <= n <= 8). n = 2 is the paper's headline configuration.
func NewNBitEncoder(n int) (Encoder, error) { return approx.NewNBit(n) }

// NewOneBitEncoder returns Algorithm 1, the simplest scalable encoder.
func NewOneBitEncoder() Encoder { return approx.OneBit{} }

// NewOptimalEncoder returns the minimum-error encoder (the paper's baseline
// formulation, solved in O(width) rather than by subset enumeration).
func NewOptimalEncoder() Encoder { return approx.Optimal{} }

// NewMLCEncoder returns the n-cell approximation encoder for multi-level
// cell flash (§VI).
func NewMLCEncoder(nCells int) (Encoder, error) { return approx.NewNCell(nCells) }

// ErrPowerLoss is reported by an operation interrupted by an injected
// power loss (Device.Flash().InjectPowerLoss); the flash array is left in
// the torn state the real event would leave.
var ErrPowerLoss = flash.ErrPowerLoss

// CortexM0Plus returns the reference MCU power model used throughout the
// paper's energy comparisons (2.275 mW @ 48 MHz).
func CortexM0Plus() energy.CPUModel { return energy.CortexM0Plus() }

// --- Endurance management: health, scrubbing, retirement ---

// Additional operation kinds of the op-event bus. Retirements emit
// OpRetire; OpScrub is reserved, since the scrubber only reads.
const (
	OpScrub  = flash.OpScrub
	OpRetire = flash.OpRetire
)

// ErrExactDegraded is returned by a health-gated device (WithHealthGate)
// when exact data would land on a degraded page — or when the erase an
// exact commit needs would push a page past its endurance rating.
// Approximate writes keep flowing onto degraded pages.
var ErrExactDegraded = core.ErrExactDegraded

// ErrPageRetired is returned by programs and erases against a page the
// management layer has taken out of service; reads still work.
var ErrPageRetired = flash.ErrPageRetired

// ErrWornOut is returned once a page has exceeded its endurance and can no
// longer be erased reliably.
var ErrWornOut = flash.ErrWornOut

// ScrubConfig parameterises a Scrubber: the drifted-cell budget
// approximatable pages may absorb.
type ScrubConfig = core.ScrubConfig

// Scrubber is a read-only drift census: it samples pages and counts each
// as clean, absorbed (approximate data living with drift inside its
// budget) or unabsorbed, changing nothing on the device. Data is repaired
// where it is read or written: the KVS's CRC repair and the FTL's
// retire-on-write-failure. The caller drives it with ScrubBank(bank, n);
// it is safe to call alongside writes.
type Scrubber = core.Scrubber

// WithHealthGate makes the commit path consult page health: exact data is
// refused on degraded (or about-to-die) pages with ErrExactDegraded, while
// approximate data keeps flowing onto them — graceful degradation instead
// of silent corruption.
func WithHealthGate() Option { return core.WithHealthGate() }

// NewScrubber builds a scrubber over an existing device.
func NewScrubber(d *Device, cfg ScrubConfig) *Scrubber { return core.NewScrubber(d, cfg) }

// --- Wear-leveling FTL with a spare pool ---

// FTL is a page-mapped flash translation layer providing wear-leveling
// and bad-page retirement onto a spare pool. Construct with NewFTL.
type FTL = ftl.FTL

// FTLOption configures an FTL at construction.
type FTLOption = ftl.Option

// NewFTL builds a volatile (RAM-mapped) wear-leveling FTL over dev.
func NewFTL(dev *Device, opts ...FTLOption) *FTL { return ftl.New(dev, opts...) }

// WithSparePages reserves n physical pages as a retirement pool: worn or
// health-refused pages are remapped onto spares with their data intact.
func WithSparePages(n int) FTLOption { return ftl.WithSpares(n) }

// WithSwapDelta sets the wear gap (in erase cycles) that triggers a
// hot/cold leveling swap.
func WithSwapDelta(d uint32) FTLOption { return ftl.WithSwapDelta(d) }

// --- Log-structured key-value store ---

// KVStore is the crash-safe log-structured key-value store over a device:
// append-only record log, single-bit read repair, proactive garbage
// collection, and journaled index checkpoints for O(tail) mounts. See
// internal/kvs for the record and checkpoint formats.
type KVStore = kvs.Store

// KVOption configures a KVStore at mount.
type KVOption = kvs.Option

// KVStats counts store operations, recovery events, GC passes, and
// checkpoint activity.
type KVStats = kvs.Stats

// CompactionConfig tunes the store's garbage collector: free-page trigger,
// store-wide garbage-ratio trigger, the per-victim garbage floor, and the
// wear bias. The zero value selects sensible defaults.
type CompactionConfig = kvs.CompactionConfig

// CheckpointConfig arms index checkpointing: pages per ping-pong slot,
// the append interval between automatic checkpoints, and a scan-only escape
// hatch for differential testing.
type CheckpointConfig = kvs.CheckpointConfig

// Store errors.
var (
	// ErrKVNotFound is returned by Get/Delete for an absent key.
	ErrKVNotFound = kvs.ErrNotFound
	// ErrKVFull is returned when an append cannot fit even after GC.
	ErrKVFull = kvs.ErrFull
	// ErrKVCorrupt is returned when a record is corrupt beyond the
	// single-bit repair the store attempts on read.
	ErrKVCorrupt = kvs.ErrCorrupt
	// ErrKVDeviceReadOnly is returned once the device is too worn to
	// relocate data: the store refuses writes instead of risking loss.
	ErrKVDeviceReadOnly = kvs.ErrDeviceReadOnly
	// ErrKVNoCheckpoint is returned by Checkpoint when checkpointing was
	// not configured at mount.
	ErrKVNoCheckpoint = kvs.ErrNoCheckpoint
)

// OpenKVS mounts the store on a device, replaying the record log (or the
// newest valid checkpoint plus the log tail, when WithKVCheckpoint is armed).
func OpenKVS(dev *Device, opts ...KVOption) (*KVStore, error) {
	return kvs.Open(dev, opts...)
}

// WithKVCompaction arms proactive garbage collection: when free pages run
// low or dead records pile up, the store compacts its best victim page
// (most garbage, least wear) inline with the triggering write.
func WithKVCompaction(cfg CompactionConfig) KVOption { return kvs.WithCompaction(cfg) }

// WithKVCheckpoint arms index checkpointing into two ping-pong slots at the
// end of the page array: mounts restore the newest valid checkpoint and
// replay only the log tail written since, falling back to a full scan if no
// slot survives.
func WithKVCheckpoint(cfg CheckpointConfig) KVOption { return kvs.WithCheckpoint(cfg) }

// WithKVVerify makes every commit read back and verify what it wrote.
func WithKVVerify() KVOption { return kvs.WithVerify() }

// In-storage compute: the multi-page bitwise sense primitive and the
// predicate-pushdown scan surface built on it. A sense activates up to
// Spec.MaxSensePages wordlines of one bank simultaneously and resolves
// their bitwise AND or OR on the bitlines, charged once per sense instead
// of once per page — the primitive bitmap-index scans ride on. See
// internal/isc for the bitmap layout and the planner.

// SenseOp selects the bitline combination of a multi-page sense.
type SenseOp = flash.SenseOp

const (
	// SenseAND resolves the bitwise AND of the sensed pages.
	SenseAND = flash.SenseAND
	// SenseOR resolves the bitwise OR of the sensed pages.
	SenseOR = flash.SenseOR
)

// Pred is a predicate tree over indexed record fields, evaluated inside
// the flash array by KVStore.Scan.
type Pred = isc.Pred

// PredEq matches records whose field falls in the given bucket.
func PredEq(field string, bucket int) Pred { return isc.Eq(field, bucket) }

// PredIn matches records whose field falls in any of the given buckets.
func PredIn(field string, buckets ...int) Pred { return isc.In(field, buckets...) }

// PredAnd matches records satisfying every child predicate.
func PredAnd(ps ...Pred) Pred { return isc.And(ps...) }

// PredOr matches records satisfying any child predicate.
func PredOr(ps ...Pred) Pred { return isc.Or(ps...) }

// PredNot matches records failing the child predicate.
func PredNot(p Pred) Pred { return isc.Not(p) }

// KVIndexField declares one indexed record attribute: its bucket count and
// how a record's bucket is derived from its key and value.
type KVIndexField = kvs.IndexField

// KVIndexSpec configures the in-flash scan index.
type KVIndexSpec = kvs.IndexSpec

// KVPair is one KVStore.Scan result.
type KVPair = kvs.KV

// WithKVScanIndex arms predicate-pushdown scans: per-(field,bucket)
// bitmaps are kept in a carved flash region and Scan evaluates predicates
// inside the array with multi-page senses, reading only matching records.
// Backends that cannot sense (the FTL's remapping would scramble the
// layout) silently fall back to exact host scans.
func WithKVScanIndex(spec KVIndexSpec) KVOption { return kvs.WithScanIndex(spec) }
