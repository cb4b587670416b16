package flash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Errors returned by the device.
var (
	// ErrNeedsErase is returned by program operations that would require
	// a 0 → 1 transition, which only an erase can provide.
	ErrNeedsErase = errors.New("flash: program requires 0→1 transition; page must be erased first")
	// ErrWornOut is returned once a page has exceeded its endurance and
	// can no longer be erased reliably.
	ErrWornOut = errors.New("flash: page exceeded program/erase endurance")
	// ErrBounds is returned for out-of-range addresses or page numbers.
	ErrBounds = errors.New("flash: address out of range")
	// ErrPageSize is returned when a page operation is given a buffer
	// whose length is not exactly one page.
	ErrPageSize = errors.New("flash: buffer length must equal the page size")
	// ErrTransient is returned by a program or erase whose verify failed
	// transiently: the pulse's full cost was drawn and the array holds a
	// partial result, but state stays recoverable — re-issuing the same
	// operation can succeed. Controllers retry these before escalating
	// to retirement.
	ErrTransient = errors.New("flash: transient verify failure; retry may succeed")
)

// Stats counts flash operations and accumulates their energy and busy time.
type Stats struct {
	Reads           uint64 // bytes read
	Programs        uint64 // bytes programmed
	ProgramsSkipped uint64 // byte programs elided because the target value was already stored
	Erases          uint64 // pages erased
	Scrubs          uint64 // pages scrubbed by the management layer
	Retirements     uint64 // pages retired onto spares
	ProgramFails    uint64 // byte programs that failed verify transiently
	EraseFails      uint64 // page erases that failed verify transiently
	Waits           uint64 // retry backoff intervals charged to the busy ledger
	Senses          uint64 // multi-page bitwise senses (charged once per sense)
	PagesSensed     uint64 // wordlines covered by those senses

	Energy energy.Energy
	Busy   time.Duration
}

// Add returns the element-wise sum of two stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:           s.Reads + o.Reads,
		Programs:        s.Programs + o.Programs,
		ProgramsSkipped: s.ProgramsSkipped + o.ProgramsSkipped,
		Erases:          s.Erases + o.Erases,
		Scrubs:          s.Scrubs + o.Scrubs,
		Retirements:     s.Retirements + o.Retirements,
		ProgramFails:    s.ProgramFails + o.ProgramFails,
		EraseFails:      s.EraseFails + o.EraseFails,
		Waits:           s.Waits + o.Waits,
		Senses:          s.Senses + o.Senses,
		PagesSensed:     s.PagesSensed + o.PagesSensed,
		Energy:          s.Energy + o.Energy,
		Busy:            s.Busy + o.Busy,
	}
}

// Sub returns the element-wise difference s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:           s.Reads - o.Reads,
		Programs:        s.Programs - o.Programs,
		ProgramsSkipped: s.ProgramsSkipped - o.ProgramsSkipped,
		Erases:          s.Erases - o.Erases,
		Scrubs:          s.Scrubs - o.Scrubs,
		Retirements:     s.Retirements - o.Retirements,
		ProgramFails:    s.ProgramFails - o.ProgramFails,
		EraseFails:      s.EraseFails - o.EraseFails,
		Waits:           s.Waits - o.Waits,
		Senses:          s.Senses - o.Senses,
		PagesSensed:     s.PagesSensed - o.PagesSensed,
		Energy:          s.Energy - o.Energy,
		Busy:            s.Busy - o.Busy,
	}
}

// bank is one independently lockable shard of the device: real NOR/NAND
// parts expose internal bank/plane parallelism, and the simulator mirrors
// that structure so operations on different banks proceed concurrently.
// Pages are interleaved across banks round-robin (page p lives in bank
// p % Banks), and everything a page operation touches — the page's array
// bytes, wear counter, stats shard and fault RNG — is owned by exactly one
// bank and guarded by its lock.
type bank struct {
	mu    sync.Mutex
	stats statsShard
	// seq numbers the bank's event stream: every emitted event gets the
	// next value, so per-bank streams are gapless and totally ordered.
	seq uint64
	// obs is this bank's slice of the sharded op-event bus: the delivery
	// handles installed by Attach (observer.go). Events of this bank fan
	// out to exactly this list, under the bank's lock, so instrumentation
	// never serializes concurrent banks on a shared subscription path.
	obs []Observer
	// prevScratch holds the pre-program image of a span while its
	// program events are delivered (OpEvent.Prev aliases it).
	prevScratch []byte
	// rng drives the stuck-bit failure model for worn-out pages in this
	// bank. Per-bank so concurrent banks never share RNG state.
	rng *xrand.RNG
}

// Device is a simulated NOR flash chip: the memory array, wear counters,
// the bank shards and the operation event bus.
//
// Device is safe for concurrent use. Pages are partitioned across
// Spec.Banks banks (interleaved round-robin); operations on pages in
// different banks run in parallel, operations within one bank serialize on
// the bank's lock. Attach (and the detach function it returns) and
// SetProgramAll configure the device and must not race in-flight operations.
type Device struct {
	spec    Spec
	array   []byte
	wear    []uint32 // per-page erase count (guarded by the page's bank lock)
	dead    []bool   // per-page worn-out flag (guarded by the page's bank lock)
	retired []bool   // per-page retirement flag (guarded by the page's bank lock)
	drift   [][]byte // per-page fault-flip masks, nil until first flip (health.go)
	rise    [][]byte // per-page marginal-cell masks, nil until first leak (retention.go)
	banks   []bank

	// programAll, when set, charges a program pulse even for bytes whose
	// stored value already equals the target. Real buffered parts skip
	// those pulses; the flag exists for the skip-unchanged ablation.
	programAll bool

	// subs holds one ID per live Attach, in attach order, so a detach
	// function can find its per-bank delivery handles (observer.go).
	subs    []uint64
	nextSub uint64

	// Fault injection (faults.go): ftMu guards the fault scope against
	// concurrent arming and firing. faultsLive mirrors "the scope is live"
	// so fault-free operations skip ftMu entirely: a device-wide mutex on
	// every op would serialize the banks.
	ftMu       sync.Mutex
	faults     faultScope
	faultsLive atomic.Bool
}

// SetProgramAll toggles charging program pulses for unchanged bytes.
func (d *Device) SetProgramAll(v bool) { d.programAll = v }

// NewDevice builds a device from spec with every page erased (all ones),
// which is how flash leaves the factory. A spec with Banks == 0 gets
// DefaultBanks banks; the bank count is clamped to the page count.
func NewDevice(spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Banks == 0 {
		spec.Banks = DefaultBanks
	}
	if spec.Banks > spec.NumPages {
		spec.Banks = spec.NumPages
	}
	if spec.SenseLatency == 0 {
		spec.SenseLatency = 2 * spec.ReadLatency
	}
	if spec.SenseEnergy == 0 {
		spec.SenseEnergy = 2 * spec.ReadEnergy
	}
	if spec.MaxSensePages == 0 {
		spec.MaxSensePages = DefaultMaxSensePages
	}
	d := &Device{
		spec:    spec,
		array:   make([]byte, spec.Size()),
		wear:    make([]uint32, spec.NumPages),
		dead:    make([]bool, spec.NumPages),
		retired: make([]bool, spec.NumPages),
		drift:   make([][]byte, spec.NumPages),
		rise:    make([][]byte, spec.NumPages),
		banks:   make([]bank, spec.Banks),
	}
	for i := range d.array {
		d.array[i] = 0xFF
	}
	for b := range d.banks {
		d.banks[b].rng = xrand.New(0xF1A5 + uint64(b))
		d.banks[b].prevScratch = make([]byte, spec.PageSize)
	}
	return d, nil
}

// MustNewDevice is NewDevice for specs known to be valid.
func MustNewDevice(spec Spec) *Device {
	d, err := NewDevice(spec)
	if err != nil {
		panic(err)
	}
	return d
}

// Spec returns the device's specification (with the bank count normalised).
func (d *Device) Spec() Spec { return d.spec }

// Banks returns the number of banks the device operates.
func (d *Device) Banks() int { return len(d.banks) }

// BankOf returns the bank that owns page p. Pages are interleaved
// round-robin so consecutive pages land in different banks.
func (d *Device) BankOf(p int) int { return p % len(d.banks) }

// bankOfAddr returns the bank owning the page containing addr.
func (d *Device) bankOfAddr(addr int) int { return d.BankOf(d.PageOf(addr)) }

// Stats returns a snapshot of the operation ledger: the per-bank shards
// merged in bank order. The merge is deterministic, so a concurrent run
// that issues the same per-bank operation sequences as a serial run
// reports byte-identical totals.
func (d *Device) Stats() Stats {
	var s Stats
	for b := range d.banks {
		bk := &d.banks[b]
		bk.mu.Lock()
		s = s.Add(bk.stats.snapshot())
		bk.mu.Unlock()
	}
	return s
}

// BankStats returns the stats shard of bank b.
func (d *Device) BankStats(b int) Stats {
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return bk.stats.snapshot()
}

// ResetStats clears the operation ledger of every bank. Wear counters and
// worn-out flags are preserved: they are physical state, not accounting.
// Attached observers are unaffected (a Ledger keeps its totals).
func (d *Device) ResetStats() {
	for b := range d.banks {
		bk := &d.banks[b]
		bk.mu.Lock()
		bk.stats = statsShard{}
		bk.mu.Unlock()
	}
}

// PageOf returns the page number containing addr.
func (d *Device) PageOf(addr int) int { return addr / d.spec.PageSize }

// PageBase returns the first address of page p.
func (d *Device) PageBase(p int) int { return p * d.spec.PageSize }

func (d *Device) checkAddr(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > len(d.array) {
		return fmt.Errorf("%w: addr %#x len %d (size %#x)", ErrBounds, addr, n, len(d.array))
	}
	return nil
}

func (d *Device) checkPage(p int) error {
	if p < 0 || p >= d.spec.NumPages {
		return fmt.Errorf("%w: page %d of %d", ErrBounds, p, d.spec.NumPages)
	}
	return nil
}

// emit delivers one operation event: it is stamped with the bank's next
// sequence number, folded into the bank's stats shard, and fanned out to
// the bank's subscriber shard. Must be called with the bank's lock held,
// which totally orders events within a bank; events for different banks are
// delivered concurrently to independent shards, so nothing on this path is
// shared between banks.
func (d *Device) emit(ev OpEvent) {
	bk := &d.banks[ev.Bank]
	bk.seq++
	ev.Seq = bk.seq
	bk.stats.apply(ev)
	for _, o := range bk.obs {
		o.OnOp(ev)
	}
}

// ReadByteAt reads the byte at addr, charging read latency and energy. It
// is a one-byte Read.
func (d *Device) ReadByteAt(addr int) (byte, error) {
	var buf [1]byte
	err := d.Read(addr, buf[:])
	return buf[0], err
}

// Read fills dst from consecutive addresses starting at addr. A read that
// spans pages locks each page's bank in turn, so concurrent writers to
// other pages are never blocked for the whole transfer.
func (d *Device) Read(addr int, dst []byte) error {
	if err := d.checkAddr(addr, len(dst)); err != nil {
		return err
	}
	for off := 0; off < len(dst); {
		page := d.PageOf(addr + off)
		n := d.PageBase(page) + d.spec.PageSize - (addr + off)
		if n > len(dst)-off {
			n = len(dst) - off
		}
		b := d.BankOf(page)
		bk := &d.banks[b]
		bk.mu.Lock()
		copy(dst[off:off+n], d.array[addr+off:addr+off+n])
		d.flickerInto(b, page, addr+off, dst[off:off+n])
		d.emit(OpEvent{
			Kind: OpRead, Bank: b, Addr: addr + off, Bytes: n,
			Energy: d.spec.ReadEnergy * energy.Energy(n),
			Busy:   d.spec.ReadLatency * time.Duration(n),
		})
		if f, fired := d.faultHit(OpRead); fired {
			d.readFault(b, page, f)
		}
		bk.mu.Unlock()
		off += n
	}
	return nil
}

// ReadPage fills dst (exactly one page long) from page p, charging a page's
// worth of reads. This is step 1 of the read-modify-write operation (§II-A),
// performed into a caller-owned buffer. Unlike the host-facing Read paths,
// ReadPage is a controller-issued margin-aware sense: marginal retention
// cells (retention.go) are resolved to their stored value rather than
// flickering, so the commit path never bakes read noise back into a page.
func (d *Device) ReadPage(p int, dst []byte) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if len(dst) != d.spec.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(dst), d.spec.PageSize)
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	base := d.PageBase(p)
	copy(dst, d.array[base:base+d.spec.PageSize])
	d.emit(OpEvent{
		Kind: OpRead, Bank: b, Addr: base, Bytes: d.spec.PageSize,
		Energy: d.spec.ReadEnergy * energy.Energy(d.spec.PageSize),
		Busy:   d.spec.ReadLatency * time.Duration(d.spec.PageSize),
	})
	if f, fired := d.faultHit(OpRead); fired {
		d.readFault(b, p, f)
	}
	return nil
}

// ProgramByte programs one byte. Programming can only clear bits: if v
// requires any 0 → 1 transition relative to the stored byte, the operation
// fails with ErrNeedsErase and nothing is charged (the controller checks
// before issuing). Programming a byte to its current value is skipped and
// charged nothing, matching buffered page programming where unchanged bytes
// need no pulse. It is a one-byte span of the page program path.
func (d *Device) ProgramByte(addr int, v byte) error {
	if err := d.checkAddr(addr, 1); err != nil {
		return err
	}
	b := d.bankOfAddr(addr)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	buf := [1]byte{v}
	return d.programLocked(b, addr, buf[:])
}

// ErasePage erases page p: every bit is set to 1 and the page's wear count
// increments. Once wear exceeds the endurance rating the page is worn out:
// the erase still happens but some cells stick at 0 (trapped charge, §II-B)
// and ErrWornOut is returned so callers can observe the failure.
func (d *Device) ErasePage(p int) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.erasePageLocked(b, p)
}

// erasePageLocked is ErasePage with bank b's lock held.
func (d *Device) erasePageLocked(b, p int) error {
	if d.retired[p] {
		return fmt.Errorf("page %d: %w", p, ErrPageRetired)
	}
	base := d.PageBase(p)
	d.clearDrift(p)
	d.clearRise(p)
	f, fired := d.faultHit(OpErase)
	if fired && f.Kind == FaultPowerLoss {
		d.tearErase(b, p)
		d.wear[p]++ // the tunnel-oxide stress happened regardless
		d.emit(OpEvent{
			Kind: OpErase, Bank: b, Addr: p, Bytes: d.spec.PageSize,
			Energy: d.spec.EraseEnergy, Busy: d.spec.EraseLatency,
		})
		return fmt.Errorf("erase page %d: %w", p, ErrPowerLoss)
	}
	if fired && f.Kind == FaultTransientErase {
		// Verify failure: the pulse stressed the oxide at full cost but
		// left a mixture of erased and stale bytes — re-issuing the erase
		// can reach the fully erased state.
		d.tearErase(b, p)
		d.wear[p]++
		d.emit(OpEvent{
			Kind: OpEraseFail, Bank: b, Addr: p, Bytes: d.spec.PageSize,
			Energy: d.spec.EraseEnergy, Busy: d.spec.EraseLatency,
		})
		return fmt.Errorf("erase page %d: %w", p, ErrTransient)
	}
	for i := 0; i < d.spec.PageSize; i++ {
		d.array[base+i] = 0xFF
	}
	d.wear[p]++
	d.emit(OpEvent{
		Kind: OpErase, Bank: b, Addr: p, Bytes: d.spec.PageSize,
		Energy: d.spec.EraseEnergy, Busy: d.spec.EraseLatency,
	})
	if fired && f.Kind == FaultStuckBits {
		// Marginal cells: the erase completes and reports success, but
		// some cells fail to reach the erased state — silent until a
		// read-back verify notices, exactly like real early wear-out.
		d.stickBits(b, p, f.bits())
	}
	if d.wear[p] > d.spec.EnduranceCycles {
		d.dead[p] = true
		// Stuck-at-zero failure model: roughly one cell per byte per
		// thousand cycles past the limit fails to erase.
		over := d.wear[p] - d.spec.EnduranceCycles
		d.stickBits(b, p, 1+int(over/1000))
		return fmt.Errorf("page %d: %w (wear %d > %d)", p, ErrWornOut, d.wear[p], d.spec.EnduranceCycles)
	}
	return nil
}

// Wear returns the erase count of page p.
func (d *Device) Wear(p int) uint32 {
	if p < 0 || p >= len(d.wear) {
		return 0
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.wear[p]
}

// MaxWear returns the highest erase count across all pages; flash lifetime
// ends when the hottest page wears out.
func (d *Device) MaxWear() uint32 {
	var m uint32
	for _, w := range d.WearSnapshot() {
		if w > m {
			m = w
		}
	}
	return m
}

// WornOut reports whether page p has exceeded its endurance.
func (d *Device) WornOut(p int) bool {
	if p < 0 || p >= len(d.dead) {
		return false
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.dead[p]
}

// AtRating reports whether page p has consumed its full endurance rating:
// the page still reads and programs normally, but its next erase will leave
// cells stuck at 0. Management layers use this to fence a page *before* the
// erase that would corrupt it, where WornOut only reports the damage after.
func (d *Device) AtRating(p int) bool {
	if p < 0 || p >= len(d.wear) {
		return false
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.wear[p] >= d.spec.EnduranceCycles
}

// ProgramPage programs page p from buf (exactly one page long) without
// erasing. Every byte must be reachable through 1 → 0 transitions only;
// otherwise the operation fails with ErrNeedsErase before touching the
// array. Bytes that already hold the buffered value are skipped. The whole
// page commits under one bank lock acquisition, so a concurrent operation
// on the same bank never observes a half-programmed page.
func (d *Device) ProgramPage(p int, buf []byte) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if len(buf) != d.spec.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(buf), d.spec.PageSize)
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.programLocked(b, d.PageBase(p), buf)
}

// programLocked programs the span buf at addr — one byte up to a whole
// page, never crossing a page boundary — with bank b's lock held. It is the
// device's one program path: ProgramByte is a one-byte span, ProgramPage and
// EraseProgramPage a page span.
//
// A pulse is a byte whose value changes, or every byte under SetProgramAll.
// The span's pulses walk the fault scope in one step (faultFor). Without a
// fault the span commits in one pass and emits at most two batched events:
// an OpProgram over the pulsed bytes and an OpProgramSkip over the rest.
// With a fault, the bytes before the victim pulse commit the same way, the
// victim is torn, and its own one-byte OpProgram (power loss) or
// OpProgramFail (transient) follows. Bytes after the victim are untouched.
//
// Only the dirty window [lo, hi) — first to last byte that differs from the
// array — needs the per-byte walk: a byte equal to its target is reachable,
// pulses nothing and commits nothing. The exceptions walk the whole span:
// SetProgramAll pulses every byte, and a drift mask is updated for every
// byte (m[off+i] &= v), changed or not.
func (d *Device) programLocked(b, addr int, buf []byte) error {
	p := d.PageOf(addr)
	if d.retired[p] {
		return fmt.Errorf("page %d: %w", p, ErrPageRetired)
	}
	span := d.array[addr : addr+len(buf)]
	all := d.programAll
	off := addr - d.PageBase(p)
	m, rm := d.drift[p], d.rise[p]
	lo, hi := 0, len(buf)
	if !all && m == nil {
		lo, hi = dirtyWindow(span, buf)
	}
	win, want := span[lo:hi], buf[lo:hi]
	if i := firstUnreachable(d.spec.Cell, win, want); i >= 0 {
		return fmt.Errorf("%w: addr %#x stored %08b want %08b (%v)",
			ErrNeedsErase, addr+lo+i, win[i], want[i], d.spec.Cell)
	}
	n := len(buf) // bytes that commit: all of them, or those before the victim
	var f Fault
	if d.faultsLive.Load() {
		pulses := 0
		for i, v := range want {
			if win[i] != v || all {
				pulses++
			}
		}
		if k, ff := d.faultFor(OpProgram, pulses); k < pulses {
			f = ff
			for n = lo; ; n++ { // n stops at pulse k, the victim
				if span[n] != buf[n] || all {
					if k == 0 {
						break
					}
					k--
				}
			}
		}
	}
	bk := &d.banks[b]
	prev := bk.prevScratch[:len(buf)]
	if len(bk.obs) > 0 {
		copy(prev, span) // only observers read Prev
	}
	programmed := commitWindow(win, want[:min(hi, n)-lo], m, rm, off+lo, all)
	if programmed > 0 {
		d.emit(OpEvent{
			Kind: OpProgram, Bank: b, Addr: addr, Bytes: programmed,
			Data: span[:n], Prev: prev[:n],
			Energy: d.spec.ProgramEnergy * energy.Energy(programmed),
			Busy:   d.spec.ProgramLatency * time.Duration(programmed),
		})
	}
	if skipped := n - programmed; skipped > 0 {
		d.emit(OpEvent{Kind: OpProgramSkip, Bank: b, Addr: addr, Bytes: skipped})
	}
	if f.Kind == FaultNone {
		return nil
	}
	// The victim pulse: power loss cut it short, or verify found some
	// target bits short of their level. Either way the full pulse cost is
	// drawn and every bit that moved moved toward the target, so the byte
	// stays reachable and a re-issue can finish the job.
	d.tearProgram(b, addr+n, buf[n])
	ev := OpEvent{
		Kind: OpProgram, Bank: b, Addr: addr + n, Bytes: 1,
		Data: span[n : n+1], Prev: prev[n : n+1],
		Energy: d.spec.ProgramEnergy, Busy: d.spec.ProgramLatency,
	}
	err := ErrPowerLoss
	if f.Kind == FaultTransientProgram {
		ev.Kind, err = OpProgramFail, ErrTransient
	}
	d.emit(ev)
	return fmt.Errorf("program %#x: %w", addr+n, err)
}

// firstUnreachable returns the index of the first byte of want that win
// cannot reach without an erase, or -1.
func firstUnreachable(c CellMode, win, want []byte) int {
	want = want[:len(win)]
	for i, v := range want {
		if !c.Reachable(win[i], v) {
			return i
		}
	}
	return -1
}

// commitWindow stores want over win and returns the pulses: the bytes that
// change, or every byte under all. A pulse zeroes the byte's rise-mask
// entry, recharging its marginal cells; every byte clears the drift-mask
// bits it holds at 0, since the caller now means those cells to read 0.
// The masks may be nil; byte i of the window is entry moff+i of each.
func commitWindow(win, want, m, rm []byte, moff int, all bool) int {
	win = win[:len(want)]
	pulses := len(want)
	if !all {
		pulses = 0
		for i, v := range want {
			if win[i] != v {
				pulses++
			}
		}
	}
	if rm != nil {
		for i, v := range want {
			if win[i] != v || all {
				rm[moff+i] = 0
			}
		}
	}
	if m != nil {
		for i, v := range want {
			m[moff+i] &= v
		}
	}
	copy(win, want)
	return pulses
}

// dirtyBlock is the stride dirtyWindow skips equal bytes in before it
// narrows the edges: long enough for bytes.Equal's vectorised compare to
// pay off, short enough that a record-sized window wastes little of it.
const dirtyBlock = 256

// dirtyWindow returns [lo, hi): lo is the first and hi-1 the last index at
// which a and b differ, or lo == hi when they are equal. It skips equal
// dirtyBlock-byte blocks from each end with bytes.Equal, then narrows
// eight bytes at a time and finally byte by byte.
func dirtyWindow(a, b []byte) (lo, hi int) {
	n := len(a)
	for lo+dirtyBlock <= n && bytes.Equal(a[lo:lo+dirtyBlock], b[lo:lo+dirtyBlock]) {
		lo += dirtyBlock
	}
	for ; lo+8 <= n; lo += 8 {
		if x := binary.LittleEndian.Uint64(a[lo:]) ^ binary.LittleEndian.Uint64(b[lo:]); x != 0 {
			lo += bits.TrailingZeros64(x) / 8
			break
		}
	}
	for lo < n && a[lo] == b[lo] {
		lo++
	}
	if lo == n {
		return n, n
	}
	// a[lo] differs, so every backward scan stops at lo+1 at the latest.
	hi = n
	for hi-dirtyBlock >= lo && bytes.Equal(a[hi-dirtyBlock:hi], b[hi-dirtyBlock:hi]) {
		hi -= dirtyBlock
	}
	for ; hi-8 >= lo; hi -= 8 {
		if x := binary.LittleEndian.Uint64(a[hi-8:]) ^ binary.LittleEndian.Uint64(b[hi-8:]); x != 0 {
			return lo, hi - bits.LeadingZeros64(x)/8
		}
	}
	for a[hi-1] == b[hi-1] {
		hi--
	}
	return lo, hi
}

// EraseProgramPage erases page p and programs it from buf — the
// "read-modify-write" commit path (§II-A steps 2 and 4), atomic with
// respect to other operations on the same bank. A worn-out erase error is
// returned after the program completes so the data is still best-effort
// written.
func (d *Device) EraseProgramPage(p int, buf []byte) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if len(buf) != d.spec.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(buf), d.spec.PageSize)
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	eraseErr := d.erasePageLocked(b, p)
	if eraseErr != nil && !errors.Is(eraseErr, ErrWornOut) {
		return eraseErr
	}
	if err := d.programLocked(b, d.PageBase(p), buf); err != nil {
		// Only possible on a worn-out page with stuck bits, or under
		// a second injected power loss.
		return errors.Join(eraseErr, err)
	}
	return eraseErr
}

// Peek returns the stored byte without charging a read; for tests and
// instrumentation only. Not synchronised: do not race it with writers.
func (d *Device) Peek(addr int) byte { return d.array[addr] }

// PeekPage copies page p into dst without charging reads; for tests and
// instrumentation only. Not synchronised: do not race it with writers.
func (d *Device) PeekPage(p int, dst []byte) {
	copy(dst, d.array[d.PageBase(p):d.PageBase(p)+d.spec.PageSize])
}
