package flash

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// TraceOp is the kind of a traced flash operation.
type TraceOp uint8

// Traced operation kinds: the state-changing operations (programs and
// erases). Reads are not traced — they do not affect replayability and
// would dominate the log under XIP execution.
const (
	TraceProgram TraceOp = iota
	TraceErase
)

func (o TraceOp) String() string {
	if o == TraceErase {
		return "erase"
	}
	return "program"
}

// TraceEntry is one recorded operation.
type TraceEntry struct {
	Op    TraceOp
	Addr  int  // byte address for programs, page number for erases
	Value byte // programmed value (programs only)
}

// DefaultTraceLimit caps a Trace that was not given an explicit limit.
// 1 Mi entries ≈ 16 MiB — deep enough for every experiment in the suite,
// bounded enough that a tracing video/ML run cannot exhaust memory.
const DefaultTraceLimit = 1 << 20

// Trace records the state-changing operations of a device so a run can be
// replayed, diffed or analyzed offline. Attach with Device.Attach, which
// installs one shard per bank.
//
// A program is traced as one entry per byte whose value changed, erases as
// one entry per page. Pulses that leave a byte's value as it was — a
// SetProgramAll pulse on an unchanged byte, a retention refresh — are
// charged in Stats but not traced: replaying them would change nothing.
//
// The trace is sharded to match the device's op-event bus: when attached,
// each flash bank appends into its own ring under its own lock, so tracing
// never serializes concurrent banks on one mutex. Read accessors merge the
// shards deterministically: entries are ordered by (per-bank sequence,
// bank), which depends only on each bank's operation sequence — never on
// goroutine scheduling — so a concurrent run and a serial run of the same
// per-bank workloads read back the same trace.
//
// Retention is capped: Entries returns at most Limit entries, each shard
// evicts its oldest entry once it holds Limit, and Dropped counts every
// recorded entry that Entries no longer returns. The zero value is ready to
// use with DefaultTraceLimit; use NewTrace for an explicit cap. Trace is
// safe for concurrent use.
type Trace struct {
	mu     sync.Mutex // guards limit and the shard list, not shard contents
	limit  int
	shards []*traceShard
}

// seqEntry is a TraceEntry plus its position in the owning shard's stream.
type seqEntry struct {
	TraceEntry
	seq uint64
}

// traceShard is one bank's ring. Its lock nests inside the owning bank's
// lock on the append path and is never held while taking another lock.
type traceShard struct {
	mu       sync.Mutex
	limit    int
	ring     []seqEntry
	start    int // index of the oldest entry
	count    int
	appended uint64 // entries ever appended; doubles as the seq source
}

// NewTrace returns a trace holding at most limit entries; limit <= 0
// selects DefaultTraceLimit.
func NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Trace{limit: limit}
}

// Limit returns the maximum number of entries the trace retains.
func (t *Trace) Limit() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.effectiveLimit()
}

func (t *Trace) effectiveLimit() int {
	if t.limit <= 0 {
		return DefaultTraceLimit
	}
	return t.limit
}

// shard returns shard i, growing the shard list as needed.
func (t *Trace) shard(i int) *traceShard {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.shards) <= i {
		t.shards = append(t.shards, &traceShard{limit: t.effectiveLimit()})
	}
	return t.shards[i]
}

// snapshot returns the current shard list.
func (t *Trace) snapshot() []*traceShard {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shards
}

// ObserverShards implements ShardObserver: bank b of an attaching device
// records into shard b. Entries recorded before attaching (or by a device
// with fewer banks) stay in their shards.
func (t *Trace) ObserverShards(banks int) []Observer {
	obs := make([]Observer, banks)
	for b := 0; b < banks; b++ {
		obs[b] = traceShardObs{t: t, s: t.shard(b)}
	}
	return obs
}

// traceShardObs delivers one bank's events to its trace shard without
// touching the trace-level mutex.
type traceShardObs struct {
	t *Trace
	s *traceShard
}

// OnOp implements Observer for one shard: programmed bytes and erases are
// recorded, reads and skipped programs are not. A program event expands to
// one entry per byte whose value changed (Data[i] != Prev[i]) under a
// single lock acquisition.
func (o traceShardObs) OnOp(ev OpEvent) { o.s.onOp(ev) }

func (s *traceShard) onOp(ev OpEvent) {
	switch ev.Kind {
	case OpProgram:
		s.mu.Lock()
		for i, v := range ev.Data {
			if ev.Prev[i] != v {
				s.appendLocked(TraceEntry{Op: TraceProgram, Addr: ev.Addr + i, Value: v})
			}
		}
		s.mu.Unlock()
	case OpErase:
		s.mu.Lock()
		s.appendLocked(TraceEntry{Op: TraceErase, Addr: ev.Addr})
		s.mu.Unlock()
	}
}

// OnOp implements Observer on the trace itself, for traces used without
// Device.Attach (which installs the per-bank shards instead): events route
// to the shard of their bank.
func (t *Trace) OnOp(ev OpEvent) {
	if ev.Kind != OpProgram && ev.Kind != OpErase {
		return
	}
	b := ev.Bank
	if b < 0 {
		b = 0
	}
	t.shard(b).onOp(ev)
}

// Append records one entry (into shard 0), evicting the oldest if the
// shard is full.
func (t *Trace) Append(e TraceEntry) {
	s := t.shard(0)
	s.mu.Lock()
	s.appendLocked(e)
	s.mu.Unlock()
}

// appendLocked records one entry with the shard's lock held.
func (s *traceShard) appendLocked(e TraceEntry) {
	s.appended++
	se := seqEntry{TraceEntry: e, seq: s.appended}
	if s.count < s.limit {
		if s.count == len(s.ring) {
			// Grow geometrically up to the cap rather than
			// allocating the full ring up front.
			s.ring = append(s.ring, se)
			s.count++
			return
		}
		s.ring[(s.start+s.count)%len(s.ring)] = se
		s.count++
		return
	}
	// Full: overwrite the oldest.
	s.ring[s.start] = se
	s.start = (s.start + 1) % len(s.ring)
}

// Len returns the number of entries Entries would return: the retained
// entries across all shards, capped at the trace limit.
func (t *Trace) Len() int {
	n := 0
	for _, s := range t.snapshot() {
		s.mu.Lock()
		n += s.count
		s.mu.Unlock()
	}
	if limit := t.Limit(); n > limit {
		n = limit
	}
	return n
}

// Dropped returns how many recorded entries Entries no longer returns,
// whether evicted from a full shard or trimmed by the trace-wide cap.
func (t *Trace) Dropped() uint64 {
	var appended uint64
	for _, s := range t.snapshot() {
		s.mu.Lock()
		appended += s.appended
		s.mu.Unlock()
	}
	return appended - uint64(t.Len())
}

// Entries returns the retained entries in the deterministic merge order:
// ascending (per-bank sequence, bank). Within a bank that is recording
// order; across banks the interleave depends only on the per-bank
// operation sequences, so serial and concurrent runs of the same per-bank
// workloads return identical slices. At most Limit entries are returned
// (the oldest beyond the cap are trimmed).
func (t *Trace) Entries() []TraceEntry {
	type bankEntry struct {
		seqEntry
		bank int
	}
	var all []bankEntry
	for b, s := range t.snapshot() {
		s.mu.Lock()
		for i := 0; i < s.count; i++ {
			all = append(all, bankEntry{s.ring[(s.start+i)%len(s.ring)], b})
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].seq != all[j].seq {
			return all[i].seq < all[j].seq
		}
		return all[i].bank < all[j].bank
	})
	if limit := t.Limit(); len(all) > limit {
		all = all[len(all)-limit:]
	}
	out := make([]TraceEntry, len(all))
	for i := range all {
		out[i] = all[i].TraceEntry
	}
	return out
}

// Reset discards all entries and the dropped counter, keeping the limit.
func (t *Trace) Reset() {
	for _, s := range t.snapshot() {
		s.mu.Lock()
		s.start, s.count, s.appended = 0, 0, 0
		s.mu.Unlock()
	}
}

// ErrReplayMismatch is returned when a replayed trace cannot be applied.
var ErrReplayMismatch = errors.New("flash: trace replay failed")

// Replay applies the trace to a fresh device of the given spec and returns
// it. Replaying onto a device with different geometry fails. A trace that
// dropped entries replays only the retained suffix, which generally cannot
// reproduce the original state — check Dropped first.
func (t *Trace) Replay(spec Spec) (*Device, error) {
	d, err := NewDevice(spec)
	if err != nil {
		return nil, err
	}
	for i, e := range t.Entries() {
		switch e.Op {
		case TraceProgram:
			err = d.ProgramByte(e.Addr, e.Value)
		case TraceErase:
			err = d.ErasePage(e.Addr)
		default:
			err = fmt.Errorf("unknown op %d", e.Op)
		}
		if err != nil && !errors.Is(err, ErrWornOut) {
			return nil, fmt.Errorf("%w: entry %d (%v %#x): %v", ErrReplayMismatch, i, e.Op, e.Addr, err)
		}
	}
	return d, nil
}

// EraseHeat returns the per-page erase counts recorded in the trace — the
// wear heat map a lifetime analysis starts from.
func (t *Trace) EraseHeat(numPages int) []int {
	heat := make([]int, numPages)
	for _, e := range t.Entries() {
		if e.Op == TraceErase && e.Addr >= 0 && e.Addr < numPages {
			heat[e.Addr]++
		}
	}
	return heat
}

// ProgramBytes returns the number of programmed bytes in the trace.
func (t *Trace) ProgramBytes() int {
	n := 0
	for _, e := range t.Entries() {
		if e.Op == TraceProgram {
			n++
		}
	}
	return n
}
