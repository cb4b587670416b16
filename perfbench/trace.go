package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/kvs"
)

// The traced run measures each layer from outside: it times the calls the
// benchmark makes into a layer's public functions, wraps the store's
// backend in a forwarding shim that times every call the store makes into
// the layer beneath it, and counts flash operation events with an
// observer. A layer's self time is its call time minus the shim time spent
// beneath it during that call.

// tracer accumulates per-layer samples and counters for one traced run.
// It is driven from the client goroutine only; the flash observer it owns
// is the one part fed by other goroutines.
type tracer struct {
	obs *flashCounter
	on  bool // set for the timed phase; the shim records nothing outside it

	// below is the shim time spent since the last beginOp, and calls the
	// shim calls made since then, by kind.
	below time.Duration
	calls [numCalls]int
	pages int // wordlines covered by SenseMulti calls since beginOp

	lat map[string][]float64 // host µs samples by name
	sum map[string]float64   // counters by name
}

// Backend call kinds the shim counts per op.
const (
	callRead = iota
	callWrite
	callErase
	callSense      // PageSenser.SensePage
	callSenseMulti // InFlashBackend.SenseMulti: one in-flash bitwise sense
	callProgram    // InFlashBackend.ProgramByte: one index bit update
	numCalls
)

func newTracer() *tracer {
	return &tracer{obs: &flashCounter{}, lat: map[string][]float64{}, sum: map[string]float64{}}
}

// beginOp clears the per-op shim accounting.
func (t *tracer) beginOp() {
	t.below = 0
	t.calls = [numCalls]int{}
	t.pages = 0
}

func (t *tracer) setActive(on bool) {
	t.on = on
	t.obs.active.Store(on)
}

func (t *tracer) sample(name string, d time.Duration) { t.lat[name] = append(t.lat[name], us(d)) }
func (t *tracer) add(name string, v float64)          { t.sum[name] += v }

// call records one timed shim call.
func (t *tracer) call(kind int, name string, d time.Duration) {
	if !t.on {
		return
	}
	t.below += d
	t.calls[kind]++
	if name != "" {
		t.sample(name, d)
	}
}

// p returns the q-quantile of a sample series in µs.
func (t *tracer) p(name string, q float64) float64 { return quantile(t.lat[name], q) }

// shim forwards the kvs Backend calls to the wrapped backend, timing each.
// Metric names are "<layer>.<call>_us"; the layer is the one the calls land
// in ("ftl" or "core").
type shim struct {
	b                              kvs.Backend
	tr                             *tracer
	readName, writeName, eraseName string
}

func (s *shim) Read(addr int, dst []byte) error {
	t := time.Now()
	err := s.b.Read(addr, dst)
	s.tr.call(callRead, s.readName, time.Since(t))
	return err
}

func (s *shim) Write(addr int, data []byte) error {
	t := time.Now()
	err := s.b.Write(addr, data)
	s.tr.call(callWrite, s.writeName, time.Since(t))
	return err
}

func (s *shim) ErasePage(p int) error {
	t := time.Now()
	err := s.b.ErasePage(p)
	s.tr.call(callErase, s.eraseName, time.Since(t))
	return err
}

func (s *shim) PageSize() int { return s.b.PageSize() }
func (s *shim) NumPages() int { return s.b.NumPages() }

// senseWear backends expose the margin sense and per-page wear; the FTL
// and the raw device both do.
type senseWear interface {
	kvs.PageSenser
	kvs.WearBackend
}

// senseWearShim is the shim for a backend with PageSenser and WearBackend
// but no in-flash compute: the FTL.
type senseWearShim struct {
	*shim
	sw senseWear
}

func (s senseWearShim) SensePage(p int, dst []byte) error {
	t := time.Now()
	err := s.sw.SensePage(p, dst)
	s.tr.call(callSense, "", time.Since(t))
	return err
}

// PageWear is called once per page by each compaction victim scan, so it
// is timed into the layer below without keeping samples.
func (s senseWearShim) PageWear(p int) uint32 {
	t := time.Now()
	w := s.sw.PageWear(p)
	s.tr.below += time.Since(t)
	return w
}

// inFlashShim adds the in-flash compute surface the scan index rides on:
// the raw device. Its senses and bit programs are the isc layer's work.
type inFlashShim struct {
	senseWearShim
	ifb kvs.InFlashBackend
}

func (s inFlashShim) SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error {
	t := time.Now()
	err := s.ifb.SenseMulti(op, pages, invert, dst)
	s.tr.call(callSenseMulti, "isc.sense_us", time.Since(t))
	if s.tr.on {
		s.tr.pages += len(pages)
	}
	return err
}

func (s inFlashShim) ProgramByte(addr int, v byte) error {
	t := time.Now()
	err := s.ifb.ProgramByte(addr, v)
	s.tr.call(callProgram, "", time.Since(t))
	return err
}

func (s inFlashShim) Banks() int         { return s.ifb.Banks() }
func (s inFlashShim) MaxSensePages() int { return s.ifb.MaxSensePages() }

// wrapBackend returns a timing shim around b that implements exactly the
// optional kvs extensions b implements. A missing extension would silently
// change the store's behaviour (GC victim choice, read hardening, scan
// pushdown), so a backend without a matching shim is an error.
func wrapBackend(b kvs.Backend, layer string, tr *tracer) (kvs.Backend, error) {
	base := &shim{b: b, tr: tr,
		readName: layer + ".read_us", writeName: layer + ".write_us", eraseName: layer + ".erase_us"}
	sw, isSW := b.(senseWear)
	if !isSW {
		return nil, fmt.Errorf("no forwarding shim for backend %T", b)
	}
	if ifb, isIF := b.(kvs.InFlashBackend); isIF {
		return inFlashShim{senseWearShim{base, sw}, ifb}, nil
	}
	return senseWearShim{base, sw}, nil
}

// rawBackend is the store's backend on a bare FlipBit device, built from
// the device's public functions. kvs.Open uses an equivalent unexported
// adapter; the traced run needs one it can wrap, and the fingerprint check
// proves the two behave identically.
type rawBackend struct{ dev *core.Device }

func (c rawBackend) Read(addr int, dst []byte) error   { return c.dev.Read(addr, dst) }
func (c rawBackend) Write(addr int, data []byte) error { return c.dev.Write(addr, data) }
func (c rawBackend) ErasePage(p int) error             { return c.dev.ErasePage(p) }
func (c rawBackend) PageSize() int                     { return c.dev.Flash().Spec().PageSize }
func (c rawBackend) NumPages() int                     { return c.dev.Flash().Spec().NumPages }
func (c rawBackend) PageWear(p int) uint32             { return c.dev.Flash().Wear(p) }
func (c rawBackend) SensePage(p int, dst []byte) error { return c.dev.SensePage(p, dst) }
func (c rawBackend) ProgramByte(addr int, v byte) error {
	return c.dev.Flash().ProgramByte(addr, v)
}
func (c rawBackend) Banks() int         { return c.dev.Flash().Banks() }
func (c rawBackend) MaxSensePages() int { return c.dev.Flash().Spec().MaxSensePages }
func (c rawBackend) SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error {
	return c.dev.Flash().SenseMulti(op, pages, invert, dst)
}

// Flash op classes the observer splits cost by.
const (
	kindRead = iota
	kindProgram
	kindErase
	kindSense
	kindOther // skipped programs, scrubs, retirements, retry waits
	numKinds
)

var kindNames = [numKinds]string{"read", "program", "erase", "sense", "other"}

func kindOf(k flash.OpKind) int {
	switch k {
	case flash.OpRead:
		return kindRead
	case flash.OpProgram, flash.OpProgramFail:
		return kindProgram
	case flash.OpErase, flash.OpEraseFail:
		return kindErase
	case flash.OpSense:
		return kindSense
	}
	return kindOther
}

// flashCounter is a sharded flash.Observer: each bank delivers to its own
// shard under that bank's lock, so counting never serialises the banks.
// It counts only while active, which the recorder sets for the timed
// phase. Shards are read after the client has waited for every write it
// issued, which orders the read after the workers' deliveries.
type flashCounter struct {
	active atomic.Bool
	shards []*flashShard
}

type flashShard struct {
	c      *flashCounter
	events [numKinds]uint64
	busy   [numKinds]time.Duration
	energy [numKinds]energy.Energy
}

func (f *flashCounter) ObserverShards(banks int) []flash.Observer {
	out := make([]flash.Observer, banks)
	f.shards = make([]*flashShard, banks)
	for b := range out {
		f.shards[b] = &flashShard{c: f}
		out[b] = f.shards[b]
	}
	return out
}

// OnOp is required by flash.Observer; Attach delivers to the shards.
func (f *flashCounter) OnOp(ev flash.OpEvent) { f.shards[ev.Bank].OnOp(ev) }

func (s *flashShard) OnOp(ev flash.OpEvent) {
	if !s.c.active.Load() {
		return
	}
	k := kindOf(ev.Kind)
	s.events[k]++
	s.busy[k] += ev.Busy
	s.energy[k] += ev.Energy
}

// totals sums the shards in bank order.
func (f *flashCounter) totals() (events [numKinds]uint64, busy [numKinds]time.Duration, en [numKinds]energy.Energy) {
	for _, s := range f.shards {
		for k := 0; k < numKinds; k++ {
			events[k] += s.events[k]
			busy[k] += s.busy[k]
			en[k] += s.energy[k]
		}
	}
	return
}

// flashLayerMetrics fills the flash layer's per-op figures.
func flashLayerMetrics(m metrics, r *recorder) {
	ops := float64(r.ops)
	events, busy, en := r.tr.obs.totals()
	var all uint64
	for k := 0; k < numKinds; k++ {
		all += events[k]
		if k == kindOther || (k == kindSense && events[k] == 0) {
			continue
		}
		m.det("flash.busy_us_per_op."+kindNames[k], us(busy[k])/ops, "us", r.ops)
		m.det("flash.energy_uj_per_op."+kindNames[k], uj(en[k])/ops, "uJ", r.ops)
	}
	st := r.devTotal
	m.det("flash.erases_per_kop", 1000*float64(st.Erases)/ops, "count", r.ops)
	m.det("flash.program_bytes_per_op", float64(st.Programs)/ops, "bytes", r.ops)
	m.det("flash.program_skip_frac", ratio(float64(st.ProgramsSkipped), float64(st.Programs+st.ProgramsSkipped)), "fraction", r.ops)
	m.det("flash.events_per_op", float64(all)/ops, "count", r.ops)
}
