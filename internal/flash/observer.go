package flash

import (
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
)

// OpKind is the kind of a completed flash operation.
type OpKind uint8

// Operation kinds carried by OpEvent.
const (
	OpRead        OpKind = iota // array read (Bytes consecutive bytes)
	OpProgram                   // Bytes bytes programmed
	OpProgramSkip               // Bytes byte programs elided (value unchanged)
	OpErase                     // one page erased
	OpScrub                     // unused: nothing emits it (kept for perfbench's fingerprint)
	OpRetire                    // one page retired onto a spare
	OpProgramFail               // a program pulse that failed verify transiently (full cost, bits short of target)
	OpEraseFail                 // an erase pulse that failed verify transiently (full cost, wear still taken)
	OpWait                      // a retry backoff interval charged to the busy ledger
	OpSense                     // one multi-page bitwise sense (Pages wordlines, page-sized result)

	// opKindCount sizes per-kind accumulator arrays; keep it last.
	opKindCount
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpProgramSkip:
		return "program-skip"
	case OpErase:
		return "erase"
	case OpScrub:
		return "scrub"
	case OpRetire:
		return "retire"
	case OpProgramFail:
		return "program-fail"
	case OpEraseFail:
		return "erase-fail"
	case OpWait:
		return "wait"
	case OpSense:
		return "sense"
	}
	return "unknown"
}

// OpEvent describes one completed flash operation. It is the single source
// of truth for all instrumentation: the device's own per-bank statistics
// and the energy ledger are both derived from the same event stream instead
// of duplicating accounting at every operation site.
type OpEvent struct {
	Kind OpKind
	Bank int // bank the operation executed in

	// Seq is the 1-based position of this event in its bank's event
	// stream. Within one bank the sequence is gapless and strictly
	// increasing — events for a bank are totally ordered — while events
	// from different banks carry independent sequences and may be
	// delivered concurrently.
	Seq uint64

	// Addr is the byte address for reads and programs, and the page
	// number for erases. For a program span it is the span's first byte
	// (a page program's base address); a fault victim's own event carries
	// the victim byte's address.
	Addr int

	// Bytes is the number of bytes the operation covered: the read
	// length for OpRead, the programmed (or skipped) byte count for
	// programs, and the page size for erases and senses.
	Bytes int

	// Pages is the number of wordlines a multi-page sense activated
	// simultaneously (OpSense only). The sense's cost covers the whole
	// operation, however many pages participated.
	Pages int

	// Data and Prev are set on the OpProgram and OpProgramFail events of
	// a program span: Data is the span's contents after the program and
	// Prev the contents before, starting at Addr, so observers can recover
	// the per-byte writes (a byte changed iff Data[i] != Prev[i]). Both
	// alias device-owned buffers and are only valid for the duration of
	// the OnOp call — copy to retain. Retention refreshes (one OpProgram
	// per recharged byte, no value change) carry neither.
	Data []byte
	Prev []byte

	// Energy and Busy are the cost charged for the operation.
	Energy energy.Energy
	Busy   time.Duration
}

// Observer receives every operation event a device emits. Events for one
// bank are delivered in order, under that bank's lock; events for different
// banks may be delivered concurrently, so an Observer attached to a device
// that is used from multiple goroutines must itself be safe for concurrent
// use (energy.Ledger is).
type Observer interface {
	OnOp(OpEvent)
}

// ShardObserver is an Observer that can supply one delivery target per
// bank. When attached to a device, shard b receives exactly the events of
// bank b (in bank order, under the bank's lock), so a sharded observer
// never serializes deliveries from concurrent banks on one lock, and a
// shard that only its bank writes needs no lock of its own. Plain observers
// are delivered to from every bank and must synchronise themselves.
type ShardObserver interface {
	Observer
	ObserverShards(banks int) []Observer
}

// ObserverFunc adapts a function to the Observer interface. The function
// must be safe for concurrent use if the device is driven concurrently.
type ObserverFunc func(OpEvent)

// OnOp implements Observer.
func (f ObserverFunc) OnOp(e OpEvent) { f(e) }

// Attach subscribes o to the device's operation events and returns the
// function that removes exactly this subscription; calling it more than
// once is harmless. The subscription is sharded: if o implements
// ShardObserver each bank delivers to o's shard for that bank, otherwise
// every bank delivers to o directly. Neither Attach nor the detach function
// may be called concurrently with device operations (configure observers
// before starting traffic).
func (d *Device) Attach(o Observer) (detach func()) {
	if o == nil {
		return func() {}
	}
	shards := []Observer(nil)
	if so, ok := o.(ShardObserver); ok {
		shards = so.ObserverShards(len(d.banks))
	}
	for b := range d.banks {
		h := o
		if shards != nil {
			h = shards[b]
		}
		d.banks[b].obs = append(d.banks[b].obs, h)
	}
	// Subscriptions keep their relative order, so the i-th live ID owns
	// the i-th delivery handle in every bank's list.
	d.nextSub++
	id := d.nextSub
	d.subs = append(d.subs, id)
	return func() {
		for i, s := range d.subs {
			if s == id {
				d.subs = append(d.subs[:i], d.subs[i+1:]...)
				for b := range d.banks {
					obs := d.banks[b].obs
					d.banks[b].obs = append(obs[:i], obs[i+1:]...)
				}
				return
			}
		}
	}
}

// statsShard is one bank's slice of the operation ledger. Counters live in
// the embedded Stats; energy is accumulated per operation kind and the
// kinds are summed in a fixed order at snapshot time. Every bank now
// issues its ops in request order, so one running float would be just as
// deterministic; the buckets stay because float addition is
// order-sensitive, and summing in a different order would shift the low
// bits of every committed energy figure.
type statsShard struct {
	Stats
	energyKind [opKindCount]energy.Energy
}

// apply folds one event into the shard. This is the only place operation
// counters are updated.
func (s *statsShard) apply(ev OpEvent) {
	switch ev.Kind {
	case OpRead:
		s.Reads += uint64(ev.Bytes)
	case OpProgram:
		s.Programs += uint64(ev.Bytes)
	case OpProgramSkip:
		s.ProgramsSkipped += uint64(ev.Bytes)
	case OpErase:
		s.Erases++
	case OpScrub:
		s.Scrubs++
	case OpRetire:
		s.Retirements++
	case OpProgramFail:
		s.ProgramFails += uint64(ev.Bytes)
	case OpEraseFail:
		s.EraseFails++
	case OpWait:
		s.Waits++
	case OpSense:
		s.Senses++
		s.PagesSensed += uint64(ev.Pages)
	}
	s.energyKind[ev.Kind] += ev.Energy
	s.Busy += ev.Busy
}

// snapshot returns the shard as externally visible Stats, summing the
// per-kind energy accumulators in kind order (the deterministic merge).
func (s *statsShard) snapshot() Stats {
	st := s.Stats
	var e energy.Energy
	for _, v := range s.energyKind {
		e += v
	}
	st.Energy = e
	return st
}

// ledgerObserver forwards event costs to an energy.Ledger.
type ledgerObserver struct {
	l *energy.Ledger
}

func (o ledgerObserver) OnOp(ev OpEvent) {
	o.l.Record(ev.Kind.String(), ev.Energy, ev.Busy)
}

// NewLedgerObserver returns an Observer that records every operation's
// energy and busy time into l, keyed by operation kind. The ledger is safe
// for concurrent use, so the observer may be attached to a device driven
// from multiple goroutines.
func NewLedgerObserver(l *energy.Ledger) Observer { return ledgerObserver{l} }
