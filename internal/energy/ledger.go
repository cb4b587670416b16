package energy

import (
	"sync"
	"time"
)

// Ledger accumulates energy and busy time per operation kind. It is the
// subscriber half of the flash device's instrumentation bus (attach with
// flash.NewLedgerObserver): instead of every call site hand-rolling energy
// accounting, operation events carry their cost and the ledger folds them
// in. Ledger is safe for concurrent use; the zero value is ready to use.
type Ledger struct {
	mu    sync.Mutex
	total Energy
	busy  time.Duration
	byOp  map[string]Energy
}

// Record adds one operation's cost under the given kind.
func (l *Ledger) Record(op string, e Energy, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total += e
	l.busy += busy
	if l.byOp == nil {
		l.byOp = make(map[string]Energy)
	}
	l.byOp[op] += e
}

// Total returns the energy recorded so far.
func (l *Ledger) Total() Energy {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Busy returns the accumulated operation time.
func (l *Ledger) Busy() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.busy
}

// ByOp returns a copy of the per-kind energy breakdown.
func (l *Ledger) ByOp() map[string]Energy {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]Energy, len(l.byOp))
	for k, v := range l.byOp {
		out[k] = v
	}
	return out
}
