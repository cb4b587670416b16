package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Async commit pipeline: per-bank queues with group commit.
//
// The serial Write path pays one full load→apply→encode→gate→program pass
// per page, per caller, under the page's bank commit lock. WithAsyncCommit
// adds an opt-in pipeline in front of it: WriteAsync splits a write into
// page chunks, routes each chunk to its bank's queue, and returns a
// completion future. One worker goroutine per bank drains its queue in
// batches of up to the configured depth and commits a whole batch under a
// single bank-lock acquisition — loading every page first, then encoding
// every kernel-eligible span with ONE batch-kernel invocation
// (approx.EncodeSegments), then gating and programming each page in
// request order.
//
// Determinism: a bank's queue serializes that bank's commits in enqueue
// order, and every per-page decision depends only on (array state, request)
// — never on how the batch was assembled — so merged statistics and array
// contents are identical to a serial run of the same per-bank sequences
// regardless of batch boundaries (property-tested in async_test.go). The
// same holds under armed program and erase faults: a window issues its
// programs and erases in request order, so fault countdowns observe the
// operation sequence a serial run would show them. Read-domain faults
// (read disturb, retention) are the exception: a window loads all its
// pages before programming any, so those draw the bank RNG in load order.

// ErrAsyncClosed is returned by WriteAsync after Close.
var ErrAsyncClosed = errors.New("core: async commit pipeline closed")

// WithAsyncCommit enables the asynchronous commit pipeline: one commit
// queue and worker per flash bank, coalescing up to depth queued writes
// per bank into one group commit. The serial Write path remains available
// (and remains the default when the option is absent). A device built with
// this option must be drained with Flush or shut down with Close before
// its results are read.
func WithAsyncCommit(depth int) Option {
	return func(d *Device) { d.asyncDepth = depth }
}

// Commit is the completion future of one WriteAsync call. Wait blocks
// until every page chunk of the write has committed and returns the
// write's error, with the same shape as the serial Write path: a hard
// error wins over flash.ErrWornOut, which is reported only when every
// chunk otherwise succeeded (the write is still performed best-effort).
//
// Wait may be called at most once, from one goroutine; it recycles the
// Commit, which must not be touched afterwards.
type Commit struct {
	eng *asyncEngine // nil for pre-resolved commits

	mu        sync.Mutex
	remaining int
	err       error // first hard (non-worn-out) chunk error
	worn      error // sticky flash.ErrWornOut

	ch chan error
}

// resolve accounts one finished chunk; the last chunk publishes the
// combined result.
func (c *Commit) resolve(err error) {
	c.mu.Lock()
	if err != nil {
		if errors.Is(err, flash.ErrWornOut) {
			if c.worn == nil {
				c.worn = err
			}
		} else if c.err == nil {
			c.err = err
		}
	}
	c.remaining--
	fire := c.remaining == 0
	var final error
	if fire {
		final = c.err
		if final == nil {
			final = c.worn
		}
	}
	c.mu.Unlock()
	if fire {
		c.ch <- final
	}
}

// Wait blocks until the write has fully committed and returns its error.
func (c *Commit) Wait() error {
	err := <-c.ch
	if c.eng != nil {
		c.eng.commitPool.Put(c)
	}
	return err
}

// resolvedCommit returns a future that is already complete. Used for
// writes that never reach the queues: empty data, bounds errors, a closed
// engine, or the synchronous fallback when no engine is configured.
func resolvedCommit(err error) *Commit {
	c := &Commit{ch: make(chan error, 1)}
	c.ch <- err
	return c
}

// asyncReq is one queued page chunk.
type asyncReq struct {
	page int
	off  int
	data []byte  // aliases (*buf)[:len]
	buf  *[]byte // pooled backing buffer
	c    *Commit
}

// asyncEngine owns the per-bank queues, workers and pools.
type asyncEngine struct {
	d      *Device
	depth  int
	queues []chan asyncReq
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	pending int // enqueued but unresolved chunks
	closed  bool

	dataPool   sync.Pool // *[]byte, page-size backing buffers
	commitPool sync.Pool // *Commit with a live channel
}

func newAsyncEngine(d *Device, depth int) *asyncEngine {
	if depth < 1 {
		depth = 1
	}
	e := &asyncEngine{d: d, depth: depth, queues: make([]chan asyncReq, d.fl.Banks())}
	e.cond = sync.NewCond(&e.mu)
	ps := d.fl.Spec().PageSize
	e.dataPool.New = func() any {
		b := make([]byte, ps)
		return &b
	}
	e.commitPool.New = func() any {
		return &Commit{eng: e, ch: make(chan error, 1)}
	}
	for b := range e.queues {
		e.queues[b] = make(chan asyncReq, depth)
		e.wg.Add(1)
		w := newAsyncWorker(e, b)
		go w.run()
	}
	return e
}

// WriteAsync stores data at addr through the asynchronous commit pipeline
// and returns a completion future. Page chunks are committed by their
// banks' workers, possibly coalesced with other queued writes into one
// group commit; chunks of one bank commit in enqueue order. Without
// WithAsyncCommit the write is performed synchronously and the returned
// future is already resolved.
//
// WriteAsync is safe for concurrent use with other WriteAsync, Write and
// Read calls, but must not race Close.
func (d *Device) WriteAsync(addr int, data []byte) *Commit {
	e := d.async
	if e == nil {
		return resolvedCommit(d.Write(addr, data))
	}
	return e.write(addr, data)
}

// Flush blocks until every chunk enqueued before the call has resolved.
// A no-op without WithAsyncCommit.
func (d *Device) Flush() {
	if d.async != nil {
		d.async.flush()
	}
}

// Close drains and shuts down the async commit pipeline: it waits for all
// queued writes to commit and stops the per-bank workers. Subsequent
// WriteAsync calls return ErrAsyncClosed; Write and Read keep working.
// A no-op without WithAsyncCommit.
func (d *Device) Close() error {
	if d.async != nil {
		d.async.close()
	}
	return nil
}

func (e *asyncEngine) write(addr int, data []byte) *Commit {
	if len(data) == 0 {
		return resolvedCommit(nil)
	}
	d := e.d
	ps := d.fl.Spec().PageSize
	if addr < 0 || addr+len(data) > d.fl.Spec().Size() {
		return resolvedCommit(fmt.Errorf("%w: addr %#x len %d (size %#x)",
			flash.ErrBounds, addr, len(data), d.fl.Spec().Size()))
	}
	chunks := 0
	for a, n := addr, len(data); n > 0; {
		c := ps - a%ps
		if c > n {
			c = n
		}
		a, n = a+c, n-c
		chunks++
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return resolvedCommit(ErrAsyncClosed)
	}
	e.pending += chunks
	e.mu.Unlock()

	c := e.commitPool.Get().(*Commit)
	c.remaining, c.err, c.worn = chunks, nil, nil
	for len(data) > 0 {
		page := d.fl.PageOf(addr)
		off := addr - d.fl.PageBase(page)
		n := ps - off
		if n > len(data) {
			n = len(data)
		}
		buf := e.dataPool.Get().(*[]byte)
		chunk := (*buf)[:n]
		copy(chunk, data[:n])
		e.queues[d.fl.BankOf(page)] <- asyncReq{page: page, off: off, data: chunk, buf: buf, c: c}
		addr += n
		data = data[n:]
	}
	return c
}

func (e *asyncEngine) flush() {
	e.mu.Lock()
	for e.pending > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

func (e *asyncEngine) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, q := range e.queues {
		close(q)
	}
	e.wg.Wait()
}

// finishReq resolves one chunk and returns its resources.
func (e *asyncEngine) finishReq(r asyncReq, err error) {
	r.c.resolve(err)
	e.dataPool.Put(r.buf)
	e.mu.Lock()
	e.pending--
	if e.pending == 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// asyncWorker is one bank's commit worker. All scratch is worker-owned and
// sized to the queue depth, so the steady state allocates nothing.
type asyncWorker struct {
	e    *asyncEngine
	bank int

	batch    []asyncReq
	sessions []session
	errs     []error
	encs     []encodeResult
	encoded  []bool
	segs     []approx.Segment
	segIdx   []int
	stats    []approx.BatchStats
}

func newAsyncWorker(e *asyncEngine, bank int) *asyncWorker {
	return &asyncWorker{
		e:        e,
		bank:     bank,
		batch:    make([]asyncReq, 0, e.depth),
		sessions: make([]session, e.depth),
		errs:     make([]error, e.depth),
		encs:     make([]encodeResult, e.depth),
		encoded:  make([]bool, e.depth),
		segs:     make([]approx.Segment, 0, e.depth),
		segIdx:   make([]int, 0, e.depth),
		stats:    make([]approx.BatchStats, e.depth),
	}
}

// run drains the bank's queue until it is closed: one blocking receive,
// then an opportunistic non-blocking drain up to the configured depth.
func (w *asyncWorker) run() {
	defer w.e.wg.Done()
	q := w.e.queues[w.bank]
	for {
		req, ok := <-q
		if !ok {
			return
		}
		w.batch = w.batch[:0]
		w.batch = append(w.batch, req)
	drain:
		for len(w.batch) < w.e.depth {
			select {
			case r, ok := <-q:
				if !ok {
					break drain
				}
				w.batch = append(w.batch, r)
			default:
				break drain
			}
		}
		w.commitBatch(w.batch)
	}
}

// commitBatch splits a drained batch at duplicate pages — a later write to
// a page already in the group must observe the earlier commit's array
// state, so it starts a new group — and group-commits each window.
func (w *asyncWorker) commitBatch(batch []asyncReq) {
	for start := 0; start < len(batch); {
		end := start + 1
	window:
		for end < len(batch) {
			for i := start; i < end; i++ {
				if batch[i].page == batch[end].page {
					break window
				}
			}
			end++
		}
		w.commitGroup(batch[start:end])
		start = end
	}
}

// commitGroup commits one window of distinct-page requests under a single
// bank-lock acquisition: every session loads and applies first, then all
// kernel-eligible approximatable spans encode in one EncodeSegments call,
// then each session gates, programs and resolves in request order.
func (w *asyncWorker) commitGroup(reqs []asyncReq) {
	d := w.e.d
	d.commitMu[w.bank].Lock()

	// Phase 1: load + apply.
	n := len(reqs)
	for i := 0; i < n; i++ {
		s := &w.sessions[i]
		*s = session{d: d, page: reqs[i].page, off: reqs[i].off, data: reqs[i].data,
			bufs: d.bufPool.Get().(*commitBuffers)}
		w.encoded[i] = false
		if w.errs[i] = s.load(); w.errs[i] == nil {
			s.apply()
		}
	}

	// Phase 2: one batch-kernel invocation across the group.
	be, isBatch := d.enc.(approx.BatchEncoder)
	if isBatch && !d.scalarEncode {
		width := d.Width()
		w.segs = w.segs[:0]
		w.segIdx = w.segIdx[:0]
		for i := 0; i < n; i++ {
			if w.errs[i] != nil {
				continue
			}
			s := &w.sessions[i]
			if !d.Approximatable(s.page) {
				continue
			}
			lo, hi, batch := s.kernelSpan(width)
			if !batch {
				continue
			}
			w.segs = append(w.segs, approx.Segment{
				Prev:   s.bufs.previous[lo:hi],
				Exact:  s.bufs.exact[lo:hi],
				Approx: s.bufs.approx[lo:hi],
			})
			w.segIdx = append(w.segIdx, i)
		}
		if len(w.segs) > 0 {
			approx.EncodeSegments(be, w.segs, width, w.stats[:len(w.segs)])
			for j, i := range w.segIdx {
				w.encs[i] = d.batchResult(w.stats[j])
				w.encoded[i] = true
			}
		}
	}

	// Phase 3: gate + program + stats, in request order.
	for i := 0; i < n; i++ {
		if w.errs[i] == nil {
			w.errs[i] = d.finishLocked(w.bank, &w.sessions[i], w.encs[i], w.encoded[i])
		}
		d.bufPool.Put(w.sessions[i].bufs)
		w.sessions[i] = session{}
	}
	d.commitMu[w.bank].Unlock()

	for i := 0; i < n; i++ {
		w.e.finishReq(reqs[i], w.errs[i])
		w.errs[i] = nil
	}
}
