package core

import (
	"errors"
	"sync"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// pageWrite is one scripted page commit of a bank's workload.
type pageWrite struct {
	page int
	data []byte
}

// bankPlan scripts a deterministic sequence of page writes against the
// pages of one bank. The plan depends only on (spec, bank, seed), so the
// same per-bank sequences can be driven serially, concurrently and through
// the async pipeline.
func bankPlan(spec flash.Spec, banks, bank, rounds int, seed uint64) []pageWrite {
	rng := xrand.New(seed)
	var pages []int
	for p := 0; p < spec.NumPages; p++ {
		if p%banks == bank {
			pages = append(pages, p)
		}
	}
	plan := make([]pageWrite, rounds)
	for r := range plan {
		buf := make([]byte, spec.PageSize)
		for i := range buf {
			buf[i] = rng.Byte()
		}
		plan[r] = pageWrite{page: pages[rng.Intn(len(pages))], data: buf}
	}
	return plan
}

// TestAsyncStatsEquivalenceSerialConcurrentAsync is the tentpole property:
// for identical per-bank write sequences, four drive modes — serial Write,
// one goroutine per bank, a single producer feeding the async pipeline,
// and concurrent producers feeding the async pipeline — must produce
// byte-identical merged flash stats (counts, float energy, busy time),
// controller stats, and array contents. Batch boundaries in the async
// pipeline are scheduling-dependent; the results must not be.
func TestAsyncStatsEquivalenceSerialConcurrentAsync(t *testing.T) {
	spec := concSpec()
	const rounds = 100
	for _, threshold := range []float64{0, 4, 255} {
		for seed := uint64(1); seed <= 2; seed++ {
			plans := make([][]pageWrite, spec.Banks)
			for b := range plans {
				plans[b] = bankPlan(spec, spec.Banks, b, rounds, seed*100+uint64(b))
			}

			serial := newConcDevice(t, spec, threshold)
			for _, plan := range plans {
				for _, pw := range plan {
					_ = serial.Write(serial.Flash().PageBase(pw.page), pw.data)
				}
			}

			conc := newConcDevice(t, spec, threshold)
			var wg sync.WaitGroup
			for b := range plans {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					for _, pw := range plans[b] {
						_ = conc.Write(conc.Flash().PageBase(pw.page), pw.data)
					}
				}(b)
			}
			wg.Wait()

			drive := func(d *Device, concurrent bool) {
				if concurrent {
					var pw sync.WaitGroup
					for b := range plans {
						pw.Add(1)
						go func(b int) {
							defer pw.Done()
							for _, w := range plans[b] {
								d.WriteAsync(d.Flash().PageBase(w.page), w.data)
							}
						}(b)
					}
					pw.Wait()
				} else {
					// Round-robin enqueue: per-bank order is still
					// each plan's order.
					for r := 0; r < rounds; r++ {
						for b := range plans {
							w := plans[b][r]
							d.WriteAsync(d.Flash().PageBase(w.page), w.data)
						}
					}
				}
				d.Flush()
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
			async := MustNewDevice(spec, WithAsyncCommit(8))
			if err := async.SetApproxRegion(0, spec.Size()); err != nil {
				t.Fatal(err)
			}
			async.SetThreshold(threshold)
			drive(async, false)

			asyncConc := MustNewDevice(spec, WithAsyncCommit(8))
			if err := asyncConc.SetApproxRegion(0, spec.Size()); err != nil {
				t.Fatal(err)
			}
			asyncConc.SetThreshold(threshold)
			drive(asyncConc, true)

			for _, m := range []struct {
				name string
				d    *Device
			}{{"concurrent", conc}, {"async", async}, {"async-concurrent", asyncConc}} {
				if s, c := serial.Flash().Stats(), m.d.Flash().Stats(); s != c {
					t.Errorf("threshold %v seed %d %s: flash stats differ\nserial %+v\ngot    %+v",
						threshold, seed, m.name, s, c)
				}
				for b := 0; b < spec.Banks; b++ {
					if s, c := serial.Flash().BankStats(b), m.d.Flash().BankStats(b); s != c {
						t.Errorf("threshold %v seed %d %s: bank %d shard differs\nserial %+v\ngot    %+v",
							threshold, seed, m.name, b, s, c)
					}
				}
				if s, c := serial.Stats(), m.d.Stats(); s != c {
					t.Errorf("threshold %v seed %d %s: controller stats differ\nserial %+v\ngot    %+v",
						threshold, seed, m.name, s, c)
				}
				for addr := 0; addr < spec.Size(); addr++ {
					if serial.Flash().Peek(addr) != m.d.Flash().Peek(addr) {
						t.Fatalf("threshold %v seed %d %s: array differs at %#x",
							threshold, seed, m.name, addr)
					}
				}
			}
		}
	}
}

// TestAsyncFlushDrainsQueuedWrites: writes enqueued without waiting are all
// committed once Flush returns, and futures resolved afterwards are
// immediate.
func TestAsyncFlushDrainsQueuedWrites(t *testing.T) {
	spec := concSpec()
	d := MustNewDevice(spec, WithAsyncCommit(4))
	defer d.Close()
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(255)
	rng := xrand.New(0xF1)
	var writes []pageWrite
	var commits []*Commit
	for i := 0; i < 200; i++ {
		p := rng.Intn(spec.NumPages)
		buf := make([]byte, spec.PageSize)
		for j := range buf {
			buf[j] = rng.Byte()
		}
		commits = append(commits, d.WriteAsync(d.Flash().PageBase(p), buf))
		writes = append(writes, pageWrite{page: p, data: buf})
	}
	d.Flush()
	st := d.Stats()
	if st.PagesApprox+st.PagesExact != 200 {
		t.Errorf("after Flush: %d pages committed, want 200 (%+v)", st.PagesApprox+st.PagesExact, st)
	}
	for _, c := range commits {
		if err := c.Wait(); err != nil {
			t.Errorf("commit error: %v", err)
		}
	}
	// A single enqueuer keeps each bank's order equal to program order, so
	// the flushed array must match a serial replay of the same writes.
	serial := newConcDevice(t, spec, 255)
	for _, w := range writes {
		_ = serial.Write(serial.Flash().PageBase(w.page), w.data)
	}
	for addr := 0; addr < spec.Size(); addr++ {
		if serial.Flash().Peek(addr) != d.Flash().Peek(addr) {
			t.Fatalf("array differs from serial replay at %#x", addr)
		}
	}
}

// TestAsyncCloseSemantics: Close drains, double Close is fine, WriteAsync
// after Close fails with ErrAsyncClosed, and synchronous Write/Read still
// work.
func TestAsyncCloseSemantics(t *testing.T) {
	spec := concSpec()
	d := MustNewDevice(spec, WithAsyncCommit(4))
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(255)
	buf := make([]byte, spec.PageSize)
	for i := range buf {
		buf[i] = 0x5A
	}
	c := d.WriteAsync(0, buf)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Errorf("pre-close write failed: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := d.WriteAsync(0, buf).Wait(); !errors.Is(err, ErrAsyncClosed) {
		t.Errorf("WriteAsync after Close = %v, want ErrAsyncClosed", err)
	}
	if err := d.Write(0, buf); err != nil {
		t.Errorf("synchronous Write after Close: %v", err)
	}
	got := make([]byte, spec.PageSize)
	if err := d.Read(0, got); err != nil {
		t.Errorf("Read after Close: %v", err)
	}
}

// TestAsyncWithoutOptionIsSynchronous: WriteAsync on a device built
// without WithAsyncCommit performs the write inline and returns a resolved
// future; Flush and Close are no-ops.
func TestAsyncWithoutOptionIsSynchronous(t *testing.T) {
	spec := concSpec()
	d := newConcDevice(t, spec, 255)
	buf := make([]byte, spec.PageSize)
	c := d.WriteAsync(0, buf)
	// The write already happened: stats are visible before Wait.
	if st := d.Stats(); st.PagesApprox+st.PagesExact != 1 {
		t.Errorf("synchronous fallback did not commit inline: %+v", st)
	}
	if err := c.Wait(); err != nil {
		t.Errorf("Wait: %v", err)
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestAsyncMultiPageFuture: one WriteAsync spanning several pages (and
// banks) resolves only when every chunk committed, and the data lands.
func TestAsyncMultiPageFuture(t *testing.T) {
	spec := concSpec()
	d := MustNewDevice(spec, WithAsyncCommit(4))
	defer d.Close()
	data := make([]byte, spec.PageSize*3+7)
	rng := xrand.New(3)
	for i := range data {
		data[i] = rng.Byte()
	}
	addr := spec.PageSize/2 + 1
	if err := d.WriteAsync(addr, data).Wait(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %02x != %02x", i, got[i], data[i])
		}
	}
	// Bounds and empty writes resolve immediately.
	if err := d.WriteAsync(spec.Size()-1, make([]byte, 2)).Wait(); !errors.Is(err, flash.ErrBounds) {
		t.Errorf("out-of-bounds WriteAsync = %v, want ErrBounds", err)
	}
	if err := d.WriteAsync(0, nil).Wait(); err != nil {
		t.Errorf("empty WriteAsync = %v, want nil", err)
	}
}

// TestAsyncErrorPropagation: the failure modes of the serial Write path
// surface through the completion future with the same error identities —
// flash.ErrWornOut (best-effort, sticky), flash.ErrPowerLoss (hard), and
// ErrExactDegraded from the health gate.
func TestAsyncErrorPropagation(t *testing.T) {
	spec := concSpec()
	spec.EnduranceCycles = 3

	t.Run("worn-out", func(t *testing.T) {
		d := MustNewDevice(spec, WithAsyncCommit(4))
		defer d.Close()
		a := make([]byte, spec.PageSize)
		b := make([]byte, spec.PageSize)
		for i := range a {
			a[i], b[i] = 0xAA, 0x55 // disjoint bits: every rewrite needs an erase
		}
		var sawWorn bool
		for i := 0; i < 2*int(spec.EnduranceCycles)+4; i++ {
			buf := a
			if i%2 == 1 {
				buf = b
			}
			if err := d.WriteAsync(0, buf).Wait(); err != nil {
				if !errors.Is(err, flash.ErrWornOut) {
					t.Fatalf("unexpected error: %v", err)
				}
				sawWorn = true
			}
		}
		if !sawWorn {
			t.Error("page never wore out through the async path")
		}
	})

	t.Run("power-loss", func(t *testing.T) {
		d := MustNewDevice(spec, WithAsyncCommit(4))
		defer d.Close()
		buf := make([]byte, spec.PageSize) // all zero: needs programs
		d.Flash().InjectPowerLoss(0)
		err := d.WriteAsync(0, buf).Wait()
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Errorf("WriteAsync under power loss = %v, want ErrPowerLoss", err)
		}
	})

	t.Run("exact-degraded", func(t *testing.T) {
		d := MustNewDevice(spec, WithAsyncCommit(4), WithHealthGate())
		defer d.Close()
		// Wear page 0 past its rating so the health gate refuses exact data.
		for i := 0; i <= int(spec.EnduranceCycles); i++ {
			_ = d.Flash().ErasePage(0)
		}
		buf := make([]byte, spec.PageSize)
		err := d.WriteAsync(0, buf).Wait()
		if !errors.Is(err, ErrExactDegraded) {
			t.Errorf("exact write to degraded page = %v, want ErrExactDegraded", err)
		}
	})
}

// TestAsyncWindowsUnderFaults: with a bank-scoped schedule of faults that
// fire on programs and erases, writes that share an async group-commit
// window must leave the same array, flash stats, controller stats, faults
// fired and per-write errors as the same writes issued through serial
// Write. The test holds the bank's commit lock while it enqueues each
// round, so every round after the first is committed as multi-request
// windows; the page loads of the bank's event stream show it.
func TestAsyncWindowsUnderFaults(t *testing.T) {
	spec := concSpec()
	const bank, rounds = 0, 40
	mix := flash.FaultMix{PowerLoss: 2, StuckBits: 1, TransientProgram: 2, TransientErase: 1,
		MaxGap: spec.PageSize, MaxBits: 2, MaxRetries: 3}
	var pages []int
	for p := bank; p < spec.NumPages; p += spec.Banks {
		pages = append(pages, p)
	}
	rng := xrand.New(0xA5)
	plan := make([][]pageWrite, rounds)
	for r := range plan {
		for _, i := range rng.Perm(len(pages)) {
			buf := make([]byte, spec.PageSize)
			for j := range buf {
				buf[j] = rng.Byte()
			}
			plan[r] = append(plan[r], pageWrite{page: pages[i], data: buf})
		}
	}
	// newDevice also returns the longest run of back-to-back page loads
	// in the bank's event stream: 1 when every load is followed by its
	// commit, more when a window loads several pages first.
	newDevice := func(opts ...Option) (*Device, *int) {
		d := MustNewDevice(spec, opts...)
		if err := d.SetApproxRegion(0, spec.Size()); err != nil {
			t.Fatal(err)
		}
		d.SetThreshold(4)
		d.Flash().SetBankFaultSchedule(bank, flash.NewRandomSchedule(0xFA, mix))
		run, maxRun := 0, new(int)
		d.Flash().Attach(flash.ObserverFunc(func(ev flash.OpEvent) {
			if ev.Bank != bank {
				return
			}
			if ev.Kind == flash.OpRead && ev.Bytes == spec.PageSize {
				run++
				*maxRun = max(*maxRun, run)
			} else {
				run = 0
			}
		}))
		return d, maxRun
	}

	serial, serialRun := newDevice()
	var serialErrs []error
	for _, round := range plan {
		for _, w := range round {
			serialErrs = append(serialErrs, serial.Write(serial.Flash().PageBase(w.page), w.data))
		}
	}

	async, asyncRun := newDevice(WithAsyncCommit(len(pages)))
	var asyncErrs []error
	commits := make([]*Commit, len(pages))
	for _, round := range plan {
		async.commitMu[bank].Lock()
		for i, w := range round {
			commits[i] = async.WriteAsync(async.Flash().PageBase(w.page), w.data)
		}
		async.commitMu[bank].Unlock()
		for _, c := range commits {
			asyncErrs = append(asyncErrs, c.Wait())
		}
	}
	if err := async.Close(); err != nil {
		t.Fatal(err)
	}

	if *serialRun != 1 || *asyncRun < 2 {
		t.Fatalf("longest page-load run: serial %d (want 1), async %d (want >= 2: multi-request windows)", *serialRun, *asyncRun)
	}
	fired := serial.Flash().FaultsFired()
	if fired == 0 || fired != async.Flash().FaultsFired() {
		t.Fatalf("faults fired: serial %d, async %d (want equal and > 0)", fired, async.Flash().FaultsFired())
	}
	failed := 0
	for i := range serialErrs {
		se, ae := serialErrs[i], asyncErrs[i]
		for _, target := range []error{flash.ErrPowerLoss, flash.ErrTransient, flash.ErrWornOut} {
			if errors.Is(se, target) != errors.Is(ae, target) {
				t.Fatalf("write %d: serial error %v, async error %v", i, se, ae)
			}
		}
		if (se == nil) != (ae == nil) {
			t.Fatalf("write %d: serial error %v, async error %v", i, se, ae)
		}
		if se != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no write failed: the schedule never reached a commit")
	}
	t.Logf("%d writes, %d failed, %d faults fired, longest async load run %d", len(serialErrs), failed, fired, *asyncRun)
	if s, a := serial.Flash().Stats(), async.Flash().Stats(); s != a {
		t.Errorf("flash stats differ\nserial %+v\nasync  %+v", s, a)
	}
	if s, a := serial.Stats(), async.Stats(); s != a {
		t.Errorf("controller stats differ\nserial %+v\nasync  %+v", s, a)
	}
	for addr := 0; addr < spec.Size(); addr++ {
		if serial.Flash().Peek(addr) != async.Flash().Peek(addr) {
			t.Fatalf("array differs at %#x", addr)
		}
	}
}

// TestAsyncCommitSteadyStateAllocs is the zero-alloc guard for the async
// steady state: once the pools are warm, WriteAsync + Wait allocates
// nothing — commits, page buffers and session buffers all recycle.
func TestAsyncCommitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	spec := concSpec()
	d := MustNewDevice(spec, WithAsyncCommit(8))
	defer d.Close()
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(255)
	rng := xrand.New(11)
	a := make([]byte, spec.PageSize)
	b := make([]byte, spec.PageSize)
	for i := range a {
		a[i] = rng.Byte()
		b[i] = byte(int(a[i]) + rng.Intn(5) - 2)
	}
	for i := 0; i < 16; i++ { // warm the pools and the page
		if err := d.WriteAsync(0, a).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf := a
		if i%2 == 1 {
			buf = b
		}
		i++
		if err := d.WriteAsync(0, buf).Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("async steady state allocates %.2f objects per op, want ~0", allocs)
	}
}
