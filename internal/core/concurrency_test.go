package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func concSpec() flash.Spec {
	s := flash.DefaultSpec()
	s.PageSize = 32
	s.NumPages = 32
	s.Banks = 4
	return s
}

func newConcDevice(t testing.TB, spec flash.Spec, threshold float64) *Device {
	t.Helper()
	d := MustNewDevice(spec)
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(threshold)
	return d
}

// bankWorkload issues a deterministic sequence of page writes against the
// pages of one bank.
func bankWorkload(d *Device, bank, rounds int, seed uint64) {
	spec := d.Flash().Spec()
	rng := xrand.New(seed)
	var pages []int
	for p := 0; p < spec.NumPages; p++ {
		if d.Flash().BankOf(p) == bank {
			pages = append(pages, p)
		}
	}
	buf := make([]byte, spec.PageSize)
	for r := 0; r < rounds; r++ {
		p := pages[rng.Intn(len(pages))]
		for i := range buf {
			buf[i] = rng.Byte()
		}
		_ = d.Write(d.Flash().PageBase(p), buf)
	}
}

// pageWrite is one scripted page commit of a bank's workload.
type pageWrite struct {
	page int
	data []byte
}

// bankPlan scripts a deterministic sequence of page writes against the
// pages of one bank. The plan depends only on (spec, bank, seed), so the
// same per-bank sequences can be driven serially and concurrently.
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

// TestShardedStatsPropertyMergedEqualsSerial is the tentpole's correctness
// property: for identical per-bank workloads, a concurrent run (one
// goroutine per bank) must report byte-identical merged flash stats
// (operation counts, energy joules, busy time), controller stats, and
// controller MAE to a serial run. Several seeds and thresholds act as the
// property's sample space.
func TestShardedStatsPropertyMergedEqualsSerial(t *testing.T) {
	spec := concSpec()
	const rounds = 120
	for _, threshold := range []float64{0, 2, 8, 255} {
		for seed := uint64(1); seed <= 3; seed++ {
			serial := newConcDevice(t, spec, threshold)
			for b := 0; b < serial.Flash().Banks(); b++ {
				bankWorkload(serial, b, rounds, seed*100+uint64(b))
			}

			conc := newConcDevice(t, spec, threshold)
			var wg sync.WaitGroup
			for b := 0; b < conc.Flash().Banks(); b++ {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					bankWorkload(conc, b, rounds, seed*100+uint64(b))
				}(b)
			}
			wg.Wait()

			if s, c := serial.Flash().Stats(), conc.Flash().Stats(); s != c {
				t.Errorf("threshold %v seed %d: flash stats differ\nserial     %+v\nconcurrent %+v",
					threshold, seed, s, c)
			}
			if s, c := serial.Stats(), conc.Stats(); s != c {
				t.Errorf("threshold %v seed %d: controller stats differ\nserial     %+v\nconcurrent %+v",
					threshold, seed, s, c)
			}
			if s, c := serial.Stats().MAE(), conc.Stats().MAE(); s != c {
				t.Errorf("threshold %v seed %d: MAE %v != %v", threshold, seed, s, c)
			}
			// The stored arrays must match too: same workload, same data.
			for addr := 0; addr < spec.Size(); addr++ {
				if serial.Flash().Peek(addr) != conc.Flash().Peek(addr) {
					t.Fatalf("threshold %v seed %d: array differs at %#x", threshold, seed, addr)
				}
			}
		}
	}
}

// TestConcurrentCommitsOverlappingBanks race-stresses the commit path: N
// goroutines writing pages across ALL banks (so bank commit locks are
// contended) must stay race-free, conserve page-decision counts, and keep
// integer stats consistent with the flash layer.
func TestConcurrentCommitsOverlappingBanks(t *testing.T) {
	spec := concSpec()
	d := newConcDevice(t, spec, 4)
	const workers = 8
	const perWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(900 + w))
			buf := make([]byte, spec.PageSize)
			for r := 0; r < perWorker; r++ {
				p := rng.Intn(spec.NumPages) // any page: banks overlap
				for i := range buf {
					buf[i] = rng.Byte()
				}
				if err := d.Write(d.Flash().PageBase(p), buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := d.Stats()
	if st.PagesApprox+st.PagesExact != workers*perWorker {
		t.Errorf("page decisions not conserved: approx %d + exact %d != %d",
			st.PagesApprox, st.PagesExact, workers*perWorker)
	}
	// Every commit loads its page once: reads == commits * page size.
	fst := d.Flash().Stats()
	if want := uint64(workers * perWorker * spec.PageSize); fst.Reads != want {
		t.Errorf("flash reads = %d, want %d", fst.Reads, want)
	}
	// Per-bank shards sum to the merged totals.
	var sum Stats
	for b := 0; b < d.Flash().Banks(); b++ {
		sum.add(d.shards[b])
	}
	if sum != st {
		t.Errorf("shard sum %+v != merged %+v", sum, st)
	}
}

// TestConcurrentWritesDisjointPagesPreserveData: concurrent exact writers
// on disjoint pages must land exactly their own bytes.
func TestConcurrentWritesDisjointPagesPreserveData(t *testing.T) {
	spec := concSpec()
	d := MustNewDevice(spec) // approximation disabled: every byte exact
	const workers = 8
	pagesPer := spec.NumPages / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(3000 + w))
			buf := make([]byte, spec.PageSize)
			for round := 0; round < 40; round++ {
				p := w*pagesPer + rng.Intn(pagesPer)
				for i := range buf {
					buf[i] = rng.Byte()
				}
				if err := d.Write(d.Flash().PageBase(p), buf); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				got := make([]byte, spec.PageSize)
				if err := d.Read(d.Flash().PageBase(p), got); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for i := range buf {
					if got[i] != buf[i] {
						t.Errorf("worker %d page %d byte %d: %02x != %02x", w, p, i, got[i], buf[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentEnergyLedgerMatchesStats: a shared ledger subscribed to the
// op-event bus agrees with the merged stats even under concurrent commits
// (up to float summation order across banks).
func TestConcurrentEnergyLedgerMatchesStats(t *testing.T) {
	spec := concSpec()
	var led energy.Ledger
	d := MustNewDevice(spec, WithObserver(flash.NewLedgerObserver(&led)))
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(8)
	var wg sync.WaitGroup
	for b := 0; b < d.Flash().Banks(); b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			bankWorkload(d, b, 80, uint64(7000+b))
		}(b)
	}
	wg.Wait()
	st := d.Flash().Stats()
	if diff := math.Abs(float64(led.Total() - st.Energy)); diff > 1e-9*math.Abs(float64(st.Energy)) {
		t.Errorf("ledger total %v != stats energy %v", led.Total(), st.Energy)
	}
	if led.Busy() != st.Busy {
		t.Errorf("ledger busy %v != stats busy %v", led.Busy(), st.Busy)
	}
}

// TestConcurrentCommitSteadyStateAllocs is the zero-alloc guard for
// concurrent commit: one worker per bank, each cycling its own bank's
// pages between two payloads, allocates nothing per op once the pools are
// warm. Workers are spawned and parked on a start gate before the count
// starts, so goroutine stacks are not charged to the commit path.
func TestConcurrentCommitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	const opsPerWorker = 512
	for _, banks := range []int{4, 8, 16} {
		spec := flash.DefaultSpec()
		spec.NumPages = 256
		spec.Banks = banks
		d := MustNewDevice(spec)
		if err := d.SetApproxRegion(0, spec.Size()); err != nil {
			t.Fatal(err)
		}
		d.SetThreshold(4)
		rng := xrand.New(11)
		a := make([]byte, spec.PageSize)
		b := make([]byte, spec.PageSize)
		for i := range a {
			a[i] = rng.Byte()
			b[i] = byte(int(a[i]) + rng.Intn(5) - 2)
		}
		round := func(ready <-chan struct{}, wg *sync.WaitGroup) {
			for w := 0; w < banks; w++ {
				wg.Add(1)
				go func(bank int) {
					defer wg.Done()
					<-ready
					perBank := spec.NumPages / banks
					for i := 0; i < opsPerWorker; i++ {
						// Each pass over the bank's pages flips every
						// page to the other payload.
						buf := a
						if (i/perBank)%2 == 1 {
							buf = b
						}
						p := bank + banks*(i%perBank)
						if err := d.Write(d.Flash().PageBase(p), buf); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
		}
		var wg sync.WaitGroup
		warm := make(chan struct{})
		round(warm, &wg)
		close(warm)
		wg.Wait()

		ready := make(chan struct{})
		round(ready, &wg)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		close(ready)
		wg.Wait()
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / float64(banks*opsPerWorker)
		t.Logf("%d banks: %.4f allocs/op", banks, perOp)
		if perOp > 0.5 {
			t.Errorf("%d banks: concurrent commit allocates %.2f objects per op, want ~0", banks, perOp)
		}
	}
}
