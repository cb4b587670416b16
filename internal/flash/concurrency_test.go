package flash

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// concurrencySpec: enough pages that every bank owns several.
func concurrencySpec() Spec {
	s := DefaultSpec()
	s.PageSize = 32
	s.NumPages = 64
	s.Banks = 4
	return s
}

// workerOps drives a deterministic, fault-free op sequence against the
// pages of one bank. The same sequence is used serially and concurrently.
func workerOps(d *Device, bank, rounds int, seed uint64) {
	rng := xrand.New(seed)
	spec := d.Spec()
	var pages []int
	for p := 0; p < spec.NumPages; p++ {
		if d.BankOf(p) == bank {
			pages = append(pages, p)
		}
	}
	buf := make([]byte, spec.PageSize)
	for r := 0; r < rounds; r++ {
		p := pages[rng.Intn(len(pages))]
		base := d.PageBase(p)
		switch rng.Intn(4) {
		case 0:
			_ = d.Read(base, buf)
		case 1:
			_ = d.ProgramByte(base+rng.Intn(spec.PageSize), 0)
		case 2:
			_ = d.ErasePage(p)
		case 3:
			for i := range buf {
				buf[i] = rng.Byte()
			}
			_ = d.EraseProgramPage(p, buf)
		}
	}
}

// TestConcurrentDisjointBanksMatchSerial: one goroutine per bank, each
// issuing a deterministic sequence against its own bank, must produce
// byte-identical merged stats (including float energy) and identical array
// contents to running the same sequences serially.
func TestConcurrentDisjointBanksMatchSerial(t *testing.T) {
	spec := concurrencySpec()
	const rounds = 400

	serial := MustNewDevice(spec)
	for b := 0; b < serial.Banks(); b++ {
		workerOps(serial, b, rounds, uint64(1000+b))
	}

	conc := MustNewDevice(spec)
	var wg sync.WaitGroup
	for b := 0; b < conc.Banks(); b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			workerOps(conc, b, rounds, uint64(1000+b))
		}(b)
	}
	wg.Wait()

	if s, c := serial.Stats(), conc.Stats(); s != c {
		t.Errorf("merged stats differ:\nserial     %+v\nconcurrent %+v", s, c)
	}
	for b := 0; b < serial.Banks(); b++ {
		if s, c := serial.BankStats(b), conc.BankStats(b); s != c {
			t.Errorf("bank %d shard differs:\nserial     %+v\nconcurrent %+v", b, s, c)
		}
	}
	for addr := 0; addr < spec.Size(); addr++ {
		if serial.Peek(addr) != conc.Peek(addr) {
			t.Fatalf("array differs at %#x: %02x vs %02x", addr, serial.Peek(addr), conc.Peek(addr))
		}
	}
	for p := 0; p < spec.NumPages; p++ {
		if serial.Wear(p) != conc.Wear(p) {
			t.Errorf("wear differs at page %d: %d vs %d", p, serial.Wear(p), conc.Wear(p))
		}
	}
}

// TestRaceStressPowerLossDuringTraffic: repeatedly arming the device-wide
// one-shot power-loss fault while goroutines hammer every bank. Which racing
// operation trips the fault is scheduling-dependent, like a real brown-out,
// but the device must stay coherent: operation counts are
// conserved in the stats, and after the storm every page still erases,
// programs and reads back correctly.
func TestRaceStressPowerLossDuringTraffic(t *testing.T) {
	spec := concurrencySpec()
	d := MustNewDevice(spec)

	const workers = 8
	const perWorker = 400
	stop := make(chan struct{})
	var armer sync.WaitGroup
	armer.Add(1)
	go func() {
		defer armer.Done()
		rng := xrand.New(0xA11CE)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.InjectPowerLoss(rng.Intn(5))
		}
	}()

	var wg sync.WaitGroup
	losses := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(500 + w))
			buf := make([]byte, spec.PageSize)
			for r := 0; r < perWorker; r++ {
				p := rng.Intn(spec.NumPages)
				var err error
				switch rng.Intn(3) {
				case 0:
					err = d.Read(d.PageBase(p), buf)
				case 1:
					err = d.ErasePage(p)
				case 2:
					err = d.ProgramByte(d.PageBase(p)+rng.Intn(spec.PageSize), 0)
				}
				if errors.Is(err, ErrPowerLoss) {
					losses[w]++
				} else if err != nil {
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	armer.Wait()
	d.ClearFaults()

	// Interrupted operations still emit exactly one event each, so the op
	// count is conserved even across faults.
	st := d.Stats()
	totalOps := st.Erases + st.Programs + st.ProgramsSkipped + st.Reads/uint64(spec.PageSize)
	if totalOps != workers*perWorker {
		t.Errorf("ops not conserved: %d, want %d (stats %+v)", totalOps, workers*perWorker, st)
	}
	var totalLosses int
	for _, n := range losses {
		totalLosses += n
	}
	if totalLosses == 0 {
		t.Error("storm never tripped a power loss — arming raced to nothing")
	}
	if fired := d.FaultsFired(); fired < uint64(totalLosses) {
		t.Errorf("FaultsFired %d < observed losses %d", fired, totalLosses)
	}

	// The device must be fully functional after the storm.
	buf := make([]byte, spec.PageSize)
	for p := 0; p < spec.NumPages; p++ {
		if err := d.ErasePage(p); err != nil {
			t.Fatalf("post-storm erase page %d: %v", p, err)
		}
		if err := d.ProgramByte(d.PageBase(p), 0x5A); err != nil {
			t.Fatalf("post-storm program page %d: %v", p, err)
		}
		if err := d.ReadPage(p, buf); err != nil {
			t.Fatalf("post-storm read page %d: %v", p, err)
		}
		if buf[0] != 0x5A {
			t.Fatalf("post-storm readback page %d: got %02x", p, buf[0])
		}
	}
}

// TestConcurrentOverlappingBanks: goroutines deliberately hammering the
// same banks must stay race-free and conserve operation counts.
func TestConcurrentOverlappingBanks(t *testing.T) {
	spec := concurrencySpec()
	d := MustNewDevice(spec)
	// changes counts what the event stream says changed in the array: each
	// byte a program changed, and each erase.
	var changes atomic.Uint64
	d.Attach(ObserverFunc(func(ev OpEvent) {
		switch ev.Kind {
		case OpProgram:
			for i, v := range ev.Data {
				if ev.Prev[i] != v {
					changes.Add(1)
				}
			}
		case OpErase:
			changes.Add(1)
		}
	}))

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(42 + w))
			buf := make([]byte, spec.PageSize)
			for r := 0; r < perWorker; r++ {
				p := rng.Intn(spec.NumPages) // any page, any bank
				switch rng.Intn(3) {
				case 0:
					_ = d.Read(d.PageBase(p), buf)
				case 1:
					_ = d.ErasePage(p)
				case 2:
					_ = d.ProgramByte(d.PageBase(p)+rng.Intn(spec.PageSize), 0)
				}
			}
		}(w)
	}
	wg.Wait()

	st := d.Stats()
	totalOps := st.Erases + st.Programs + st.ProgramsSkipped + st.Reads/uint64(spec.PageSize)
	if totalOps != workers*perWorker {
		t.Errorf("ops not conserved: %d, want %d (stats %+v)", totalOps, workers*perWorker, st)
	}
	if got := changes.Load(); got != st.Programs+st.Erases {
		t.Errorf("events changed the array %d times, stats say %d", got, st.Programs+st.Erases)
	}
}

// TestConcurrentReadersAndWriters: reads spanning many banks race-free
// against writers; every byte read is either 0xFF or 0x00 (no torn bytes).
func TestConcurrentReadersAndWriters(t *testing.T) {
	spec := concurrencySpec()
	d := MustNewDevice(spec)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		buf := make([]byte, spec.Size())
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.Read(0, buf)
			for i, v := range buf {
				if v != 0xFF && v != 0x00 {
					t.Errorf("torn byte %02x at %#x", v, i)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := xrand.New(uint64(7 + w))
			for i := 0; i < 200; i++ {
				p := rng.Intn(spec.NumPages)
				if rng.Intn(2) == 0 {
					_ = d.ErasePage(p)
				} else {
					_ = d.ProgramByte(d.PageBase(p)+rng.Intn(spec.PageSize), 0x00)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
