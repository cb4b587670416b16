package flash

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// bankEventLog is a ShardObserver that records each bank's event stream
// into its own slice. Shards are installed into their bank's subscriber
// list, so each slice is appended to under that bank's lock only — the
// recorder itself needs no locking, which also means the race detector
// verifies the sharding claim for free.
type bankEventLog struct {
	shards []*bankEventShard
}

type bankEventShard struct {
	bank   int
	events []OpEvent
}

func (l *bankEventLog) OnOp(ev OpEvent) {
	panic("bankEventLog must be attached through ObserverShards")
}

func (l *bankEventLog) ObserverShards(banks int) []Observer {
	l.shards = make([]*bankEventShard, banks)
	obs := make([]Observer, banks)
	for b := range obs {
		l.shards[b] = &bankEventShard{bank: b}
		obs[b] = l.shards[b]
	}
	return obs
}

func (s *bankEventShard) OnOp(ev OpEvent) {
	// Data/Prev alias device buffers and are only valid during OnOp:
	// drop them so the retained copy cannot be mutated under us.
	ev.Data, ev.Prev = nil, nil
	s.events = append(s.events, ev)
}

// eventWorkload drives a deterministic mix of page programs, byte programs
// and erases against the pages of one bank.
func eventWorkload(d *Device, bank, rounds int, seed uint64) {
	spec := d.Spec()
	rng := xrand.New(seed)
	var pages []int
	for p := 0; p < spec.NumPages; p++ {
		if d.BankOf(p) == bank {
			pages = append(pages, p)
		}
	}
	buf := make([]byte, spec.PageSize)
	for r := 0; r < rounds; r++ {
		p := pages[rng.Intn(len(pages))]
		switch rng.Intn(4) {
		case 0:
			_ = d.ErasePage(p)
		case 1:
			_ = d.ProgramByte(d.PageBase(p)+rng.Intn(spec.PageSize), rng.Byte())
		default:
			for i := range buf {
				buf[i] = rng.Byte()
			}
			_ = d.ProgramPage(p, buf)
		}
	}
}

// TestPerBankEventStreamsTotallyOrdered is the op-event bus ordering
// property: under concurrent cross-bank traffic, every bank's event stream
// carries a gapless, strictly increasing sequence number starting at 1,
// each event is tagged with its own bank, and the count matches what the
// merged stats report. Run under -race this also proves shard delivery
// never crosses banks without synchronization.
func TestPerBankEventStreamsTotallyOrdered(t *testing.T) {
	d, err := NewDevice(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	log := &bankEventLog{}
	detach := d.Attach(log)
	defer detach()

	var wg sync.WaitGroup
	for b := 0; b < d.Banks(); b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			eventWorkload(d, b, 200, 0xE0+uint64(b))
		}(b)
	}
	wg.Wait()

	for b, shard := range log.shards {
		if len(shard.events) == 0 {
			t.Errorf("bank %d: no events recorded", b)
			continue
		}
		for i, ev := range shard.events {
			if ev.Bank != b {
				t.Fatalf("bank %d shard received event for bank %d", b, ev.Bank)
			}
			if ev.Seq != uint64(i+1) {
				t.Fatalf("bank %d event %d: seq %d, want %d (gapless from 1)", b, i, ev.Seq, i+1)
			}
		}
	}
}

// TestProgramPageMatchesByteLoop is the one-program-path differential:
// ProgramPage on one device and a ProgramByte loop over the same buffer on
// its twin must agree on the array, the drift and rise masks, the error of
// every call, the faults fired, the trace and the stats. Both devices run
// seeded power-loss and transient-program schedules in every bank scope and
// in the shared scope, with gaps up to two pages of pulses so victims land
// mid-page, with and without SetProgramAll.
func TestProgramPageMatchesByteLoop(t *testing.T) {
	for _, programAll := range []bool{false, true} {
		t.Run(fmt.Sprintf("programAll=%v", programAll), func(t *testing.T) {
			spec := smallSpec()
			spec.EnduranceCycles = 1 << 20
			mix := FaultMix{PowerLoss: 1, TransientProgram: 1, MaxGap: 2 * spec.PageSize, MaxRetries: 3}
			var devs [2]*Device
			var traces [2]*Trace
			for i := range devs {
				d := MustNewDevice(spec)
				d.SetProgramAll(programAll)
				d.SetFaultSchedule(NewRandomSchedule(0x5A, mix))
				for b := 0; b < d.Banks(); b++ {
					d.SetBankFaultSchedule(b, NewRandomSchedule(0xB0+uint64(b), mix))
				}
				traces[i] = NewTrace(0)
				d.Attach(traces[i])
				devs[i] = d
			}
			page, loop := devs[0], devs[1]
			errText := func(err error) string {
				if err == nil {
					return "<nil>"
				}
				return err.Error()
			}
			rng := xrand.New(0xD1FF)
			buf := make([]byte, spec.PageSize)
			for op := 0; op < 1500; op++ {
				p := rng.Intn(spec.NumPages)
				base := page.PageBase(p)
				var errs [2]error
				switch r := rng.Intn(10); {
				case r == 0:
					errs[0], errs[1] = page.ErasePage(p), loop.ErasePage(p)
				case r == 1:
					// Seed drift and rise masks through the fault helpers;
					// both draw from the bank RNG, which the twins share.
					n := 1 + rng.Intn(2)
					for _, d := range devs {
						d.stickBits(d.BankOf(p), p, n)
						d.markRetention(d.BankOf(p), p)
					}
				default:
					// A reachable target: clear a random subset of the
					// stored bits, or (1 in 4) rewrite the page as stored.
					keep := rng.Intn(4) == 0
					for i := range buf {
						buf[i] = page.Peek(base + i)
						if !keep {
							buf[i] &^= rng.Byte() & rng.Byte()
						}
					}
					errs[0] = page.ProgramPage(p, buf)
					for i, v := range buf {
						if errs[1] = loop.ProgramByte(base+i, v); errs[1] != nil {
							break
						}
					}
				}
				if errText(errs[0]) != errText(errs[1]) {
					t.Fatalf("op %d: page-path error %q, byte-loop error %q", op, errText(errs[0]), errText(errs[1]))
				}
				for i := 0; i < spec.PageSize; i++ {
					if a, b := page.Peek(base+i), loop.Peek(base+i); a != b {
						t.Fatalf("op %d: addr %#x holds %08b on the page path, %08b on the byte loop", op, base+i, a, b)
					}
				}
			}

			if page.FaultsFired() != loop.FaultsFired() || page.FaultsFired() == 0 {
				t.Fatalf("faults fired: page path %d, byte loop %d (want equal and > 0)", page.FaultsFired(), loop.FaultsFired())
			}
			ps, ls := page.Stats(), loop.Stats()
			if ps.ProgramFails == 0 {
				t.Fatalf("no transient program failure fired: %+v", ps)
			}
			pe, le := ps.Energy, ls.Energy
			if d := float64(pe - le); d > 1e-12*float64(le) || d < -1e-12*float64(le) {
				t.Errorf("energy: page path %v, byte loop %v (beyond 1e-12 relative)", pe, le)
			}
			ps.Energy, ls.Energy = 0, 0
			if ps != ls {
				t.Errorf("stats differ\npage path %+v\nbyte loop %+v", ps, ls)
			}
			mask := [2][]byte{make([]byte, spec.PageSize), make([]byte, spec.PageSize)}
			for p := 0; p < spec.NumPages; p++ {
				for _, into := range []func(*Device, int, []byte) (int, error){(*Device).StuckMaskInto, (*Device).RiseMaskInto} {
					for i, d := range devs {
						clear(mask[i])
						if _, err := into(d, p, mask[i]); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(mask[0], mask[1]) {
						t.Fatalf("page %d: masks differ\npage path %x\nbyte loop %x", p, mask[0], mask[1])
					}
				}
			}
			pt, lt := traces[0].Entries(), traces[1].Entries()
			if len(pt) != len(lt) {
				t.Fatalf("trace length: page path %d, byte loop %d", len(pt), len(lt))
			}
			for i := range pt {
				if pt[i] != lt[i] {
					t.Fatalf("trace entry %d: page path %+v, byte loop %+v", i, pt[i], lt[i])
				}
			}
		})
	}
}

// TestCrossBankTraceMergeDeterministic: the sharded trace's merge order
// depends only on each bank's operation sequence, so serial and concurrent
// runs of the same per-bank workloads read back identical traces and
// identical merged stats.
func TestCrossBankTraceMergeDeterministic(t *testing.T) {
	const rounds = 200
	run := func(concurrent bool) (Stats, []TraceEntry) {
		d, err := NewDevice(DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrace(0)
		d.Attach(tr)
		if concurrent {
			var wg sync.WaitGroup
			for b := 0; b < d.Banks(); b++ {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					eventWorkload(d, b, rounds, 0xC0+uint64(b))
				}(b)
			}
			wg.Wait()
		} else {
			for b := 0; b < d.Banks(); b++ {
				eventWorkload(d, b, rounds, 0xC0+uint64(b))
			}
		}
		return d.Stats(), tr.Entries()
	}
	serialStats, serialTrace := run(false)
	for trial := 0; trial < 3; trial++ {
		concStats, concTrace := run(true)
		if serialStats != concStats {
			t.Errorf("trial %d: stats differ\nserial     %+v\nconcurrent %+v", trial, serialStats, concStats)
		}
		if len(serialTrace) != len(concTrace) {
			t.Fatalf("trial %d: trace length differs: serial %d, concurrent %d", trial, len(serialTrace), len(concTrace))
		}
		for i := range serialTrace {
			if serialTrace[i] != concTrace[i] {
				t.Fatalf("trial %d: trace entry %d differs: serial %+v, concurrent %+v",
					trial, i, serialTrace[i], concTrace[i])
			}
		}
	}
}
