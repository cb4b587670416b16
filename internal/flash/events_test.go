package flash

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
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
	bank    int
	events  []OpEvent
	changes []arrayChange
}

// arrayChange is one change an event made to the array: a program expands
// into one change per byte whose value it changed (Data[i] != Prev[i]), an
// erase is one change. Pulses that leave a byte as it was are not changes.
type arrayChange struct {
	erase bool
	addr  int // byte address of a program, page number of an erase
	value byte
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
	switch ev.Kind {
	case OpProgram:
		for i, v := range ev.Data {
			if ev.Prev[i] != v {
				s.changes = append(s.changes, arrayChange{addr: ev.Addr + i, value: v})
			}
		}
	case OpErase:
		s.changes = append(s.changes, arrayChange{erase: true, addr: ev.Addr})
	}
	// Data/Prev alias device buffers and are only valid during OnOp:
	// drop them so the retained copy cannot be mutated under us.
	ev.Data, ev.Prev = nil, nil
	s.events = append(s.events, ev)
}

// sameChanges fails t unless both logs hold the same changes, bank by bank.
func sameChanges(t *testing.T, what string, a, b *bankEventLog) {
	t.Helper()
	if len(a.shards) != len(b.shards) {
		t.Fatalf("%s: %d banks vs %d", what, len(a.shards), len(b.shards))
	}
	for bank := range a.shards {
		ac, bc := a.shards[bank].changes, b.shards[bank].changes
		if len(ac) != len(bc) {
			t.Fatalf("%s: bank %d recorded %d changes vs %d", what, bank, len(ac), len(bc))
		}
		for i := range ac {
			if ac[i] != bc[i] {
				t.Fatalf("%s: bank %d change %d: %+v vs %+v", what, bank, i, ac[i], bc[i])
			}
		}
	}
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
// every call, the faults fired, each bank's array changes and the stats. Both devices run
// one seeded power-loss and transient-program schedule, with gaps up to two
// pages of pulses so victims land mid-page, with and without SetProgramAll.
//
// The targets cover the dirty-window search of the page path: whole-page
// rewrites, pages rewritten as stored, narrow targets of 0–200 changed
// bytes that reach the first and last byte of the page, and targets with
// a byte only an erase could reach somewhere inside them (the page path must
// then fail with the byte loop's error for that byte, and change nothing).
// It runs on tiny SLC pages and on 256-byte SLC, MLC and TLC pages, and
// programs pages that carry drift masks.
func TestProgramPageMatchesByteLoop(t *testing.T) {
	small := smallSpec()
	wide := smallSpec()
	wide.PageSize = 256
	specs := []Spec{small, wide, DensitySpec(wide, MLC), DensitySpec(wide, TLC)}
	for _, programAll := range []bool{false, true} {
		t.Run(fmt.Sprintf("programAll=%v", programAll), func(t *testing.T) {
			for _, spec := range specs {
				t.Run(fmt.Sprintf("%v/page=%d", spec.Cell, spec.PageSize), func(t *testing.T) {
					programPageDifferential(t, spec, programAll)
				})
			}
		})
	}
}

func programPageDifferential(t *testing.T, spec Spec, programAll bool) {
	spec.EnduranceCycles = 1 << 20
	ps := spec.PageSize
	mix := FaultMix{PowerLoss: 1, TransientProgram: 1, MaxGap: 2 * ps, MaxRetries: 3}
	var devs [2]*Device
	var logs [2]*bankEventLog
	for i := range devs {
		d := MustNewDevice(spec)
		d.SetProgramAll(programAll)
		d.SetFaultSchedule(0x5A, mix)
		logs[i] = &bankEventLog{}
		d.Attach(logs[i])
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
	buf := make([]byte, ps)
	var narrow, edges, unreachable, drifted int
	for op := 0; op < 1500; op++ {
		p := rng.Intn(spec.NumPages)
		base := page.PageBase(p)
		for i := range buf {
			buf[i] = page.Peek(base + i)
		}
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
			// A reachable target: clear a random subset of the stored
			// bits of the whole page, of up to 200 bytes (1 in 2), or of
			// none (1 in 8, the page rewritten as stored).
			switch shape := rng.Intn(8); {
			case shape == 0:
			case shape < 4:
				for i := range buf {
					buf[i] &^= rng.Byte() & rng.Byte()
				}
			default:
				narrow++
				for k := rng.Intn(min(201, ps+1)); k > 0; k-- {
					i := rng.Intn(ps)
					switch rng.Intn(8) {
					case 0:
						i = 0
					case 1:
						i = ps - 1
					}
					buf[i] &^= rng.Byte() | 1
				}
				if buf[0] != page.Peek(base) || buf[ps-1] != page.Peek(base+ps-1) {
					edges++
				}
			}
			// One in six targets also raises a cell level somewhere: only
			// an erase reaches that byte.
			bad := -1
			if rng.Intn(6) == 0 {
				j := rng.Intn(ps)
				if field := lowField(spec.Cell, page.Peek(base+j)); field != 0 {
					bad = j
					buf[j] |= field
					unreachable++
				}
			}
			if page.drift[p] != nil {
				drifted++
			}
			errs[0] = page.ProgramPage(p, buf)
			if bad >= 0 {
				// Every other byte is reachable, so the byte loop's first
				// failure is this one; issuing it alone changes nothing.
				errs[1] = loop.ProgramByte(base+bad, buf[bad])
				if !errors.Is(errs[1], ErrNeedsErase) {
					t.Fatalf("op %d: raised byte %d programmed: %v", op, bad, errs[1])
				}
				break
			}
			for i, v := range buf {
				if errs[1] = loop.ProgramByte(base+i, v); errs[1] != nil {
					break
				}
			}
		}
		if errText(errs[0]) != errText(errs[1]) {
			t.Fatalf("op %d: page-path error %q, byte-loop error %q", op, errText(errs[0]), errText(errs[1]))
		}
		for i := 0; i < ps; i++ {
			if a, b := page.Peek(base+i), loop.Peek(base+i); a != b {
				t.Fatalf("op %d: addr %#x holds %08b on the page path, %08b on the byte loop", op, base+i, a, b)
			}
		}
	}
	if narrow == 0 || edges == 0 || unreachable == 0 || drifted == 0 {
		t.Fatalf("target shapes not covered: %d narrow, %d touching a page edge, %d unreachable, %d on drifted pages",
			narrow, edges, unreachable, drifted)
	}

	if page.FaultsFired() != loop.FaultsFired() || page.FaultsFired() == 0 {
		t.Fatalf("faults fired: page path %d, byte loop %d (want equal and > 0)", page.FaultsFired(), loop.FaultsFired())
	}
	pst, lst := page.Stats(), loop.Stats()
	if pst.ProgramFails == 0 {
		t.Fatalf("no transient program failure fired: %+v", pst)
	}
	pe, le := pst.Energy, lst.Energy
	if d := float64(pe - le); d > 1e-12*float64(le) || d < -1e-12*float64(le) {
		t.Errorf("energy: page path %v, byte loop %v (beyond 1e-12 relative)", pe, le)
	}
	pst.Energy, lst.Energy = 0, 0
	if pst != lst {
		t.Errorf("stats differ\npage path %+v\nbyte loop %+v", pst, lst)
	}
	mask := [2][]byte{make([]byte, ps), make([]byte, ps)}
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
	sameChanges(t, "page path vs byte loop", logs[0], logs[1])
}

// lowField returns the bit mask of the lowest cell field of v that is below
// its top level, or 0 when every field is at the top. Raising that field to
// the top is a change only an erase can make.
func lowField(m CellMode, v byte) byte {
	w := uint(m.Bits())
	for shift := uint(0); shift < 8; shift += w {
		field := (byte(1)<<w - 1) << shift
		if v&field != field {
			return field
		}
	}
	return 0
}

// TestCrossBankTraceMergeDeterministic: each bank's event stream depends
// only on that bank's operation sequence, so serial and concurrent runs of
// the same per-bank workloads record identical per-bank event streams and
// array changes, and merge to identical stats.
func TestCrossBankTraceMergeDeterministic(t *testing.T) {
	const rounds = 200
	run := func(concurrent bool) (Stats, *bankEventLog) {
		d, err := NewDevice(DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		log := &bankEventLog{}
		d.Attach(log)
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
		return d.Stats(), log
	}
	serialStats, serialLog := run(false)
	for trial := 0; trial < 3; trial++ {
		concStats, concLog := run(true)
		if serialStats != concStats {
			t.Errorf("trial %d: stats differ\nserial     %+v\nconcurrent %+v", trial, serialStats, concStats)
		}
		for bank, s := range serialLog.shards {
			c := concLog.shards[bank]
			if !reflect.DeepEqual(s.events, c.events) {
				t.Fatalf("trial %d: bank %d event streams differ: serial %d events, concurrent %d",
					trial, bank, len(s.events), len(c.events))
			}
		}
		sameChanges(t, fmt.Sprintf("trial %d, serial vs concurrent", trial), serialLog, concLog)
	}
}
