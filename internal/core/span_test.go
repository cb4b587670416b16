package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Tests for the span-first exact commit: a page outside the approximatable
// region senses and programs only the stored span, and loads the whole page
// only to erase. The oracle is the exact commit it replaced, which loaded
// the whole page and programmed (or erased and programmed) all of it.

// wholePageExactCommit is the whole-page exact commit of one page session:
// load the page, overlay the stores, then program the page image, or erase
// and program it when some stored bit needs a 0→1 transition. The health
// gate refuses degraded pages and erases on pages at their rating.
func wholePageExactCommit(d *Device, page, off int, data []byte) error {
	bank := d.fl.BankOf(page)
	d.commitMu[bank].Lock()
	defer d.commitMu[bank].Unlock()
	bufs := d.bufPool.Get().(*commitBuffers)
	defer d.bufPool.Put(bufs)
	s := &session{d: d, page: page, off: off, data: data, bufs: bufs}
	if err := s.load(); err != nil {
		return err
	}
	s.apply()
	if d.healthGate && d.fl.Degraded(page) {
		d.shards[bank].ExactRefused++
		return fmt.Errorf("page %d: %w", page, ErrExactDegraded)
	}
	if d.healthGate && s.needsErase() && d.fl.AtRating(page) {
		d.shards[bank].ExactRefused++
		return fmt.Errorf("page %d: %w", page, ErrExactDegraded)
	}
	return d.retryOp(bank, page, func() error {
		if !s.needsErase() {
			return d.fl.ProgramPage(page, bufs.exact)
		}
		return d.fl.EraseProgramPage(page, bufs.exact)
	})
}

// spanStore draws one exact store into a page whose stored bytes are cur:
// a random span with random bytes (usually needing an erase), bytes
// reachable by program pulses under cell, or the bytes already stored.
// One store in eight covers the whole page.
func spanStore(rng *xrand.RNG, cell flash.CellMode, cur []byte) (off int, data []byte) {
	ps := len(cur)
	off, n := 0, ps
	if rng.Intn(8) != 0 {
		off = rng.Intn(ps)
		n = 1 + rng.Intn(ps-off)
		if n == ps {
			n--
		}
	}
	data = make([]byte, n)
	kind := rng.Intn(3)
	for i := range data {
		prev := cur[off+i]
		switch kind {
		case 0:
			data[i] = rng.Byte()
		case 1:
			v := rng.Byte()
			for !cell.Reachable(prev, v) {
				v = rng.Byte()
			}
			data[i] = v
		default:
			data[i] = prev
		}
	}
	return off, data
}

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestExactSpanCommitMatchesWholePage drives random exact stores on SLC,
// MLC and TLC devices, with and without WithHealthGate, on a low endurance
// rating so pages reach their rating and wear out, with pages retired along
// the way. Each store runs on a span-first device and on a twin running the
// whole-page oracle. Array bytes, program and erase counts, retirements,
// controller stats and returned errors must match after every store, and
// the span device must charge reads for the span alone, plus one page when
// a partial store needs an erase and the health gate does not refuse it.
func TestExactSpanCommitMatchesWholePage(t *testing.T) {
	for _, cell := range []flash.CellMode{flash.SLC, flash.MLC, flash.TLC} {
		for _, gate := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/gate=%v", cell, gate), func(t *testing.T) {
				spec := gateSpec()
				spec.Cell = cell
				spec.EnduranceCycles = 6
				var opts []Option
				if gate {
					opts = append(opts, WithHealthGate())
				}
				span, oracle := MustNewDevice(spec, opts...), MustNewDevice(spec, opts...)
				rng := xrand.New(uint64(0x5Ba4 + 2*int(cell) + len(opts)))
				ps := spec.PageSize
				cur, other := make([]byte, ps), make([]byte, ps)
				var erased, fenced, retiredErrs int
				for step := 0; step < 600; step++ {
					page := rng.Intn(spec.NumPages)
					if step%150 == 149 {
						for _, d := range []*Device{span, oracle} {
							if err := d.fl.Retire(page); err != nil {
								t.Fatal(err)
							}
						}
					}
					span.fl.PeekPage(page, cur)
					off, data := spanStore(rng, cell, cur)
					addr := span.fl.PageBase(page) + off
					needsErase := false
					for i, v := range data {
						needsErase = needsErase || !cell.Reachable(cur[off+i], v)
					}

					degraded := span.fl.Degraded(page)
					before := span.fl.Stats()
					gotErr := span.Write(addr, data)
					wantErr := wholePageExactCommit(oracle, page, off, data)
					if errText(gotErr) != errText(wantErr) {
						t.Fatalf("step %d page %d off %d len %d: err %v, oracle %v",
							step, page, off, len(data), gotErr, wantErr)
					}
					for p := 0; p < spec.NumPages; p++ {
						span.fl.PeekPage(p, cur)
						oracle.fl.PeekPage(p, other)
						if !bytes.Equal(cur, other) {
							t.Fatalf("step %d: page %d differs from the oracle:\n got %x\nwant %x", step, p, cur, other)
						}
					}
					g, w := span.fl.Stats(), oracle.fl.Stats()
					if g.Programs != w.Programs || g.Erases != w.Erases || g.Retirements != w.Retirements ||
						g.ProgramFails != w.ProgramFails || g.EraseFails != w.EraseFails {
						t.Fatalf("step %d: flash counts %+v, oracle %+v", step, g, w)
					}
					if gs, ws := span.Stats(), oracle.Stats(); gs != ws {
						t.Fatalf("step %d: controller stats %+v, oracle %+v", step, gs, ws)
					}
					wantReads := uint64(len(data))
					if needsErase && len(data) < ps && !errors.Is(gotErr, ErrExactDegraded) {
						wantReads += uint64(ps)
					}
					if reads := g.Reads - before.Reads; reads != wantReads {
						t.Fatalf("step %d: len %d charged %d reads, want %d (needs erase %v, err %v)",
							step, len(data), reads, wantReads, needsErase, gotErr)
					}
					if g.Erases > before.Erases {
						erased++
					}
					if errors.Is(gotErr, ErrExactDegraded) && !degraded {
						fenced++ // refused an erase on a page at its rating
					}
					if errors.Is(gotErr, flash.ErrPageRetired) {
						retiredErrs++
					}
				}
				// The sweep must reach every branch it claims to cover.
				if erased == 0 {
					t.Error("no store erased")
				}
				if gate && fenced == 0 {
					t.Error("the health gate fenced no page at its rating")
				}
				if !gate && retiredErrs == 0 {
					t.Error("no store hit a retired page")
				}
			})
		}
	}
}

// TestSpanProgramFaultParity sweeps a power loss and a transient program
// fault over every pulse of a sub-page exact store, once for a store that
// programs in place and once for one that erases. Only changed bytes pulse,
// so the victim pulse is the one the whole-page commit would tear: each
// sweep point must leave the same array bytes and return the same error.
func TestSpanProgramFaultParity(t *testing.T) {
	spec := testSpec()
	ps := spec.PageSize
	rng := xrand.New(0xFA17)
	image := make([]byte, ps)
	for i := range image {
		image[i] = rng.Byte()
	}
	const page, off = 3, 5
	program := make([]byte, 19) // reachable: clears bits only
	erase := make([]byte, 19)   // sets bits: needs an erase
	for i := range program {
		program[i] = image[off+i] &^ rng.Byte()
		erase[i] = image[off+i] | 0x81
	}
	program[4] = image[off+4] // an unchanged byte skips its pulse
	for _, tc := range []struct {
		name     string
		data     []byte
		programs int // program pulses the store issues
		erases   int
	}{
		{"program", program, changedBytes(image[off:], program), 0},
		{"erase", erase, changedBytes(bytes.Repeat([]byte{0xFF}, ps), withStore(image, off, erase)), 1},
	} {
		for _, kind := range []flash.FaultKind{flash.FaultPowerLoss, flash.FaultTransientProgram} {
			victims := tc.programs // ops that advance the fault's countdown
			if kind == flash.FaultPowerLoss {
				victims += tc.erases
			}
			for k := 0; k <= victims; k++ {
				fault := flash.Fault{Kind: kind, After: k}
				var arrays [2][]byte
				var errs [2]error
				for i, commit := range []func(d *Device) error{
					func(d *Device) error { return d.Write(d.fl.PageBase(page)+off, tc.data) },
					func(d *Device) error { return wholePageExactCommit(d, page, off, tc.data) },
				} {
					d := MustNewDevice(spec)
					if err := d.fl.EraseProgramPage(page, image); err != nil {
						t.Fatal(err)
					}
					d.fl.ArmFault(fault)
					errs[i] = commit(d)
					arrays[i] = make([]byte, ps)
					d.fl.PeekPage(page, arrays[i])
				}
				if errText(errs[0]) != errText(errs[1]) {
					t.Fatalf("%s %v after %d: err %v, oracle %v", tc.name, kind, k, errs[0], errs[1])
				}
				if !bytes.Equal(arrays[0], arrays[1]) {
					t.Fatalf("%s %v after %d: torn page %x, oracle %x", tc.name, kind, k, arrays[0], arrays[1])
				}
				if fired := errs[0] != nil; fired != (k < victims) {
					t.Fatalf("%s %v after %d of %d ops: err %v", tc.name, kind, k, victims, errs[0])
				}
			}
		}
	}
}

// changedBytes counts the bytes of data that differ from cur.
func changedBytes(cur, data []byte) int {
	n := 0
	for i, v := range data {
		if cur[i] != v {
			n++
		}
	}
	return n
}

// withStore returns a copy of image with data stored at off.
func withStore(image []byte, off int, data []byte) []byte {
	out := bytes.Clone(image)
	copy(out[off:], data)
	return out
}

// TestExactSpanCommitAllocs pins the zero-allocation property of the span
// commit: 144-byte exact records appended into 4 KiB pages, as a
// log-structured store writes them, with no erase.
func TestExactSpanCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	spec := flash.DefaultSpec()
	spec.PageSize = 4096
	spec.NumPages = 16
	d := MustNewDevice(spec)
	rec := make([]byte, 144)
	for i := range rec {
		rec[i] = byte(i * 37)
	}
	perPage := spec.PageSize / len(rec)
	i := 0
	next := func() {
		addr := d.fl.PageBase(i/perPage%spec.NumPages) + i%perPage*len(rec)
		i++
		if err := d.Write(addr, rec); err != nil {
			t.Fatal(err)
		}
	}
	next() // warm the pool
	allocs := testing.AllocsPerRun(200, next)
	if allocs > 0.5 {
		t.Errorf("exact span commit allocates %.2f objects per op, want ~0", allocs)
	}
	if e := d.fl.Stats().Erases; e != 0 {
		t.Errorf("appends erased %d pages, want 0", e)
	}
}
