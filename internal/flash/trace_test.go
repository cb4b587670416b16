package flash

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestTraceReplayReproducesState: replaying a recorded trace on a fresh
// device must reproduce the original array bit for bit.
func TestTraceReplayReproducesState(t *testing.T) {
	spec := smallSpec()
	d := MustNewDevice(spec)
	var tr Trace
	d.Attach(&tr)

	rng := xrand.New(21)
	// A random mix of programs and erases.
	for i := 0; i < 500; i++ {
		if rng.Intn(10) == 0 {
			_ = d.ErasePage(rng.Intn(spec.NumPages))
			continue
		}
		addr := rng.Intn(spec.Size())
		cur := d.Peek(addr)
		_ = d.ProgramByte(addr, cur&rng.Byte()) // always a legal subset
	}

	replayed, err := tr.Replay(spec)
	if err != nil {
		t.Fatal(err)
	}
	for addr := 0; addr < spec.Size(); addr++ {
		if replayed.Peek(addr) != d.Peek(addr) {
			t.Fatalf("replayed state differs at %#x: %#x vs %#x",
				addr, replayed.Peek(addr), d.Peek(addr))
		}
	}
}

func TestTraceEraseHeat(t *testing.T) {
	spec := smallSpec()
	d := MustNewDevice(spec)
	var tr Trace
	d.Attach(&tr)
	_ = d.ErasePage(1)
	_ = d.ErasePage(1)
	_ = d.ErasePage(3)
	heat := tr.EraseHeat(spec.NumPages)
	if heat[1] != 2 || heat[3] != 1 || heat[0] != 0 {
		t.Errorf("heat = %v", heat)
	}
}

func TestTraceProgramBytes(t *testing.T) {
	d := MustNewDevice(smallSpec())
	var tr Trace
	d.Attach(&tr)
	_ = d.ProgramByte(0, 0x0F)
	_ = d.ProgramByte(0, 0x0F) // skipped: unchanged
	_ = d.ProgramByte(1, 0x00)
	if got := tr.ProgramBytes(); got != 2 {
		t.Errorf("ProgramBytes = %d, want 2 (skips are not traced)", got)
	}
}

func TestTraceDetach(t *testing.T) {
	d := MustNewDevice(smallSpec())
	var tr Trace
	detach := d.Attach(&tr)
	_ = d.ProgramByte(0, 0)
	detach()
	_ = d.ProgramByte(1, 0)
	if tr.Len() != 1 {
		t.Errorf("entries after detach = %d, want 1", tr.Len())
	}
}

// TestTraceRingBufferCaps: a trace with a small limit retains the most
// recent entries and counts the evicted ones.
func TestTraceRingBufferCaps(t *testing.T) {
	d := MustNewDevice(smallSpec())
	tr := NewTrace(4)
	d.Attach(tr)
	for i := 0; i < 10; i++ {
		_ = d.ProgramByte(i, byte(i)) // distinct values, all reachable
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	got := tr.Entries()
	for i, e := range got {
		wantAddr := 6 + i // oldest retained entry is op #6
		if e.Addr != wantAddr || e.Value != byte(wantAddr) {
			t.Errorf("entry %d = %+v, want addr %d", i, e, wantAddr)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("Reset incomplete")
	}
	if tr.Limit() != 4 {
		t.Errorf("limit after reset = %d, want 4", tr.Limit())
	}
}

func TestTraceZeroValueUsesDefaultLimit(t *testing.T) {
	var tr Trace
	if tr.Limit() != DefaultTraceLimit {
		t.Errorf("zero-value limit = %d, want %d", tr.Limit(), DefaultTraceLimit)
	}
	tr.Append(TraceEntry{Op: TraceProgram, Addr: 1})
	if tr.Len() != 1 || tr.Dropped() != 0 {
		t.Error("zero-value trace did not record")
	}
}

// TestTraceAsObserver: a Trace attached through the generic observer bus
// records programs and erases only.
func TestTraceAsObserver(t *testing.T) {
	d := MustNewDevice(smallSpec())
	tr := NewTrace(0)
	d.Attach(tr)
	_ = d.ProgramByte(0, 0x3C)
	_ = d.ProgramByte(0, 0x3C) // skipped: not traced
	_ = d.ErasePage(2)
	_, _ = d.ReadByteAt(0) // reads are not traced
	got := tr.Entries()
	if len(got) != 2 {
		t.Fatalf("entries = %d, want 2", len(got))
	}
	if got[0].Op != TraceProgram || got[0].Value != 0x3C {
		t.Errorf("entry 0 = %+v", got[0])
	}
	if got[1].Op != TraceErase || got[1].Addr != 2 {
		t.Errorf("entry 1 = %+v", got[1])
	}
}

func TestTraceOpString(t *testing.T) {
	if TraceProgram.String() != "program" || TraceErase.String() != "erase" {
		t.Error("TraceOp strings wrong")
	}
}
