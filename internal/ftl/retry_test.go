package ftl

import (
	"bytes"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// openRetryFTL mounts the FTL with two spares. The mount's checkpoint is
// written before any fault is armed.
func openRetryFTL(t *testing.T, dev *core.Device) *FTL {
	t.Helper()
	f, err := Open(dev, WithSpares(2))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func retrySpec() flash.Spec {
	spec := flash.DefaultSpec()
	spec.PageSize = 64
	spec.NumPages = 8
	spec.Banks = 1 // single bank: the shared fault scope fires deterministically
	return spec
}

// TestTransientExhaustRetiresOntoSpare covers the interaction between the
// core retry budget and the FTL's retry-once retirement: a transient-program
// incident that outlasts the core budget must retire the physical page
// exactly once, remap the logical page onto a spare and complete the write —
// the two retry layers compose without a double-retry storm.
func TestTransientExhaustRetiresOntoSpare(t *testing.T) {
	dev := core.MustNewDevice(retrySpec(), core.WithRetry(2, time.Microsecond))
	f := openRetryFTL(t, dev)

	data := bytes.Repeat([]byte{0x5A}, 64)
	// Budget the incident to the initial failure plus both core retries,
	// so the core gives up exactly as the incident drains.
	dev.Flash().ArmFault(flash.Fault{Kind: flash.FaultTransientProgram, Retries: 3})

	if err := f.Write(0, data); err != nil {
		t.Fatalf("write through transient exhaust: %v", err)
	}
	got := make([]byte, len(data))
	if err := f.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data lost across retirement")
	}

	if n := f.Stats().Retirements; n != 1 {
		t.Errorf("Retirements = %d, want exactly 1", n)
	}
	cs := dev.Stats()
	if cs.RetryAttempts != 2 || cs.RetrySaves != 0 || cs.RetryRetired != 1 {
		t.Errorf("retry stats = attempts %d saves %d retired %d, want 2/0/1",
			cs.RetryAttempts, cs.RetrySaves, cs.RetryRetired)
	}
	fs := dev.Flash().Stats()
	if fs.ProgramFails != 3 {
		t.Errorf("ProgramFails = %d, want 3 (initial + 2 retries, no storm)", fs.ProgramFails)
	}
	if fs.Waits != 2 {
		t.Errorf("Waits = %d, want 2 backoff charges", fs.Waits)
	}
}

// TestTransientRecoveredNoRetirement: an incident inside the core budget is
// absorbed by the retry policy alone — the FTL never sees an error and no
// page is retired.
func TestTransientRecoveredNoRetirement(t *testing.T) {
	dev := core.MustNewDevice(retrySpec(), core.WithRetry(2, time.Microsecond))
	f := openRetryFTL(t, dev)

	data := bytes.Repeat([]byte{0xC3}, 64)
	dev.Flash().ArmFault(flash.Fault{Kind: flash.FaultTransientProgram, Retries: 2})

	if err := f.Write(0, data); err != nil {
		t.Fatalf("write through recoverable transient: %v", err)
	}
	got := make([]byte, len(data))
	if err := f.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted by recovered transient")
	}

	if n := f.Stats().Retirements; n != 0 {
		t.Errorf("Retirements = %d, want 0", n)
	}
	cs := dev.Stats()
	if cs.RetryAttempts != 2 || cs.RetrySaves != 1 || cs.RetryRetired != 0 {
		t.Errorf("retry stats = attempts %d saves %d retired %d, want 2/1/0",
			cs.RetryAttempts, cs.RetrySaves, cs.RetryRetired)
	}
	if fs := dev.Flash().Stats(); fs.ProgramFails != 2 {
		t.Errorf("ProgramFails = %d, want 2", fs.ProgramFails)
	}
}

// TestTransientEraseRetriedThroughFTL: the FTL's ErasePage routes through
// the core retry policy, so a recoverable transient erase never surfaces.
func TestTransientEraseRetriedThroughFTL(t *testing.T) {
	dev := core.MustNewDevice(retrySpec(), core.WithRetry(2, time.Microsecond))
	f := openRetryFTL(t, dev)

	data := bytes.Repeat([]byte{0x0F}, 64)
	if err := f.Write(0, data); err != nil {
		t.Fatal(err)
	}
	dev.Flash().ArmFault(flash.Fault{Kind: flash.FaultTransientErase, Retries: 2})
	if err := f.ErasePage(0); err != nil {
		t.Fatalf("erase through recoverable transient: %v", err)
	}
	got := make([]byte, len(data))
	if err := f.Read(0, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0xFF {
			t.Fatalf("byte %d = %02x after erase, want FF", i, v)
		}
	}
	cs := dev.Stats()
	if cs.RetrySaves != 1 || cs.RetryRetired != 0 {
		t.Errorf("retry stats = saves %d retired %d, want 1/0", cs.RetrySaves, cs.RetryRetired)
	}
	if fs := dev.Flash().Stats(); fs.EraseFails != 2 {
		t.Errorf("EraseFails = %d, want 2", fs.EraseFails)
	}
}
