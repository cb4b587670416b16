package kvs

import (
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// TestPowerLossDuringGC: a crash anywhere inside garbage collection (during
// the live-record copies or the victim erase) must never lose committed
// data — after remount every key written before GC began is readable with
// its latest value. The copies land on pages of a higher sequence number
// than the victim's, so duplicates resolve in their favour; a torn victim
// erase leaves CRC-invalid debris that mount skips.
func TestPowerLossDuringGC(t *testing.T) {
	// Sweep the fault position so the crash lands at different points of
	// the GC (copy 1, copy 2, ..., the erase itself).
	for fault := 0; fault < 40; fault += 4 {
		fault := fault
		t.Run(fmt.Sprintf("fault-%d", fault), func(t *testing.T) {
			spec := flash.DefaultSpec()
			spec.PageSize = 128
			spec.NumPages = 6
			spec.Banks = 2 // six pages must split evenly across banks
			dev := core.MustNewDevice(spec)
			s, err := Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]byte{}
			val := make([]byte, 24)
			// Fill until just before GC would trigger.
			var i int
			for i = 0; ; i++ {
				k := fmt.Sprintf("k%d", i%6)
				val[0] = byte(i)
				if s.Stats().Compactions > 0 {
					break
				}
				if err := s.Put(k, val); err != nil {
					t.Fatal(err)
				}
				want[k] = byte(i)
			}
			// Arm the fault and keep writing until it fires.
			dev.Flash().InjectPowerLoss(fault)
			for j := i; j < i+100; j++ {
				k := fmt.Sprintf("k%d", j%6)
				val[0] = byte(j)
				err := s.Put(k, val)
				if err == nil {
					want[k] = byte(j)
					continue
				}
				if !errors.Is(err, flash.ErrPowerLoss) {
					t.Fatalf("unexpected error: %v", err)
				}
				break // crashed
			}
			// Reboot and verify nothing committed was lost.
			s2, err := Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			for k, first := range want {
				got, err := s2.Get(k)
				if err != nil {
					t.Fatalf("key %q lost after GC crash: %v", k, err)
				}
				// The value must be the last acknowledged write (a
				// newer, unacknowledged one may also have landed if
				// the crash hit after the record was durable; both
				// are acceptable — but never an older value).
				if got[0] != first && int(got[0]) < int(first) {
					t.Fatalf("key %q rolled back: got %d, want >= %d", k, got[0], first)
				}
			}
		})
	}
}
