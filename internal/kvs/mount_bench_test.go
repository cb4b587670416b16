package kvs

import (
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// benchMountDevice builds a populated, checkpointed store image once per
// benchmark: keys keys written three times each (so GC has run and the log
// carries garbage), then a final checkpoint. With churn it keeps writing
// past that checkpoint until GC has erased a page the checkpoint knew and
// the log has reused it, so a checkpoint mount must drop the entries the
// image holds on the pages that diverged.
func benchMountDevice(b *testing.B, keys int, churn bool) *core.Device {
	b.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 1024
	spec.NumPages = 256
	dev := core.MustNewDevice(spec)
	s, err := Open(dev,
		WithCheckpoint(CheckpointConfig{SlotPages: 8}),
		WithCompaction(CompactionConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	putRound := func(round int) {
		for i := 0; i < keys; i++ {
			val[0] = byte(round)
			if err := s.Put(fmt.Sprintf("key%04d", i), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	for round := 0; round < 3; round++ {
		putRound(round)
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if churn {
		img, _, err := s.loadCheckpoint()
		if err != nil || img == nil {
			b.Fatalf("no checkpoint image (%v)", err)
		}
		reused := func() bool {
			for p := 0; p < s.np; p++ {
				if img.pageSeq[p] != freeSeq && s.pageSeq[p] != freeSeq && s.pageSeq[p] != img.pageSeq[p] {
					return true
				}
			}
			return false
		}
		for round := 3; !reused(); round++ {
			if round == 100 {
				b.Fatal("churn reused no page the checkpoint knew")
			}
			putRound(round)
		}
	}
	return dev
}

func benchMount(b *testing.B, keys int, scanOnly, churn bool) {
	dev := benchMountDevice(b, keys, churn)
	cfg := CheckpointConfig{SlotPages: 8, ScanOnly: scanOnly}
	s, err := Open(dev, WithCheckpoint(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if !scanOnly && s.Stats().CheckpointMounts != 1 {
		b.Fatalf("mount stats = %+v, want checkpoint mount", s.Stats())
	}
	dropped := pagesDroppedAtMount(b, s)
	if churn && dropped == 0 {
		b.Fatal("the mount drops no page")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dev, WithCheckpoint(cfg)); err != nil {
			b.Fatal(err)
		}
	}
	if churn {
		b.ReportMetric(float64(dropped), "dropped-pages")
	}
}

func BenchmarkMountFullScan(b *testing.B)     { benchMount(b, 100, true, false) }
func BenchmarkMountCheckpointed(b *testing.B) { benchMount(b, 100, false, false) }

// BenchmarkMountCheckpointedAfterChurn mounts from a checkpoint that GC has
// since outrun: the image still indexes pages erased and reused after it.
func BenchmarkMountCheckpointedAfterChurn(b *testing.B) { benchMount(b, 250, false, true) }
