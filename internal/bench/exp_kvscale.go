package bench

import (
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/kvs"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// The kvscale experiment drives the store at production scale — 10⁴–10⁵
// keys under hot/cold skewed traffic — with proactive compaction and index
// checkpointing armed, and measures the three scale properties the store
// claims: sustained write throughput with GC running inline, bounded
// live-vs-physical space amplification, and O(tail) mount versus the full
// scan. Device-time numbers (simulated busy time, from the datasheet
// latency model) are deterministic and are the artifact; host times are
// machine-dependent, so they are printed in the table and never committed.

// KVScaleRow is one key-count configuration's outcome.
type KVScaleRow struct {
	Keys      int `json:"keys"`
	DataPages int `json:"data_pages"`
	SlotPages int `json:"slot_pages"` // per checkpoint slot

	Ops       int     `json:"ops"` // populate + churn + tail appends
	OpsPerSec float64 `json:"-"`

	Compactions uint64  `json:"compactions"`
	Checkpoints uint64  `json:"checkpoints"`
	LiveBytes   int     `json:"live_bytes"`
	UsedBytes   int     `json:"used_bytes"`
	SpaceAmp    float64 `json:"space_amp"`

	// Mount cost, full scan vs checkpointed, over the same final image.
	ScanMountDeviceMs float64 `json:"scan_mount_device_ms"`
	CkptMountDeviceMs float64 `json:"ckpt_mount_device_ms"`
	MountSpeedup      float64 `json:"mount_speedup"` // device-time ratio
	ScanMountHostMs   float64 `json:"-"`
	CkptMountHostMs   float64 `json:"-"`
	TailPagesReplayed uint64  `json:"tail_pages_replayed"`
}

// KVScaleReport is the machine-readable result written to
// BENCH_kvscale.json.
type KVScaleReport struct {
	Seed       uint64       `json:"seed"`
	PageSize   int          `json:"page_size"`
	ValueSize  int          `json:"value_size"`
	HotKeyFrac float64      `json:"hot_key_frac"`
	HotOpFrac  float64      `json:"hot_op_frac"`
	Rows       []KVScaleRow `json:"rows"`
}

const (
	kvScaleSeed      = 0x5CA1E
	kvScalePageSize  = 4096
	kvScaleValueSize = 128
	// Hot/cold skew: 10% of the keys take 90% of the churn writes.
	kvScaleHotKeys = 0.1
	kvScaleHotOps  = 0.9
)

// kvScaleKey formats key i; the fixed width keeps record and checkpoint
// entry sizes uniform, so the geometry below is exact.
func kvScaleKey(i int) string { return fmt.Sprintf("k%06d", i) }

// runKVScaleRow builds a device sized for the key count, drives the
// workload, and measures both mount paths over the final image.
func runKVScaleRow(keys int) (*KVScaleRow, error) {
	const keyLen = 7 // "k%06d"
	recSize := 5 + keyLen + kvScaleValueSize + 4
	// Size the log at 1.6× the live set: tight enough that the churn phase
	// wraps the log and compaction must run, loose enough that steady-state
	// amplification stays under the 2.0 gate.
	dataPages := keys*recSize*8/5/kvScalePageSize + 1
	// Checkpoint blob: header + page table + one entry per key + CRC, and
	// one spare page of slack so GC-induced entry churn never overflows.
	blob := 30 + dataPages*13 + keys*(10+keyLen) + 4
	slotPages := blob/kvScalePageSize + 2

	spec := flash.DefaultSpec()
	spec.PageSize = kvScalePageSize
	spec.NumPages = dataPages + 2*slotPages
	spec.Banks = 1
	dev := core.MustNewDevice(spec)

	mountOpts := func(scanOnly bool) []kvs.Option {
		return []kvs.Option{
			kvs.WithCompaction(kvs.CompactionConfig{TriggerFreePages: 4, MaxGarbageRatio: 0.45}),
			kvs.WithCheckpoint(kvs.CheckpointConfig{SlotPages: slotPages, Interval: keys / 2, ScanOnly: scanOnly}),
		}
	}
	s, err := kvs.Open(dev, mountOpts(false)...)
	if err != nil {
		return nil, err
	}

	rng := xrand.New(kvScaleSeed + uint64(keys))
	val := make([]byte, kvScaleValueSize)
	put := func(i int) error {
		val[0] = rng.Byte()
		val[1] = rng.Byte()
		val[2] = byte(i)
		val[3] = byte(i >> 8)
		return s.Put(kvScaleKey(i), val)
	}

	start := time.Now()
	for i := 0; i < keys; i++ {
		if err := put(i); err != nil {
			return nil, fmt.Errorf("populate key %d: %w", i, err)
		}
	}
	churn := 2 * keys / 3
	hot := max(1, int(float64(keys)*kvScaleHotKeys))
	hotThresh := int(kvScaleHotOps * 100)
	for i := 0; i < churn; i++ {
		k := hot + rng.Intn(max(1, keys-hot))
		if rng.Intn(100) < hotThresh {
			k = rng.Intn(hot)
		}
		if err := put(k); err != nil {
			return nil, fmt.Errorf("churn op %d: %w", i, err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	// A realistic mount has a tail: a burst of writes after the last
	// checkpoint, replayed (not scanned) by the checkpointed mount.
	tail := min(64, max(1, keys/10))
	for i := 0; i < tail; i++ {
		if err := put(rng.Intn(keys)); err != nil {
			return nil, fmt.Errorf("tail op %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	ops := keys + churn + tail

	st := s.Stats()
	live, used := s.Usage()
	row := &KVScaleRow{
		Keys:        keys,
		DataPages:   s.DataPages(),
		SlotPages:   slotPages,
		Ops:         ops,
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		Compactions: st.Compactions,
		Checkpoints: st.Checkpoints,
		LiveBytes:   live,
		UsedBytes:   used,
		SpaceAmp:    s.SpaceAmplification(),
	}

	// Mount both ways over the same image. Host time takes the best of two
	// runs; device busy time is deterministic, so one delta suffices.
	mount := func(scanOnly bool) (time.Duration, time.Duration, kvs.Stats, error) {
		var host time.Duration
		var busy time.Duration
		var mst kvs.Stats
		for run := 0; run < 2; run++ {
			busyBefore := dev.Flash().Stats().Busy
			t0 := time.Now()
			m, err := kvs.Open(dev, mountOpts(scanOnly)...)
			dt := time.Since(t0)
			if err != nil {
				return 0, 0, kvs.Stats{}, err
			}
			if run == 0 || dt < host {
				host = dt
			}
			busy = dev.Flash().Stats().Busy - busyBefore
			mst = m.Stats()
		}
		return host, busy, mst, nil
	}
	scanHost, scanBusy, _, err := mount(true)
	if err != nil {
		return nil, fmt.Errorf("scan mount: %w", err)
	}
	ckptHost, ckptBusy, mst, err := mount(false)
	if err != nil {
		return nil, fmt.Errorf("checkpointed mount: %w", err)
	}
	if mst.CheckpointMounts != 1 {
		return nil, fmt.Errorf("checkpointed mount fell back to scan (stats %+v)", mst)
	}
	row.ScanMountDeviceMs = float64(scanBusy.Nanoseconds()) / 1e6
	row.CkptMountDeviceMs = float64(ckptBusy.Nanoseconds()) / 1e6
	if ckptBusy > 0 {
		row.MountSpeedup = float64(scanBusy) / float64(ckptBusy)
	}
	row.ScanMountHostMs = float64(scanHost.Nanoseconds()) / 1e6
	row.CkptMountHostMs = float64(ckptHost.Nanoseconds()) / 1e6
	row.TailPagesReplayed = mst.TailPagesReplayed
	return row, nil
}

// RunKVScale executes the experiment at every key count.
func RunKVScale(cfg Config) (*KVScaleReport, error) {
	counts := []int{30_000, 150_000}
	if cfg.Quick {
		counts = []int{1_500, 5_000}
	}
	rep := &KVScaleReport{
		Seed:       kvScaleSeed,
		PageSize:   kvScalePageSize,
		ValueSize:  kvScaleValueSize,
		HotKeyFrac: kvScaleHotKeys,
		HotOpFrac:  kvScaleHotOps,
	}
	for _, k := range counts {
		row, err := runKVScaleRow(k)
		if err != nil {
			return nil, fmt.Errorf("kvscale %d keys: %w", k, err)
		}
		rep.Rows = append(rep.Rows, *row)
	}
	return rep, nil
}

// Check gates BENCH_kvscale.json. Every row's workload actually forced GC
// and committed checkpoints, kept space amplification within [1, 2.0], and
// mounted from the checkpoint faster than the scan; and at the largest key
// count the checkpointed mount is at least 10× faster (device time) than
// the scan — the tentpole claim.
func (r *KVScaleReport) Check() error {
	maxKeys, speedupAtMax := 0, 0.0
	for i, row := range r.Rows {
		if row.Compactions == 0 {
			return fmt.Errorf("rows[%d]: compactions is 0; workload never forced GC", i)
		}
		if row.Checkpoints < 1 {
			return fmt.Errorf("rows[%d]: no checkpoint committed", i)
		}
		if row.SpaceAmp < 1 || row.SpaceAmp > 2.0 {
			return fmt.Errorf("rows[%d]: space_amp %.2f outside [1, 2.0]", i, row.SpaceAmp)
		}
		if row.MountSpeedup <= 1 {
			return fmt.Errorf("rows[%d]: mount_speedup %.2f; checkpointed mount did not beat the scan", i, row.MountSpeedup)
		}
		if row.Keys > maxKeys {
			maxKeys, speedupAtMax = row.Keys, row.MountSpeedup
		}
	}
	if speedupAtMax < 10 {
		return fmt.Errorf("mount_speedup at %d keys is %.2f, want >= 10", maxKeys, speedupAtMax)
	}
	return nil
}

// ExpKVScale is the registry wrapper: the report as a rendered table.
func ExpKVScale(cfg Config) (*Table, error) {
	rep, err := RunKVScale(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "kvscale",
		Title:   "store at scale: GC under load, space amplification, O(tail) mount",
		Columns: []string{"keys", "data pages", "ops", "ops/sec", "compactions", "checkpoints", "space amp", "scan mount", "ckpt mount", "speedup", "tail pages"},
	}
	for _, r := range rep.Rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Keys),
			fmt.Sprintf("%d", r.DataPages),
			fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%d", r.Compactions),
			fmt.Sprintf("%d", r.Checkpoints),
			f2(r.SpaceAmp),
			fmt.Sprintf("%.1fms", r.ScanMountDeviceMs),
			fmt.Sprintf("%.1fms", r.CkptMountDeviceMs),
			fmt.Sprintf("%.1f×", r.MountSpeedup),
			fmt.Sprintf("%d", r.TailPagesReplayed))
	}
	t.Notes = append(t.Notes,
		"hot/cold skew: 10% of keys take 90% of churn writes; the log is sized at 1.6× the live set so churn forces GC",
		"mount columns are simulated device busy time (deterministic); speedup is scan/checkpointed — the O(device) vs O(tail) gap",
		"space amp is physical bytes consumed over live record bytes; the 0.45 garbage-ratio ceiling bounds it under 2.0")
	for _, r := range rep.Rows {
		t.Notes = append(t.Notes, fmt.Sprintf("%d keys: host mount time, best of 2: scan %.1fms, checkpointed %.1fms",
			r.Keys, r.ScanMountHostMs, r.CkptMountHostMs))
	}
	return t, nil
}
