package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// scanSpec returns the IndexSpec the scan tests use: records carry their
// status bucket in val[0] and region in val[1].
func scanSpec(maxKeys int) IndexSpec {
	return IndexSpec{
		MaxKeys: maxKeys,
		Fields: []IndexField{
			{Name: "status", Buckets: 4, Extract: func(_ string, v []byte) int {
				if len(v) < 1 {
					return -1
				}
				return int(v[0]) % 4
			}},
			{Name: "region", Buckets: 3, Extract: func(_ string, v []byte) int {
				if len(v) < 2 {
					return -1
				}
				return int(v[1]) % 3
			}},
		},
	}
}

func newScanStore(t *testing.T) (*Store, *core.Device) {
	t.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 2 // keeps the bitmap stride (and the carve) small
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithScanIndex(scanSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	if !s.ScanIndexed() {
		t.Fatal("scan index did not come up on a core device")
	}
	return s, dev
}

// randScanPred draws a predicate over the status/region schema.
func randScanPred(rng *xrand.RNG) isc.Pred {
	leaf := func() isc.Pred {
		if rng.Intn(2) == 0 {
			return isc.Eq("status", rng.Intn(4))
		}
		return isc.Eq("region", rng.Intn(3))
	}
	switch rng.Intn(5) {
	case 0:
		return leaf()
	case 1:
		return isc.Not(leaf())
	case 2:
		return isc.And(leaf(), leaf())
	case 3:
		return isc.Or(leaf(), leaf(), leaf())
	default:
		return isc.And(isc.Or(leaf(), leaf()), isc.Not(leaf()))
	}
}

func sameKVs(t *testing.T, tag string, got, want []KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, host oracle has %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Val, want[i].Val) {
			t.Fatalf("%s: result %d = %q/%v, want %q/%v",
				tag, i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
		}
	}
}

// TestScanMatchesHostScan: under a churning workload — updates moving keys
// between buckets, deletes, GC passes, remounts that keep or rebuild the
// index — every indexed scan, and the fixed predicates after every
// remount, must return exactly what the read-everything host scan
// returns, while never reading the bitmap pages.
func TestScanMatchesHostScan(t *testing.T) {
	s, dev := newScanStore(t)
	rng := xrand.New(0x5CA9)
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("dev%02d", i)
	}
	val := func() []byte {
		v := make([]byte, 1+rng.Intn(21))
		for i := range v {
			v[i] = rng.Byte()
		}
		return v
	}
	// Stats reset on remount; fold them so the end-of-test assertions see
	// the whole run.
	var scans, fallbacks, falsePos, compactions, kept, rebuilt uint64
	fold := func() {
		st := s.Stats()
		scans += st.Scans
		fallbacks += st.ScanFallbacks
		falsePos += st.ScanFalsePositives
		compactions += st.Compactions
		kept += st.ScanIndexKept
		rebuilt += st.ScanRebuildsDiverged
	}
	for step := 0; step < 600; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0:
			if err := s.Delete(k); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
		case 9:
			fold()
			var err error
			s, err = Open(dev, WithScanIndex(scanSpec(64)))
			if err != nil {
				t.Fatalf("step %d: remount: %v", step, err)
			}
			if !s.ScanIndexed() {
				t.Fatalf("step %d: index gone after remount", step)
			}
			sameScans(t, s, fmt.Sprintf("step %d remount", step), scanPreds)
		default:
			if err := s.Put(k, val()); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
		}
		if step%10 != 0 {
			continue
		}
		p := randScanPred(rng)
		got, err := s.Scan(p)
		if err != nil {
			t.Fatalf("step %d: scan %s: %v", step, p, err)
		}
		want, err := s.ScanHost(p)
		if err != nil {
			t.Fatalf("step %d: host scan %s: %v", step, p, err)
		}
		sameKVs(t, fmt.Sprintf("step %d %s", step, p), got, want)
	}
	fold()
	if compactions == 0 {
		t.Error("workload never triggered GC; the stale-bit path went unexercised")
	}
	if scans == 0 || fallbacks != 0 {
		t.Errorf("scans %d indexed, %d fallbacks; want all indexed", scans, fallbacks)
	}
	if falsePos == 0 {
		t.Error("no stale-bit false positives despite updates and deletes")
	}
	if kept == 0 || rebuilt == 0 {
		t.Errorf("remounts kept the index %d times and rebuilt it after a delete %d; want both", kept, rebuilt)
	}
}

// TestScanUnplannablePredicatesUseHostPath: a predicate the index cannot
// plan (a field it lacks, a bucket outside a field's range) is served by
// the host path, so Scan agrees with ScanHost instead of planning an empty
// In or failing; a plannable one still runs in flash.
func TestScanUnplannablePredicatesUseHostPath(t *testing.T) {
	s, _ := newScanStore(t)
	// a has no region bucket (a 1-byte value extracts -1).
	for k, v := range map[string][]byte{"a": {1}, "b": {1, 1}, "c": {2, 0}, "d": {1, 2, 7}} {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		p       isc.Pred
		matches int
		host    bool
	}{
		{"negated unindexed field", isc.Not(isc.Eq("zone", 0)), 4, true},
		{"negative bucket", isc.Eq("region", -1), 1, true},
		{"bucket past the range", isc.Eq("status", 9), 0, true},
		{"unindexed field under And", isc.And(isc.Eq("status", 1), isc.Not(isc.Eq("zone", 3))), 3, true},
		{"plannable", isc.Eq("status", 1), 3, false},
	} {
		before := s.Stats()
		got, err := s.Scan(tc.p)
		if err != nil {
			t.Fatalf("%s: scan %s: %v", tc.name, tc.p, err)
		}
		want, err := s.ScanHost(tc.p)
		if err != nil {
			t.Fatalf("%s: host scan %s: %v", tc.name, tc.p, err)
		}
		sameKVs(t, tc.name, got, want)
		if len(got) != tc.matches {
			t.Errorf("%s: %d matches, want %d", tc.name, len(got), tc.matches)
		}
		after := s.Stats()
		fallbacks, scans := after.ScanFallbacks-before.ScanFallbacks, after.Scans-before.Scans
		if tc.host && (fallbacks != 1 || scans != 0) || !tc.host && (fallbacks != 0 || scans != 1) {
			t.Errorf("%s: %d fallbacks and %d indexed scans, want host path %v", tc.name, fallbacks, scans, tc.host)
		}
	}
}

// TestScanFallbackWithoutExtension: on a backend that cannot sense, scans
// must silently take the host path with identical results.
func TestScanFallbackWithoutExtension(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 2
	dev := core.MustNewDevice(spec)
	// plainBackend's method set is exactly Backend: the extension methods
	// of the wrapped coreBackend are hidden from type assertions.
	type plainBackend struct{ Backend }
	s, err := OpenOn(plainBackend{coreBackend{dev}}, WithScanIndex(scanSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	if s.ScanIndexed() {
		t.Fatal("index claims to be live on a backend without the extension")
	}
	for i := 0; i < 12; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i), byte(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	p := isc.Eq("status", 1)
	got, err := s.Scan(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ScanHost(p)
	if err != nil {
		t.Fatal(err)
	}
	sameKVs(t, "fallback", got, want)
	if got[0].Val[0]%4 != 1 {
		t.Fatalf("fallback scan returned a non-matching record: %v", got[0].Val)
	}
	if s.Stats().ScanFallbacks == 0 {
		t.Error("fallback scans not counted")
	}
}

// TestScanIndexOverflowDegrades: more keys than slots must disable the
// index — results stay exact via the host path, writes never fail.
func TestScanIndexOverflowDegrades(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 2
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithScanIndex(scanSpec(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i), 0, 0}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s.ScanIndexed() {
		t.Fatal("index still live past its slot capacity")
	}
	if s.Stats().ScanIndexDisabled == 0 {
		t.Error("degradation not counted")
	}
	got, err := s.Scan(isc.Eq("status", 2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ScanHost(isc.Eq("status", 2))
	if err != nil {
		t.Fatal(err)
	}
	sameKVs(t, "overflow", got, want)
}

// TestScanFindsUnbucketedRecords: a record whose field extracts outside
// the field's buckets has no bit in that field, and a negated predicate on
// the field, planned as an In over the other buckets, must still return
// it. a={1} has no region (scanSpec's region needs two bytes) and b={1,1}
// has region 1: both satisfy Not(region=0) and Not(region=0 or 2), so the
// indexed scan must find both, as the host scan does, before and after a
// remount and after a moves into a region.
func TestScanFindsUnbucketedRecords(t *testing.T) {
	s, dev := newScanStore(t)
	if err := s.Put("a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte{1, 1}); err != nil {
		t.Fatal(err)
	}
	preds := []isc.Pred{
		isc.Not(isc.Eq("region", 0)),
		isc.Not(isc.Or(isc.Eq("region", 0), isc.Eq("region", 2))),
		isc.Eq("status", 1),
	}
	for _, p := range preds[:2] {
		if got, err := s.Scan(p); err != nil || len(got) != 2 {
			t.Fatalf("scan %s: %d records (%v), want a and b", p, len(got), err)
		}
	}
	sameScans(t, s, "first mount", preds)
	s, err := Open(dev, WithScanIndex(scanSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	sameScans(t, s, "remount", preds)
	if err := s.Put("a", []byte{1, 0}); err != nil {
		t.Fatal(err)
	}
	sameScans(t, s, "a in region 0", preds)
	if st := s.Stats(); st.Scans == 0 || st.ScanFallbacks != 0 {
		t.Fatalf("stats %+v: want every scan served by the index", st)
	}
}

// scanPreds are the fixed predicates the reboot tests check Scan against
// ScanHost with: every node kind, both fields.
var scanPreds = []isc.Pred{
	isc.Eq("status", 1),
	isc.Not(isc.Eq("region", 2)),
	isc.And(isc.Eq("status", 0), isc.Eq("region", 1)),
	isc.Or(isc.Eq("status", 2), isc.Eq("status", 3)),
	isc.And(isc.In("status", 1, 3), isc.Not(isc.Eq("region", 0))),
}

// sameScans checks every predicate's indexed scan against the host scan.
func sameScans(t *testing.T, s *Store, tag string, preds []isc.Pred) {
	t.Helper()
	for _, p := range preds {
		got, err := s.Scan(p)
		if err != nil {
			t.Fatalf("%s: scan %s: %v", tag, p, err)
		}
		want, err := s.ScanHost(p)
		if err != nil {
			t.Fatalf("%s: host scan %s: %v", tag, p, err)
		}
		sameKVs(t, fmt.Sprintf("%s %s", tag, p), got, want)
	}
}

// indexPages lists the device pages the scan index owns: every page the
// data-page table does not name.
func indexPages(s *Store, dev *core.Device) []int {
	data := map[int]bool{}
	for _, d := range s.devPage {
		data[d] = true
	}
	var owned []int
	for p := 0; p < dev.Flash().Spec().NumPages; p++ {
		if !data[p] {
			owned = append(owned, p)
		}
	}
	return owned
}

// mountVerdicts is the slice of Stats a mount's index verdict shows in.
type mountVerdicts struct{ kept, noHeader, config, diverged uint64 }

func verdictsOf(st Stats) mountVerdicts {
	return mountVerdicts{st.ScanIndexKept, st.ScanRebuildsNoHeader, st.ScanRebuildsConfig, st.ScanRebuildsDiverged}
}

// TestScanIndexRebootWear: index maintenance (Puts, updates) never erases
// an index page, and neither does a reboot that keeps the bitmaps: the
// pages stay at wear 1, from the first mount's reset, across update-only
// reboots. A delete, an out-of-order insert or a changed index
// configuration before a reboot costs exactly one more erase per page.
// Every mount counts its verdict.
func TestScanIndexRebootWear(t *testing.T) {
	s, dev := newScanStore(t)
	owned := indexPages(s, dev)
	// 64 slots fit one 128 B page per bucket; 7 buckets, and the header
	// fits in the first bitmap page.
	if len(owned) != 7 {
		t.Fatalf("index owns %d pages, want 7 (one per bucket)", len(owned))
	}
	spec := scanSpec(64)
	wear := uint32(1)
	preds := scanPreds
	check := func(tag string, want mountVerdicts) {
		t.Helper()
		for _, p := range owned {
			if w := dev.Flash().Wear(p); w != wear {
				t.Fatalf("%s: index page %d wear %d, want %d", tag, p, w, wear)
			}
		}
		if got := verdictsOf(s.Stats()); got != want {
			t.Fatalf("%s: mount verdicts %+v, want %+v", tag, got, want)
		}
		if !s.ScanIndexed() {
			t.Fatalf("%s: scans fell back to the host path", tag)
		}
		sameScans(t, s, tag, preds)
	}
	reboot := func() {
		t.Helper()
		var err error
		if s, err = Open(dev, WithScanIndex(spec)); err != nil {
			t.Fatal(err)
		}
	}
	check("first mount", mountVerdicts{noHeader: 1})
	for r := 0; r < 3; r++ {
		for i := 0; i < 40; i++ {
			// Updates that move keys between buckets leave stale bits
			// instead of rewriting bitmaps; new keys sort last.
			if err := s.Put(fmt.Sprintf("dev%02d", i%10+r*10), []byte{byte(i), byte(i + r), 1}); err != nil {
				t.Fatal(err)
			}
		}
		reboot()
		check(fmt.Sprintf("update-only reboot %d", r), mountVerdicts{kept: 1})
	}

	if err := s.Delete("dev05"); err != nil {
		t.Fatal(err)
	}
	reboot()
	wear++
	check("reboot after a delete", mountVerdicts{diverged: 1})

	if err := s.Put("aaa", []byte{2, 2}); err != nil { // sorts before every slotted key
		t.Fatal(err)
	}
	reboot()
	wear++
	check("reboot after an out-of-order insert", mountVerdicts{diverged: 1})
	reboot()
	check("reboot after the rebuild", mountVerdicts{kept: 1})

	// The same layout under another schema: the header's digest differs.
	spec.Fields[1].Name = "area"
	// The old name is no longer indexed: Scan serves it by the host path.
	preds = []isc.Pred{isc.Eq("status", 1), isc.Not(isc.Eq("status", 0)), isc.Eq("area", 2), isc.Not(isc.Eq("region", 2))}
	reboot()
	wear++
	check("reboot with a renamed field", mountVerdicts{config: 1})
	reboot()
	check("reboot with the renamed field kept", mountVerdicts{kept: 1})
}

// TestScanIndexRebootRestoresCutAdd: a Put cut after its record landed but
// before the index took its bits is whole again after a keeping reboot.
func TestScanIndexRebootRestoresCutAdd(t *testing.T) {
	s, dev := newScanStore(t)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("dev%02d", i), []byte{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	// The append of Put, without its noteScanPut: an update moving dev03
	// into status 1, and a new key sorting last.
	for _, key := range []string{"dev03", "dev10"} {
		if err := s.append(key, encodeRecord(key, []byte{1, 1}, 0, s.inv)); err != nil {
			t.Fatal(err)
		}
	}
	p := isc.Eq("status", 1)
	if got, _ := s.Scan(p); len(got) != 0 {
		t.Fatalf("before the reboot the index already finds %v", got)
	}
	s, err := Open(dev, WithScanIndex(scanSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().ScanIndexKept != 1 {
		t.Fatalf("reboot did not keep the index: %+v", s.Stats())
	}
	got, err := s.Scan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "dev03" || got[1].Key != "dev10" {
		t.Fatalf("scan %s after the reboot = %v, want dev03 and dev10", p, got)
	}
}

// TestScanIndexKeptAcrossRetention: marginal retention cells in the
// bitmap pages (and the header in the first of them) do not stop a reboot
// from keeping the index, nor its scans from matching the host scan:
// senses resolve marginal cells to their stored values.
func TestScanIndexKeptAcrossRetention(t *testing.T) {
	s, dev := newScanStore(t)
	rng := xrand.New(0xA6ED)
	for i := 0; i < 60; i++ {
		if err := s.Put(fmt.Sprintf("dev%02d", i%20), []byte{rng.Byte(), rng.Byte(), 1}); err != nil {
			t.Fatal(err)
		}
	}
	dev.Flash().AgeRetention(400)
	aged := 0
	for _, p := range indexPages(s, dev) {
		aged += dev.Flash().RiseBits(p)
	}
	if aged == 0 {
		t.Fatal("aging left no marginal cell in the index pages")
	}
	s, err := Open(dev, WithScanIndex(scanSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictsOf(s.Stats()); got != (mountVerdicts{kept: 1}) {
		t.Fatalf("mount verdicts %+v, want one kept mount", got)
	}
	sameScans(t, s, fmt.Sprintf("%d marginal index cells", aged), scanPreds)
}

// FuzzScanIndexReboot runs a seeded Put/Delete/reboot script on a core
// device, cut once by a power loss after a fuzzed number of programs and
// erases, and before every remount programs fuzzed bytes of the index
// region to 0: bits no Add made, on bitmaps or on the header. After every
// remount, indexed scans must equal the host scan.
func FuzzScanIndexReboot(f *testing.F) {
	f.Add(uint64(1), uint16(40), []byte{0, 1, 2})
	f.Add(uint64(2), uint16(3), []byte{})
	f.Add(uint64(3), uint16(500), []byte{7, 9, 250, 1, 3, 0x80})
	f.Add(uint64(4), uint16(0xFFFF), []byte{0xFF, 0xFF, 0x12, 0x34})
	f.Fuzz(func(t *testing.T, seed uint64, cut uint16, foreign []byte) {
		spec := flash.DefaultSpec()
		spec.PageSize = 128
		spec.NumPages = 32
		spec.Banks = 2
		dev := core.MustNewDevice(spec)
		fl := dev.Flash()
		fl.InjectPowerLoss(int(cut))
		opts := []Option{WithScanIndex(scanSpec(64)), WithCompaction(CompactionConfig{})}
		mount := func(tag string) *Store {
			// The cut is one-shot: a mount it lands in succeeds on retry.
			fired := fl.FaultsFired()
			s, err := Open(dev, opts...)
			if err != nil && fl.FaultsFired() != fired {
				s, err = Open(dev, opts...)
			}
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			return s
		}
		s := mount("first mount")
		owned := indexPages(s, dev)
		rng := xrand.New(seed)
		for step := 0; step < 150; step++ {
			fired := fl.FaultsFired()
			key := fmt.Sprintf("k%02d", rng.Intn(12))
			var err error
			switch r := rng.Intn(10); {
			case r < 6:
				err = s.Put(key, []byte{rng.Byte(), rng.Byte(), byte(step)}[:1+rng.Intn(3)])
			case r < 8:
				err = s.Delete(key)
			}
			if err != nil && fl.FaultsFired() == fired && !errors.Is(err, ErrFull) {
				t.Fatalf("step %d: %v", step, err)
			}
			if fl.FaultsFired() == fired && rng.Intn(10) < 8 {
				continue // no reboot, and no power lost
			}
			for i := 0; i+1 < len(foreign) && i < 4; i += 2 {
				off := (int(foreign[i])<<8 | int(foreign[i+1])) % (len(owned) * spec.PageSize)
				_ = fl.ProgramByte(owned[off/spec.PageSize]*spec.PageSize+off%spec.PageSize, 0)
			}
			if len(foreign) > 4 {
				foreign = foreign[4:]
			}
			s = mount(fmt.Sprintf("step %d remount", step))
			if !s.ScanIndexed() && fl.FaultsFired() == 0 {
				// Foreign bits alone never degrade the index: the mount's
				// reload lets every Add program over them.
				t.Fatalf("step %d: index degraded with no power lost", step)
			}
			sameScans(t, s, fmt.Sprintf("step %d", step), scanPreds)
		}
	})
}

// scanPerPageWear is perPageWear with the in-flash extension the scan
// index needs: victim selection reads wear one PageWear call per page.
type scanPerPageWear struct {
	*perPageWear
	InFlashBackend
}

// ErasePage goes through perPageWear, like the store's other Backend calls.
func (w scanPerPageWear) ErasePage(p int) error { return w.perPageWear.ErasePage(p) }

// TestScanIndexLogSpillsIntoPadding: the log takes back the index's
// padding pages (the pages that round each bitmap's stride up to the bank
// count). Drive a store until the log lives on and garbage-collects those
// pages, then remount by scan and from a checkpoint: every Get matches
// the model, indexed scans match host scans, and the page-table totals
// hold.
func TestScanIndexLogSpillsIntoPadding(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(t *testing.T) {
			spec := flash.DefaultSpec()
			spec.PageSize = 256
			spec.NumPages = 64
			spec.Banks = 4 // 1-page bitmaps on a 4-page stride: 3 of 4 region pages are padding
			dev := core.MustNewDevice(spec)
			// Without checkpoints victim selection reads wear page by page,
			// with them in bulk: both reads go through the table.
			pw := &perPageWear{b: coreBackend{dev}}
			var b Backend = scanPerPageWear{pw, coreBackend{dev}}
			if ckpt {
				b = coreBackend{dev}
			}
			opts := func(scanOnly bool) []Option {
				o := []Option{
					WithScanIndex(scanSpec(64)),
					// A high garbage ceiling lets the log run through every
					// free page, the padding ones last, before collecting.
					WithCompaction(CompactionConfig{MaxGarbageRatio: 0.9}),
				}
				if ckpt {
					o = append(o, WithCheckpoint(CheckpointConfig{SlotPages: 6, ScanOnly: scanOnly}))
				}
				return o
			}
			s, err := OpenOn(b, opts(false)...)
			if err != nil {
				t.Fatal(err)
			}
			padding := map[int]bool{} // data pages the table maps onto padding
			for p, d := range s.devPage {
				if d != p {
					padding[p] = true
				}
			}
			if len(padding) != 21 {
				t.Fatalf("%d padding pages in the data-page table, want 21", len(padding))
			}

			rng := xrand.New(0x5A11)
			model := map[string][]byte{}
			put := func(step int) {
				k := fmt.Sprintf("dev%02d", rng.Intn(40))
				if rng.Intn(10) == 0 {
					if err := s.Delete(k); err != nil {
						t.Fatalf("step %d: delete: %v", step, err)
					}
					delete(model, k)
					return
				}
				v := make([]byte, 2+rng.Intn(60))
				for i := range v {
					v[i] = rng.Byte()
				}
				if err := s.Put(k, v); err != nil {
					t.Fatalf("step %d: put: %v", step, err)
				}
				model[k] = v
			}
			spilled, reclaimed := false, false
			for step := 0; step < 1500; step++ {
				put(step)
				k := fmt.Sprintf("dev%02d", rng.Intn(40))
				if got, err := s.Get(k); err == nil != (model[k] != nil) || !bytes.Equal(got, model[k]) {
					t.Fatalf("step %d: Get(%q) = %v, %v; want %v", step, k, got, err, model[k])
				}
				for p := range padding {
					spilled = spilled || s.pageSeq[p] != freeSeq
					reclaimed = reclaimed || dev.Flash().Wear(s.devPage[p]) > 0
				}
			}
			if !spilled || !reclaimed {
				t.Fatalf("log spilled into padding pages: %v; collected one: %v", spilled, reclaimed)
			}
			if !ckpt && pw.pageWears == 0 {
				t.Fatal("victim selection never read per-page wear")
			}
			if ckpt {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 30; step++ {
					put(step) // a log tail for the checkpoint mount to replay
				}
			}

			check := func(s *Store, when string) {
				t.Helper()
				for i := 0; i < 40; i++ {
					k := fmt.Sprintf("dev%02d", i)
					got, err := s.Get(k)
					want, live := model[k]
					switch {
					case !live && !errors.Is(err, ErrNotFound):
						t.Fatalf("%s: Get(%q) = %v, %v; want not found", when, k, got, err)
					case live && (err != nil || !bytes.Equal(got, want)):
						t.Fatalf("%s: Get(%q) = %v, %v; want %v", when, k, got, err, want)
					}
				}
				sameScans(t, s, when, scanPreds)
				if !s.ScanIndexed() {
					t.Fatalf("%s: scans fell back to the host path", when)
				}
				checkTotals(t, s, when)
			}
			check(s, "live")

			s, err = OpenOn(b, opts(true)...)
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.ScanMounts != 1 {
				t.Fatalf("scan mount stats = %+v", st)
			}
			check(s, "scan mount")
			if !ckpt {
				return
			}
			s, err = OpenOn(b, opts(false)...)
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.CheckpointMounts != 1 || st.TailPagesReplayed == 0 {
				t.Fatalf("checkpoint mount stats = %+v", st)
			}
			check(s, "checkpoint mount")
		})
	}
}

// BenchmarkScanIndexed measures one pushdown scan over a populated store.
func BenchmarkScanIndexed(b *testing.B) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 64
	spec.Banks = 2
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithScanIndex(scanSpec(64)))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(9)
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("dev%02d", i), []byte{rng.Byte(), rng.Byte(), 0, 0}); err != nil {
			b.Fatal(err)
		}
	}
	p := isc.And(isc.Eq("status", 1), isc.Not(isc.Eq("region", 2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Scan(p); err != nil {
			b.Fatal(err)
		}
	}
}
