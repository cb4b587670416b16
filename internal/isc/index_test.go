package isc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// QueryHost evaluates Query's predicate with plain host reads of the
// bitmap pages on dev — the read-everything baseline and the oracle the
// in-flash plans are tested against.
func (ix *Index) QueryHost(dev *flash.Device, p Pred, dst []byte) error {
	if len(dst) != ix.r.bytes {
		return fmt.Errorf("%w: got %d, want %d", ErrBitmapSize, len(dst), ix.r.bytes)
	}
	if err := ix.CheckPred(p); err != nil {
		return err
	}
	buf := make([]byte, ix.cfg.PageSize)
	for c := 0; c < ix.r.chunkPages; c++ {
		n := ix.r.chunkLen(c)
		if err := ix.evalHost(dev, p, c, buf[:n]); err != nil {
			return err
		}
		copy(dst[c*ix.cfg.PageSize:], buf[:n])
	}
	maskTail(dst, ix.cfg.Slots)
	return nil
}

// evalHost mirrors evalFlash with host reads; out is chunkLen(c) bytes.
func (ix *Index) evalHost(dev *flash.Device, p Pred, c int, out []byte) error {
	switch n := p.(type) {
	case predEq:
		g, _ := ix.globalBucket(n.field, n.bucket)
		if err := dev.Read(ix.r.page(g, c)*ix.cfg.PageSize, out); err != nil {
			return err
		}
		for i := range out {
			out[i] = ^out[i]
		}
		return nil
	case predNot:
		if err := ix.evalHost(dev, n.kid, c, out); err != nil {
			return err
		}
		for i := range out {
			out[i] = ^out[i]
		}
		return nil
	case predAnd, predOr:
		var kids []Pred
		identity := byte(0xFF)
		and := true
		if a, ok := n.(predAnd); ok {
			kids = a.kids
		} else {
			kids = n.(predOr).kids
			identity = 0
			and = false
		}
		for i := range out {
			out[i] = identity
		}
		part := make([]byte, len(out))
		for _, k := range kids {
			if err := ix.evalHost(dev, k, c, part); err != nil {
				return err
			}
			for i := range out {
				if and {
					out[i] &= part[i]
				} else {
					out[i] |= part[i]
				}
			}
		}
		return nil
	}
	return fmt.Errorf("isc: unknown predicate node %T", p)
}

// testDevice returns a small device: 16-byte pages, 2 banks, and an index
// geometry that forces multi-chunk bitmaps (300 slots → 38 bytes → 3
// chunks) and multi-batch senses (MaxSensePages 3 in the index config).
func testDevice(t testing.TB) *flash.Device {
	t.Helper()
	sp := flash.DefaultSpec()
	sp.PageSize = 16
	sp.NumPages = 64
	sp.Banks = 2
	return flash.MustNewDevice(sp)
}

func testIndexConfig() IndexConfig {
	return IndexConfig{
		PageSize:      16,
		Banks:         2,
		MaxSensePages: 3, // force leaf batches to split and fold host-side
		FirstPage:     0,
		Slots:         300,
		Fields: []Field{
			{Name: "status", Buckets: 4},
			{Name: "region", Buckets: 3},
		},
	}
}

// membership is the RAM truth the index is compared against.
type membership map[string]map[int]map[int]bool // field → bucket → slot

func (m membership) add(field string, bucket, slot int) {
	if m[field] == nil {
		m[field] = map[int]map[int]bool{}
	}
	if m[field][bucket] == nil {
		m[field][bucket] = map[int]bool{}
	}
	m[field][bucket][slot] = true
}

func (m membership) has(field string, bucket, slot int) bool {
	return m[field][bucket][slot]
}

// evalModel evaluates the predicate for one slot against the RAM model.
func evalModel(p Pred, m membership, slot int) bool {
	switch n := p.(type) {
	case predEq:
		return m.has(n.field, n.bucket, slot)
	case predNot:
		return !evalModel(n.kid, m, slot)
	case predAnd:
		for _, k := range n.kids {
			if !evalModel(k, m, slot) {
				return false
			}
		}
		return true
	case predOr:
		for _, k := range n.kids {
			if evalModel(k, m, slot) {
				return true
			}
		}
		return false
	}
	return false
}

// randomPred draws a predicate tree of bounded depth over the test schema.
func randomPred(rng *xrand.RNG, depth int) Pred {
	fields := []Field{{Name: "status", Buckets: 4}, {Name: "region", Buckets: 3}}
	leaf := func() Pred {
		f := fields[rng.Intn(len(fields))]
		return Eq(f.Name, rng.Intn(f.Buckets))
	}
	if depth == 0 {
		return leaf()
	}
	switch rng.Intn(6) {
	case 0, 1:
		return leaf()
	case 2:
		return Not(randomPred(rng, depth-1))
	case 3, 4:
		kids := make([]Pred, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomPred(rng, depth-1)
		}
		return And(kids...)
	default:
		kids := make([]Pred, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomPred(rng, depth-1)
		}
		return Or(kids...)
	}
}

func bit(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

// TestIndexQueryMatchesOracles: on random memberships and random predicate
// trees, the in-flash plan, the host-read oracle and the RAM model must
// agree on every slot — and the in-flash path must not issue a single host
// read of a bitmap page.
func TestIndexQueryMatchesOracles(t *testing.T) {
	dev := testDevice(t)
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0x1DE7)
	model := membership{}
	for _, f := range testIndexConfig().Fields {
		for slot := 0; slot < ix.Slots(); slot++ {
			// ~90% of slots get a bucket; ~15% pick up a second (stale)
			// membership, like an updated record would.
			if rng.Intn(10) == 0 {
				continue
			}
			n := 1
			if rng.Intn(7) == 0 {
				n = 2
			}
			for i := 0; i < n; i++ {
				b := rng.Intn(f.Buckets)
				if err := ix.Add(slot, f.Name, b); err != nil {
					t.Fatal(err)
				}
				model.add(f.Name, b, slot)
			}
		}
	}
	inFlash := make([]byte, ix.BitmapBytes())
	host := make([]byte, ix.BitmapBytes())
	for trial := 0; trial < 300; trial++ {
		p := randomPred(rng, 3)
		before := dev.Stats()
		if err := ix.Query(p, inFlash); err != nil {
			t.Fatalf("trial %d %s: %v", trial, p, err)
		}
		delta := dev.Stats().Sub(before)
		if delta.Reads != 0 {
			t.Fatalf("trial %d %s: in-flash query issued %d host read bytes", trial, p, delta.Reads)
		}
		if delta.Senses == 0 {
			t.Fatalf("trial %d %s: in-flash query issued no senses", trial, p)
		}
		if err := ix.QueryHost(dev, p, host); err != nil {
			t.Fatalf("trial %d %s: host oracle: %v", trial, p, err)
		}
		for slot := 0; slot < ix.Slots(); slot++ {
			want := evalModel(p, model, slot)
			if got := bit(inFlash, slot); got != want {
				t.Fatalf("trial %d %s: slot %d in-flash=%v model=%v", trial, p, slot, got, want)
			}
			if got := bit(host, slot); got != want {
				t.Fatalf("trial %d %s: slot %d host=%v model=%v", trial, p, slot, got, want)
			}
		}
		// Padding bits beyond Slots must stay clear.
		for i := ix.Slots(); i < 8*len(inFlash); i++ {
			if bit(inFlash, i) || bit(host, i) {
				t.Fatalf("trial %d: padding bit %d set", trial, i)
			}
		}
	}
}

// TestIndexMaintenanceIsEraseFree: adds — including duplicate adds and the
// stale bits of updated records — must never erase a page; only Reset may.
func TestIndexMaintenanceIsEraseFree(t *testing.T) {
	dev := testDevice(t)
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	base := dev.Stats().Erases
	rng := xrand.New(7)
	for i := 0; i < 2000; i++ {
		if err := ix.Add(rng.Intn(ix.Slots()), "status", rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Stats().Erases; got != base {
		t.Fatalf("index maintenance erased %d pages", got-base)
	}
	// Re-adding an existing member must not even program.
	if err := ix.Add(5, "region", 1); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	if err := ix.Add(5, "region", 1); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.Programs != 0 && d.ProgramsSkipped == 0 {
		t.Fatalf("duplicate add programmed: %+v", d)
	}
}

// TestResetErasesBitmapPagesOnly: Reset erases exactly the pages some
// bitmap occupies, once each, and SparePages lists the rest of the region
// — the stride padding no bitmap ever programs or senses.
func TestResetErasesBitmapPagesOnly(t *testing.T) {
	dev := testDevice(t)
	cfg := testIndexConfig()
	cfg.FirstPage = 4
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	owned := map[int]bool{}
	for g := 0; g < cfg.totalBuckets(); g++ {
		for c := 0; c < ix.r.chunkPages; c++ {
			owned[ix.r.page(g, c)] = true
		}
	}
	spare := map[int]bool{}
	for _, p := range ix.SparePages() {
		spare[p] = true
	}
	// 300 slots on 16 B pages: 3 chunk pages, stride 4 on 2 banks.
	if len(owned) != 21 || len(spare) != 7 || len(owned)+len(spare) != cfg.Pages() {
		t.Fatalf("%d owned + %d spare pages, region %d", len(owned), len(spare), cfg.Pages())
	}
	for p := 0; p < dev.Spec().NumPages; p++ {
		want := uint32(0)
		if owned[p] {
			want = 1
		}
		inRegion := p >= cfg.FirstPage && p < cfg.FirstPage+cfg.Pages()
		if owned[p] && spare[p] || inRegion != (owned[p] || spare[p]) {
			t.Fatalf("page %d: owned %v, spare %v, in region %v", p, owned[p], spare[p], inRegion)
		}
		if w := dev.Wear(p); w != want {
			t.Fatalf("page %d (owned %v): wear %d after Reset, want %d", p, owned[p], w, want)
		}
	}

	ps, err := NewPlaneStore(dev, testPlaneConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().Erases
	if err := ps.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, want := dev.Stats().Erases-before, uint64(testPlaneConfig().Width*ps.r.chunkPages); got != want {
		t.Fatalf("plane Reset erased %d pages, want %d (region %d)", got, want, testPlaneConfig().Pages())
	}
}

// TestMirrorHoldsBitmapPagesOnly: on the kvscan geometry (1,024 × 256 B
// pages, 4 banks, 2,000 slots, 100 + 8 buckets) every bitmap is one page
// padded to a four-page stride, so the 432-page region holds 108 bitmap
// pages and 324 padding pages. The controller mirror covers the 108, and
// the region header fits in the first one.
func TestMirrorHoldsBitmapPagesOnly(t *testing.T) {
	sp := flash.DefaultSpec()
	sp.PageSize = 256
	sp.NumPages = 1024
	sp.Banks = 4
	dev := flash.MustNewDevice(sp)
	cfg := IndexConfig{
		PageSize:      256,
		Banks:         4,
		MaxSensePages: sp.MaxSensePages,
		Slots:         2000,
		Fields:        []Field{{Name: "sel", Buckets: 100}, {Name: "zone", Buckets: 8}},
	}
	cfg.FirstPage = sp.NumPages - cfg.Pages()
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pages() != 432 || len(ix.SparePages()) != 324 {
		t.Fatalf("region %d pages, %d spare; want 432 and 324", cfg.Pages(), len(ix.SparePages()))
	}
	if got, want := len(ix.r.mirror), 108*256; got != want {
		t.Fatalf("mirror holds %d B, want %d (108 bitmap pages)", got, want)
	}
	// 2,000 slots fill 250 B of each bitmap page: the header takes the
	// last 6 B of the region's first page and costs no page of its own.
	if got, want := ix.hdr, cfg.FirstPage*256+250; got != want {
		t.Fatalf("header at byte %d, want %d", got, want)
	}
}

// TestSparePageWritesLeaveQueriesAlone: the region's owner may program
// and erase the padding pages at will; no query result changes, because
// no bitmap ever senses them.
func TestSparePageWritesLeaveQueriesAlone(t *testing.T) {
	dev := testDevice(t)
	cfg := testIndexConfig()
	cfg.FirstPage = 4
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0x5BA2)
	for slot := 0; slot < ix.Slots(); slot++ {
		for _, f := range cfg.Fields {
			if err := ix.Add(slot, f.Name, rng.Intn(f.Buckets)); err != nil {
				t.Fatal(err)
			}
		}
	}
	preds := make([]Pred, 100)
	want := make([][]byte, len(preds))
	for i := range preds {
		preds[i] = randomPred(rng, 3)
		want[i] = make([]byte, ix.BitmapBytes())
		if err := ix.Query(preds[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	spare := ix.SparePages()
	if len(spare) == 0 {
		t.Fatal("geometry has no padding pages")
	}
	got := make([]byte, ix.BitmapBytes())
	for round := 0; round < 3; round++ {
		for _, p := range spare {
			if round > 0 {
				if err := dev.ErasePage(p); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < cfg.PageSize; i++ {
				if err := dev.ProgramByte(p*cfg.PageSize+i, rng.Byte()); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, p := range preds {
			if err := ix.Query(p, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d %s: result changed after writes to the padding pages", round, p)
			}
		}
	}
}

// TestIndexErrors covers schema validation and argument checks.
func TestIndexErrors(t *testing.T) {
	dev := testDevice(t)
	bad := []IndexConfig{
		{},
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10},                                      // no fields
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10, Fields: []Field{{Name: ""}}},         // empty name
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10, Fields: []Field{{Name: "f"}}},        // zero buckets
		{PageSize: 16, Banks: 2, MaxSensePages: 0, Slots: 10, Fields: []Field{{"f", 2}}},           // no senses
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10, Fields: []Field{{"f", 2}, {"f", 2}}}, // dup
	}
	for i, cfg := range bad {
		if _, err := NewIndex(dev, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, ix.BitmapBytes())
	if err := ix.Query(Eq("bogus", 0), dst); !errors.Is(err, ErrUnknownField) {
		t.Errorf("unknown field: %v", err)
	}
	if err := ix.Query(Eq("status", 4), dst); !errors.Is(err, ErrBucketRange) {
		t.Errorf("bucket range: %v", err)
	}
	if err := ix.Query(Eq("status", 0), dst[:1]); !errors.Is(err, ErrBitmapSize) {
		t.Errorf("short buffer: %v", err)
	}
	if err := ix.Add(-1, "status", 0); !errors.Is(err, ErrSlotRange) {
		t.Errorf("slot range: %v", err)
	}
	if err := ix.Add(0, "status", -1); !errors.Is(err, ErrBucketRange) {
		t.Errorf("negative bucket: %v", err)
	}
}

// TestPredEval pins the exact per-record semantics candidates are
// re-checked with.
func TestPredEval(t *testing.T) {
	buckets := map[string]int{"status": 1, "region": 2}
	of := func(f string) int {
		if b, ok := buckets[f]; ok {
			return b
		}
		return -1
	}
	cases := []struct {
		p    Pred
		want bool
	}{
		{Eq("status", 1), true},
		{Eq("status", 0), false},
		{Eq("missing", 0), false},
		{Not(Eq("status", 0)), true},
		{And(Eq("status", 1), Eq("region", 2)), true},
		{And(Eq("status", 1), Eq("region", 0)), false},
		{Or(Eq("status", 0), Eq("region", 2)), true},
		{In("region", 0, 1, 2), true},
		{In("region", 0, 1), false},
		{And(), true},
		{Or(), false},
	}
	for _, tc := range cases {
		if got := Eval(tc.p, of); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestPositiveRewritePreservesSemantics: for records with exactly one
// bucket per field, the negation-normal-form rewrite used for stale-bit
// soundness must evaluate identically to the original predicate, and its
// tree must contain no Not nodes.
func TestPositiveRewritePreservesSemantics(t *testing.T) {
	rng := xrand.New(0x9051)
	fields := map[string]int{"status": 4, "region": 3}
	counts := func(f string) int { return fields[f] }
	for trial := 0; trial < 500; trial++ {
		p := randomPred(rng, 3)
		q := Positive(p, counts)
		walk(q, func(n Pred) {
			if _, ok := n.(predNot); ok {
				t.Fatalf("trial %d: rewrite of %s left a Not: %s", trial, p, q)
			}
		})
		for rec := 0; rec < 30; rec++ {
			assign := map[string]int{"status": rng.Intn(4), "region": rng.Intn(3)}
			of := func(f string) int { return assign[f] }
			if Eval(p, of) != Eval(q, of) {
				t.Fatalf("trial %d: %s and rewrite %s disagree on %v", trial, p, q, assign)
			}
		}
	}
}

// BenchmarkIndexScanQuery measures one in-flash predicate evaluation over
// the full slot space.
func BenchmarkIndexScanQuery(b *testing.B) {
	dev := testDevice(b)
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	for slot := 0; slot < ix.Slots(); slot++ {
		_ = ix.Add(slot, "status", rng.Intn(4))
		_ = ix.Add(slot, "region", rng.Intn(3))
	}
	p := And(In("status", 0, 1), Not(Eq("region", 2)))
	dst := make([]byte, ix.BitmapBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Query(p, dst); err != nil {
			b.Fatal(err)
		}
	}
}
