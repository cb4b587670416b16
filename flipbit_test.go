package flipbit_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"

	flipbit "github.com/flipbit-sim/flipbit"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicSurface pins the façade's exported names, one per line in
// sorted order, so a name added to or removed from flipbit.go shows up as
// a reviewed diff. A name belongs in the façade only if an example, a
// façade test or the README drives it, or it completes such a name (a
// parameter or result type, a constant group, a sentinel error a kept call
// returns). Regenerate with:
//
//	go test . -run TestPublicSurface -update
func TestPublicSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "flipbit.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil && decl.Name.IsExported() {
				names = append(names, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						names = append(names, spec.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := []byte(strings.Join(names, "\n") + "\n")

	const golden = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("public surface drifted from golden (run with -update after reviewing):\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}

// TestPublicAPIQuickstart exercises the façade exactly as the package doc
// advertises it.
func TestPublicAPIQuickstart(t *testing.T) {
	dev, err := flipbit.NewDevice(flipbit.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetApproxRegion(0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := dev.SetWidth(flipbit.W8); err != nil {
		t.Fatal(err)
	}
	dev.SetThreshold(2)

	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := dev.Write(0, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := dev.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if buf[i] != data[i] {
			t.Fatalf("first write to erased flash must be exact; byte %d differs", i)
		}
	}
	if dev.Flash().Stats().Energy <= 0 {
		t.Error("no energy accounted")
	}
}

func TestPublicEncoders(t *testing.T) {
	if _, err := flipbit.NewNBitEncoder(2); err != nil {
		t.Error(err)
	}
	if _, err := flipbit.NewNBitEncoder(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := flipbit.NewMLCEncoder(1); err != nil {
		t.Error(err)
	}
	one := flipbit.NewOneBitEncoder()
	opt := flipbit.NewOptimalEncoder()
	// The paper's worked example through the public API.
	if got := one.Approximate(0b0101, 0b0011, flipbit.W8); got != 0b0001 {
		t.Errorf("one-bit example = %04b", got)
	}
	if got := opt.Approximate(0b0101, 0b0011, flipbit.W8); got != 0b0100 {
		t.Errorf("optimal example = %04b", got)
	}
}

func TestPublicCPUModel(t *testing.T) {
	m := flipbit.CortexM0Plus()
	if m.Power <= 0 || m.Clock != 48e6 {
		t.Errorf("unexpected M0+ model: %+v", m)
	}
}

// TestPublicEnduranceManagement drives the endurance façade end to end: a
// tiny health-gated device under a wear-leveling FTL with spares, written
// until it wears out.
func TestPublicEnduranceManagement(t *testing.T) {
	spec := flipbit.DefaultSpec()
	spec.PageSize = 64
	spec.NumPages = 16
	spec.Banks = 1
	spec.EnduranceCycles = 6

	var retires int
	dev, err := flipbit.NewDevice(spec, flipbit.WithHealthGate(),
		flipbit.WithObserver(flipbit.ObserverFunc(func(e flipbit.OpEvent) {
			if e.Kind == flipbit.OpRetire {
				retires++
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	f, err := flipbit.OpenFTL(dev, flipbit.WithSparePages(2), flipbit.WithSwapDelta(4))
	if err != nil {
		t.Fatal(err)
	}

	rec := make([]byte, 64)
	for i := 0; i < 200; i++ {
		for j := range rec {
			rec[j] = byte(i + j)
		}
		if err := f.Write(0, rec); err != nil {
			break // spare pool exhausted: clean end of service
		}
		got := make([]byte, len(rec))
		if err := f.Read(0, got); err != nil {
			t.Fatalf("write %d: read back: %v", i, err)
		}
		for j := range got {
			if got[j] != rec[j] {
				t.Fatalf("write %d: acked data corrupted at byte %d", i, j)
			}
		}
	}

	if dev.Flash().MaxWear() == 0 {
		t.Error("device never wore")
	}
	if f.Stats().Retirements == 0 || f.SparesRemaining() == 2 {
		t.Errorf("no page retired onto a spare: %+v, %d spares left", f.Stats(), f.SparesRemaining())
	}
	if retires == 0 {
		t.Error("no OpRetire event reached the op bus")
	}
	if errors.Is(f.Write(0, rec), flipbit.ErrExactDegraded) == (f.SparesRemaining() > 0) {
		t.Errorf("degradation contract: spares=%d", f.SparesRemaining())
	}
}

func TestPublicDeviceWithEncoderOption(t *testing.T) {
	enc, err := flipbit.NewNBitEncoder(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := flipbit.DefaultSpec()
	dev, err := flipbit.NewDevice(spec, flipbit.WithEncoder(enc))
	if err != nil {
		t.Fatal(err)
	}
	// The option shows in what the device stores: an overwrite no program
	// can reach lands on the 4-bit encoder's approximation, which differs
	// from the default 2-bit encoder's.
	if err := dev.SetApproxRegion(0, spec.PageSize); err != nil {
		t.Fatal(err)
	}
	dev.SetThreshold(255)
	const prev, exact = 0x05, 0x02
	for _, v := range []byte{prev, exact} {
		if err := dev.Write(0, []byte{v}); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 1)
	if err := dev.Read(0, got); err != nil {
		t.Fatal(err)
	}
	two, err := flipbit.NewNBitEncoder(2)
	if err != nil {
		t.Fatal(err)
	}
	want, dflt := enc.Approximate(prev, exact, flipbit.W8), two.Approximate(prev, exact, flipbit.W8)
	if uint32(got[0]) != want || want == dflt {
		t.Errorf("stored %#x, want the 4-bit approximation %#x (2-bit gives %#x)", got[0], want, dflt)
	}
}

// TestPublicKVS exercises the key-value store façade end to end: mount with
// compaction and checkpointing armed, churn enough to force GC, checkpoint,
// remount O(tail), and observe the stats surface.
func TestPublicKVS(t *testing.T) {
	spec := flipbit.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 24
	dev, err := flipbit.NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := []flipbit.KVOption{
		flipbit.WithKVCompaction(flipbit.CompactionConfig{}),
		flipbit.WithKVCheckpoint(flipbit.CheckpointConfig{SlotPages: 3, Interval: 40}),
		flipbit.WithKVVerify(),
	}
	s, err := flipbit.OpenKVS(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, flipbit.ErrKVNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrKVNotFound", err)
	}
	val := make([]byte, 24)
	for i := 0; i < 200; i++ {
		val[0] = byte(i)
		if err := s.Put(fmt.Sprintf("key%d", i%8), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Error("churn never forced a compaction")
	}
	if st.Checkpoints == 0 {
		t.Error("no checkpoint committed")
	}

	s2, err := flipbit.OpenKVS(dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var kvst flipbit.KVStats = s2.Stats()
	if kvst.CheckpointMounts != 1 {
		t.Errorf("remount did not restore from the checkpoint: %+v", kvst)
	}
	for i := 192; i < 200; i++ {
		want := byte(i)
		got, err := s2.Get(fmt.Sprintf("key%d", i%8))
		if err != nil || got[0] != want {
			t.Fatalf("after remount Get(key%d) = %v, %v; want first byte %d", i%8, got, err, want)
		}
	}
}

// TestPublicScan exercises the in-storage compute surface: a scan index on
// the store, predicate pushdown, and the raw sense primitive.
func TestPublicScan(t *testing.T) {
	spec := flipbit.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 2
	dev, err := flipbit.NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	idx := flipbit.KVIndexSpec{
		MaxKeys: 32,
		Fields: []flipbit.KVIndexField{
			{Name: "status", Buckets: 4, Extract: func(_ string, v []byte) int { return int(v[0]) % 4 }},
		},
	}
	s, err := flipbit.OpenKVS(dev, flipbit.WithKVScanIndex(idx))
	if err != nil {
		t.Fatal(err)
	}
	if !s.ScanIndexed() {
		t.Fatal("scan index did not come up")
	}
	for i := 0; i < 16; i++ {
		if err := s.Put(fmt.Sprintf("dev%02d", i), []byte{byte(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	p := flipbit.PredAnd(
		flipbit.PredIn("status", 1, 2),
		flipbit.PredNot(flipbit.PredEq("status", 2)),
	)
	before := dev.Flash().Stats()
	got, err := s.Scan(p)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Flash().Stats().Senses == before.Senses {
		t.Error("scan was not served in-flash")
	}
	if len(got) != 4 {
		t.Fatalf("scan returned %d records, want 4 (status 1)", len(got))
	}
	for _, kv := range got {
		var _ flipbit.KVPair = kv
		if kv.Val[0]%4 != 1 {
			t.Errorf("scan returned %q with status %d", kv.Key, kv.Val[0]%4)
		}
	}

	// The raw primitive: a two-page OR sense charged as one sense.
	var op flipbit.SenseOp = flipbit.SenseOR
	dst := make([]byte, spec.PageSize)
	before = dev.Flash().Stats()
	if err := dev.Flash().SenseMulti(op, []int{0, 2}, []bool{false, false}, dst); err != nil {
		t.Fatal(err)
	}
	d := dev.Flash().Stats()
	if d.Senses != before.Senses+1 || d.PagesSensed != before.PagesSensed+2 {
		t.Errorf("sense accounting: %d senses / %d pages, want +1 / +2", d.Senses-before.Senses, d.PagesSensed-before.PagesSensed)
	}
}
