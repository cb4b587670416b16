package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func newStore(t *testing.T, pages int) (*Store, *core.Device) {
	t.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = pages
	if pages%spec.Banks != 0 {
		spec.Banks = 2 // pages must split evenly across banks
	}
	dev := core.MustNewDevice(spec)
	s, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore(t, 8)
	if err := s.Put("temp", []byte("21.5C")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("temp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("21.5C")) {
		t.Errorf("got %q", got)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := newStore(t, 8)
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestUpdateWins(t *testing.T) {
	s, _ := newStore(t, 8)
	for i := 0; i < 20; i++ {
		if err := s.Put("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 19 {
		t.Errorf("latest update lost: %v", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s, _ := newStore(t, 8)
	_ = s.Put("a", []byte("1"))
	_ = s.Put("b", []byte("2"))
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted key still readable")
	}
	keys := s.Keys()
	if len(keys) != 1 || keys[0] != "b" {
		t.Errorf("keys = %v", keys)
	}
	// Deleting again is a no-op.
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	s, _ := newStore(t, 8)
	if err := s.Put("", []byte("x")); !errors.Is(err, ErrBadKey) {
		t.Error("empty key accepted")
	}
	big := make([]byte, 1024)
	if err := s.Put("k", big); !errors.Is(err, ErrTooLarge) {
		t.Error("oversized record accepted")
	}
}

func TestMountRebuildsIndex(t *testing.T) {
	s, dev := newStore(t, 8)
	want := map[string]string{}
	rng := xrand.New(3)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key%02d", i%10)
		v := fmt.Sprintf("val-%d-%d", i, rng.Intn(100))
		want[k] = v
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Delete("key03")
	delete(want, "key03")

	// Remount from the same flash contents.
	s2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(want) {
		t.Fatalf("remounted Len = %d, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, err := s2.Get(k)
		if err != nil {
			t.Fatalf("remounted Get(%q): %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("remounted %q = %q, want %q", k, got, v)
		}
	}
}

// TestGCCompactsAndPreservesData: filling the store far beyond raw capacity
// must trigger compactions while keeping every live key readable.
func TestGCCompactsAndPreservesData(t *testing.T) {
	s, _ := newStore(t, 6) // 6 × 128 B pages
	val := make([]byte, 24)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%d", i%8)
		for j := range val {
			val[j] = byte(i + j)
		}
		if err := s.Put(k, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s.Stats().Compactions == 0 {
		t.Error("no compaction despite 300 overwrites in a 6-page store")
	}
	for i := 292; i < 300; i++ {
		k := fmt.Sprintf("k%d", i%8)
		got, err := s.Get(k)
		if err != nil {
			t.Fatalf("get %q after GC: %v", k, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("%q holds stale data after GC", k)
		}
	}
}

// TestStoreFull: unique keys eventually exhaust the store; ErrFull must
// surface rather than a corrupt state.
func TestStoreFull(t *testing.T) {
	s, _ := newStore(t, 4)
	val := make([]byte, 32)
	var sawFull bool
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("unique-key-%03d", i), val); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("store never reported full")
	}
	// Existing data still readable.
	if _, err := s.Get("unique-key-000"); err != nil {
		t.Errorf("data lost on full store: %v", err)
	}
}

// TestPowerLossDuringPutRecovers: a torn Put must not corrupt the store;
// after remount the old value is intact and the torn record is ignored.
func TestPowerLossDuringPutRecovers(t *testing.T) {
	s, dev := newStore(t, 8)
	if err := s.Put("cfg", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	dev.Flash().InjectPowerLoss(0)
	err := s.Put("cfg", []byte("v2"))
	if !errors.Is(err, flash.ErrPowerLoss) {
		t.Fatalf("want ErrPowerLoss, got %v", err)
	}
	// Reboot: remount from flash.
	s2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("cfg")
	if err != nil {
		t.Fatalf("key lost after torn put: %v", err)
	}
	if string(got) != "v1" {
		t.Errorf("recovered %q, want the pre-crash value \"v1\"", got)
	}
}

// TestTombstoneSurvivesGC: deleting a key, then forcing GC churn, then
// remounting must NOT resurrect the old value (the §VII-family resurrection
// bug this store's tombstone-forwarding prevents).
func TestTombstoneSurvivesGC(t *testing.T) {
	s, dev := newStore(t, 6)
	if err := s.Put("ghost", []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Push other data so "ghost" sits in an old page.
	val := make([]byte, 24)
	for i := 0; i < 20; i++ {
		_ = s.Put(fmt.Sprintf("f%d", i%6), val)
	}
	if err := s.Delete("ghost"); err != nil {
		t.Fatal(err)
	}
	// Churn until multiple compactions have happened.
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("f%d", i%6), val); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Compactions < 2 {
		t.Fatalf("churn produced only %d compactions", s.Stats().Compactions)
	}
	s2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted key resurrected after GC + remount")
	}
}

// TestErasesAmortized: log-structured updates must use far fewer erases
// than one per update.
func TestErasesAmortized(t *testing.T) {
	s, dev := newStore(t, 8)
	val := make([]byte, 16)
	const updates = 200
	for i := 0; i < updates; i++ {
		val[0] = byte(i)
		if err := s.Put("sensor", val); err != nil {
			t.Fatal(err)
		}
	}
	erases := dev.Flash().Stats().Erases
	if erases*3 > updates {
		t.Errorf("%d erases for %d updates; log structure not amortizing", erases, updates)
	}
}

// TestPutSteadyStateAllocs pins a Put's allocations on a store with room
// to spare: one, the record buffer. Page opens allocate nothing, and
// commit reads the landing zone into a store-owned scratch buffer.
func TestPutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	spec := flash.DefaultSpec()
	spec.PageSize = 4096
	spec.NumPages = 32
	spec.Banks = 1
	s, err := Open(core.MustNewDevice(spec))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 128)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i, opened := 0, s.head
	allocs := testing.AllocsPerRun(200, func() {
		val[0] = byte(i)
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if s.head == opened || s.Stats().Compactions != 0 {
		t.Fatalf("no page opened, or a compaction ran (head %d → %d, %d compactions)", opened, s.head, s.Stats().Compactions)
	}
	if allocs > 1 {
		t.Errorf("Put allocates %.1f times, want at most 1", allocs)
	}
}

// fastReadFlip is a memBackend whose fast reads always see one bit of addr
// flipped, while a margin sense reads the stored byte: a retention cell no
// re-read settles.
type fastReadFlip struct {
	*memBackend
	addr int
}

func (f fastReadFlip) Read(addr int, dst []byte) error {
	if err := f.memBackend.Read(addr, dst); err != nil {
		return err
	}
	if addr <= f.addr && f.addr < addr+len(dst) {
		dst[f.addr-addr] ^= 0x10
	}
	return nil
}

func (f fastReadFlip) SensePage(p int, dst []byte) error {
	return f.memBackend.Read(p*f.ps, dst)
}

// TestGetSteadyStateAllocs pins a Get's allocations at two, the record and
// the value: on a clean read, and on one only the margin sense settles,
// which reuses the store's sense buffer and whose re-sense check does not
// escape.
func TestGetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := newMemBackend(128, 8)
	s, err := OpenOn(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"clean", "flicker"} {
		if err := s.Put(k, []byte("sixteen byte val")); err != nil {
			t.Fatal(err)
		}
	}
	loc := s.index["flicker"]
	s.b = fastReadFlip{memBackend: m, addr: s.pageBase(loc.page) + loc.off + recHeaderSize}
	for _, k := range []string{"clean", "flicker"} {
		before := s.Stats()
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.Get(k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("Get(%q) allocates %.1f times, want 2", k, allocs)
		}
		if st := s.Stats(); k == "flicker" && st.MarginSenses == before.MarginSenses {
			t.Errorf("Get(%q) never margin-sensed", k)
		}
	}
}
