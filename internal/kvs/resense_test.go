package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// damagedBackend is a memBackend whose reads see damage, with a log of
// every call. A bit set in stuck reads as 0 on every read; a bit set in
// marginal resolves at random on every fast Read, from a seeded stream, as
// a marginal retention cell does. Two backends built from one image and
// one seed return the same bytes as long as they see the same calls.
type damagedBackend struct {
	*memBackend
	stuck, marginal []byte // per-address bit masks
	rng             *xrand.RNG
	calls           []backendCall
}

// backendCall is one logged backend call: its kind ('R'ead, 'W'rite,
// 'E'rase or 'S'ense), address (a page for erases and senses) and length.
type backendCall struct {
	kind    byte
	addr, n int
}

func (f *damagedBackend) Read(addr int, dst []byte) error {
	f.calls = append(f.calls, backendCall{'R', addr, len(dst)})
	if err := f.memBackend.Read(addr, dst); err != nil {
		return err
	}
	for i := range dst {
		dst[i] &^= f.stuck[addr+i]
		if m := f.marginal[addr+i]; m != 0 {
			dst[i] ^= m & f.rng.Byte()
		}
	}
	return nil
}

func (f *damagedBackend) Write(addr int, data []byte) error {
	f.calls = append(f.calls, backendCall{'W', addr, len(data)})
	return f.memBackend.Write(addr, data)
}

func (f *damagedBackend) ErasePage(p int) error {
	f.calls = append(f.calls, backendCall{'E', p, f.ps})
	return f.memBackend.ErasePage(p)
}

// damagedSenser adds a margin sense to damagedBackend: marginal cells
// resolve to their stored bit, stuck ones stay stuck. With senseErr set
// every sense fails and leaves dst alone.
type damagedSenser struct {
	*damagedBackend
	senseErr error
}

func (f damagedSenser) SensePage(p int, dst []byte) error {
	f.calls = append(f.calls, backendCall{'S', p, len(dst)})
	if f.senseErr != nil {
		return f.senseErr
	}
	base := p * f.ps
	copy(dst, f.data[base:base+f.ps])
	for i := range dst {
		dst[i] &^= f.stuck[base+i]
	}
	return nil
}

var errSenseFailed = errors.New("sense failed")

// Differential geometry: 8 pages of 128 bytes, no reserved regions.
const (
	diffPS = 128
	diffNP = 8
)

// ladderPair is one damaged image twice over: old runs the oracle ladders
// (ladderoracle_test.go), new runs resense.
type ladderPair struct {
	fb    [2]*damagedBackend
	b     [2]Backend
	s     [2]*Store
	opts  []Option
	inUse []int // pages whose header the old ladder read as in use

	// reached names the outcomes the checks so far saw ("Get repaired",
	// "header margin sense", ...), against last, the new side's Stats at
	// the previous check.
	reached map[string]bool
	last    Stats
}

// newLadderPair writes a seeded workload through a store, then damages two
// copies of its image identically: nStuck stuck bits and nMarginal
// flickering ones, in the bytes pages use, a quarter of the scattered ones
// in headers. mode picks the backend (no margin sense, a working one or a
// failing one), and bit 2 of mode mounts WithVerify.
func newLadderPair(seed uint64, nStuck, nMarginal, mode uint8) *ladderPair {
	m := newMemBackend(diffPS, diffNP)
	w, err := OpenOn(m)
	if err != nil {
		panic(err)
	}
	rng := xrand.New(seed*2654435761 + 7)
	fuzzWorkload(w, rng, 20+rng.Intn(60))
	lp := &ladderPair{reached: map[string]bool{}}
	stuck := make([]byte, len(m.data))
	marginal := make([]byte, len(m.data))
	// Half the bits land within 8 bytes of the previous one, so one
	// record or header often carries several.
	p, off := -1, 0
	damage := func(mask []byte) {
		switch {
		case p >= 0 && rng.Intn(2) == 0:
			off = min(max(off+rng.Intn(17)-8, 0), diffPS-1)
		default:
			p = rng.Intn(diffNP)
			if rng.Intn(4) == 0 || w.pageUsed[p] <= pageHeaderSize {
				off = rng.Intn(pageHeaderSize)
			} else {
				off = pageHeaderSize + rng.Intn(w.pageUsed[p]-pageHeaderSize)
			}
		}
		mask[p*diffPS+off] |= 1 << uint(rng.Intn(8))
	}
	for i := 0; i < int(nStuck%4); i++ {
		damage(stuck)
	}
	for i := 0; i < int(nMarginal%8); i++ {
		damage(marginal)
	}
	if mode&4 != 0 {
		lp.opts = append(lp.opts, WithVerify())
	}
	flickerSeed := rng.Uint64()
	for i := range lp.fb {
		fb := &damagedBackend{
			memBackend: m.clone(), stuck: stuck, marginal: marginal,
			rng: xrand.New(flickerSeed),
		}
		lp.fb[i] = fb
		switch mode % 3 {
		case 0:
			lp.b[i] = fb
		case 1:
			lp.b[i] = damagedSenser{damagedBackend: fb}
		default:
			lp.b[i] = damagedSenser{damagedBackend: fb, senseErr: errSenseFailed}
		}
		if lp.s[i], err = layoutStore(lp.b[i], lp.opts...); err != nil {
			panic(err)
		}
	}
	return lp
}

// same fails t unless both sides issued the same backend calls and hold
// the same Stats since the last check, then clears the call logs and notes
// which ladder outcomes the step at phase reached.
func (lp *ladderPair) same(t *testing.T, phase, what string) {
	t.Helper()
	if !slices.Equal(lp.fb[0].calls, lp.fb[1].calls) {
		t.Fatalf("%s: backend calls differ:\nold %v\nnew %v", what, lp.fb[0].calls, lp.fb[1].calls)
	}
	if lp.s[0].stats != lp.s[1].stats {
		t.Fatalf("%s: stats differ:\nold %+v\nnew %+v", what, lp.s[0].stats, lp.s[1].stats)
	}
	lp.fb[0].calls, lp.fb[1].calls = nil, nil
	st := lp.s[1].stats
	for outcome, moved := range map[string]bool{
		"re-sensed clean": st.SenseRecovered > lp.last.SenseRecovered,
		"margin sense":    st.MarginSenses > lp.last.MarginSenses,
		"repaired":        st.CorrectedBits > lp.last.CorrectedBits,
	} {
		if moved {
			lp.reached[phase+" "+outcome] = true
		}
	}
	lp.last = st
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// headers runs every page's header through both ladders.
func (lp *ladderPair) headers(t *testing.T) {
	for p := 0; p < diffNP; p++ {
		buf := make([]byte, diffPS)
		seq0, st0, err0 := lp.s[0].oracleReadPageHeader(p, buf)
		hdr := make([]byte, pageHeaderSize)
		seq1, st1, err1 := lp.s[1].readPageHeader(p, hdr)
		what := fmt.Sprintf("header of page %d", p)
		if seq0 != seq1 || st0 != st1 || errString(err0) != errString(err1) {
			t.Fatalf("%s: old (%d, %d, %v), new (%d, %d, %v)", what, seq0, st0, err0, seq1, st1, err1)
		}
		if err0 == nil && !bytes.Equal(buf[:pageHeaderSize], hdr) {
			t.Fatalf("%s: old left % x, new % x", what, buf[:pageHeaderSize], hdr)
		}
		if err1 != nil {
			lp.reached["header error"] = true
		}
		lp.same(t, "header", what)
		if st0 == pageInUse {
			lp.inUse = append(lp.inUse, p)
		}
	}
}

// records replays every in-use page record by record through both
// ladders, as mount replay walks it.
func (lp *ladderPair) records(t *testing.T) {
	for _, p := range lp.inUse {
		var buf [2][]byte
		for i := range buf {
			buf[i] = make([]byte, diffPS)
			if err := lp.b[i].Read(lp.s[i].pageBase(p), buf[i]); err != nil {
				t.Fatal(err)
			}
		}
		for off := pageHeaderSize; off+recHeaderSize+crcSize <= diffPS; {
			size0, ok0 := lp.s[0].oracleCheckRecord(p, buf[0], off)
			size1, _, _ := lp.s[1].checkRecord(p, off, buf[1][off:], "")
			ok1 := size1 > 0
			what := fmt.Sprintf("record at page %d offset %d", p, off)
			if size0 != size1 || ok0 != ok1 {
				t.Fatalf("%s: old (%d, %v), new (%d, %v)", what, size0, ok0, size1, ok1)
			}
			if !bytes.Equal(buf[0][off:], buf[1][off:]) {
				t.Fatalf("%s: buffers differ:\nold % x\nnew % x", what, buf[0][off:], buf[1][off:])
			}
			lp.same(t, "record", what)
			if !ok0 {
				break
			}
			off += size0
		}
	}
}

// gets mounts both images with OpenOn, then reads every key through both
// Get ladders; a repaired read re-appends the record on both sides.
func (lp *ladderPair) gets(t *testing.T) {
	var errs [2]error
	for i := range lp.s {
		if lp.s[i], errs[i] = OpenOn(lp.b[i], lp.opts...); errs[i] != nil {
			lp.s[i] = &Store{} // a failed mount moves no counter
		}
	}
	if errString(errs[0]) != errString(errs[1]) {
		t.Fatalf("mount: old %v, new %v", errs[0], errs[1])
	}
	lp.last = Stats{}
	lp.same(t, "mount", "mount")
	if errs[1] != nil {
		return // a margin sense failed on a header, on both sides
	}
	for _, k := range fuzzKeys {
		v0, err0 := lp.s[0].oracleGet(k)
		v1, err1 := lp.s[1].Get(k)
		what := fmt.Sprintf("Get(%q)", k)
		if !bytes.Equal(v0, v1) || (v0 == nil) != (v1 == nil) || errString(err0) != errString(err1) {
			t.Fatalf("%s: old (% x, %v), new (% x, %v)", what, v0, err0, v1, err1)
		}
		switch {
		case errors.Is(err1, ErrCorrupt):
			lp.reached["Get corrupt"] = true
		case errors.Is(err1, errSenseFailed):
			lp.reached["Get error"] = true
		}
		lp.same(t, "Get", what)
	}
}

// FuzzResenseMatchesOracle: the one re-sense ladder (resense) behaves at
// every caller exactly like the per-site ladder it replaced. On images
// with stuck and flickering bits, on backends with a working, a failing or
// no margin sense, each damaged header, replayed record and Get returns
// the same verdict, value and error through both, leaves the same bytes in
// the caller's window, moves every Stats field alike and issues the same
// backend calls in the same order.
func FuzzResenseMatchesOracle(f *testing.F) {
	for i := uint8(0); i < 12; i++ {
		f.Add(uint64(i)*977+1, i, i*3+1, i)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nStuck, nMarginal, mode uint8) {
		lp := newLadderPair(seed, nStuck, nMarginal, mode)
		lp.headers(t)
		lp.records(t)
		lp.gets(t)
	})
}

// TestResenseOracleReachesEveryRung keeps FuzzResenseMatchesOracle from
// passing vacuously: across a few hundred seeded images, every caller
// recovers by re-sense, margin-senses and repairs, and the errors a caller
// propagates (a failed sense, a record beyond repair) occur.
func TestResenseOracleReachesEveryRung(t *testing.T) {
	reached := map[string]bool{}
	for seed := uint64(0); seed < 300; seed++ {
		lp := newLadderPair(seed, uint8(seed), uint8(seed/4), uint8(seed))
		lp.headers(t)
		lp.records(t)
		lp.gets(t)
		for k := range lp.reached {
			reached[k] = true
		}
	}
	for _, phase := range []string{"header", "record", "Get"} {
		for _, outcome := range []string{"re-sensed clean", "margin sense", "repaired"} {
			if !reached[phase+" "+outcome] {
				t.Errorf("no seed reached %s %s", phase, outcome)
			}
		}
	}
	for _, k := range []string{"header error", "Get corrupt", "Get error"} {
		if !reached[k] {
			t.Errorf("no seed reached %s", k)
		}
	}
}
