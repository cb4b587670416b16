package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// withLegacyFraming mounts the store with the old record framing: flags and
// valLen stored as they are, so a live record programs 0x00 into its flags
// byte and into the high length byte of any value under 256 B. It is the
// oracle TestLegacyFramingDifferential runs the current framing against.
func withLegacyFraming() Option {
	return func(s *Store) { s.inv = 0 }
}

// framingDevice is a one-bank device with pages large enough for values of
// 256 B and more, whose length needs both valLen bytes.
func framingDevice(np int) *core.Device {
	spec := flash.DefaultSpec()
	spec.PageSize = 512
	spec.NumPages = np
	spec.Banks = 1
	return core.MustNewDevice(spec)
}

// countNonFF counts the bytes of b that leave the erased state: the
// program pulses b costs on an erased landing zone.
func countNonFF(b []byte) int {
	n := 0
	for _, v := range b {
		if v != 0xFF {
			n++
		}
	}
	return n
}

// TestRecordFramingPulses: an append into an erased page programs exactly
// the record bytes that are not 0xFF. With no 0xFF byte in the key, value
// or CRC, that is 3 framing pulses (magic, keyLen, low length byte) plus
// the key, value and CRC for a live value under 256 B, one more for a
// longer value, and magic, flags and keyLen for a tombstone. A framing byte
// that defaults to 0x00 again costs a pulse and fails the count, as the
// legacy framing shows.
func TestRecordFramingPulses(t *testing.T) {
	key := "sensor-7"
	short := bytes.Repeat([]byte{0x5A}, 40)
	long := bytes.Repeat([]byte{0x3C}, 300)
	cases := []struct {
		name  string
		val   []byte
		tomb  bool
		want  int // pulses under the inverted framing
		extra int // further pulses the legacy framing spends
	}{
		{"live-short", short, false, 3 + len(key) + len(short) + 4, 2},
		{"live-long", long, false, 4 + len(key) + len(long) + 4, 1},
		{"tombstone", nil, true, 3 + len(key) + 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flags := byte(0)
			if tc.tomb {
				flags = flagTombstone
			}
			rec := encodeRecord(key, tc.val, flags, recInvert)
			if c := rec[len(rec)-crcSize:]; countNonFF(c) != crcSize {
				t.Fatalf("CRC trailer %x holds an erased byte; pick another input", c)
			}
			for _, legacy := range []bool{false, true} {
				dev := framingDevice(4)
				var opts []Option
				if legacy {
					opts = append(opts, withLegacyFraming())
				}
				s, err := Open(dev, opts...)
				if err != nil {
					t.Fatal(err)
				}
				// Open the page (and, for the tombstone, give it a key to
				// delete) before measuring.
				if err := s.Put(key, short); err != nil {
					t.Fatal(err)
				}
				before := dev.Flash().Stats().Programs
				if tc.tomb {
					err = s.Delete(key)
				} else {
					err = s.Put(key, tc.val)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := int(dev.Flash().Stats().Programs - before)
				want := tc.want
				if legacy {
					want += tc.extra
				}
				if got != want {
					t.Errorf("legacy=%v: append programmed %d bytes, want %d", legacy, got, want)
				}
				if !legacy && got != countNonFF(rec) {
					t.Errorf("append programmed %d bytes, record has %d non-0xFF bytes", got, countNonFF(rec))
				}
			}
		})
	}
}

// TestTornAppendSweep cuts power at every pulse of one append — a live
// value under 256 B, one of 256 B or more, and a tombstone — then remounts.
// An unwritten length decodes as 0, a plausible frame, so only the CRC
// stands between a torn header and a phantom record. After every cut the
// key reads its old or its new value, no other key changes or appears, and
// a cut that left a trace and lost the new value is counted in TornSkipped.
func TestTornAppendSweep(t *testing.T) {
	oldVal := []byte("the acknowledged value")
	cases := []struct {
		name string
		val  []byte
		tomb bool
	}{
		{"live-short", bytes.Repeat([]byte{0x42}, 60), false},
		{"live-long", bytes.Repeat([]byte{0x24}, 300), false},
		{"tombstone", nil, true},
	}
	others := map[string][]byte{"a": []byte("neighbour a"), "z": []byte("neighbour z")}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setup := func() (*core.Device, *Store) {
				dev := framingDevice(4)
				s, err := Open(dev)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []string{"a", "k", "z"} {
					v := others[k]
					if k == "k" {
						v = oldVal
					}
					if err := s.Put(k, v); err != nil {
						t.Fatal(err)
					}
				}
				return dev, s
			}
			do := func(s *Store) error {
				if tc.tomb {
					return s.Delete("k")
				}
				return s.Put("k", tc.val)
			}
			flags := byte(0)
			if tc.tomb {
				flags = flagTombstone
			}
			rec := encodeRecord("k", tc.val, flags, recInvert)

			dev, s := setup()
			before := dev.Flash().Stats().Programs
			if err := do(s); err != nil {
				t.Fatal(err)
			}
			pulses := int(dev.Flash().Stats().Programs - before)
			if pulses != countNonFF(rec) {
				t.Fatalf("dry run programmed %d bytes, record has %d non-0xFF bytes", pulses, countNonFF(rec))
			}
			torn := 0
			for cut := 0; cut < pulses; cut++ {
				dev, s := setup()
				at := s.pageBase(s.head) + s.pageUsed[s.head]
				dev.Flash().InjectPowerLoss(cut)
				if err := do(s); !errors.Is(err, flash.ErrPowerLoss) {
					t.Fatalf("cut %d: append returned %v, want power loss", cut, err)
				}
				trace := false
				for i := 0; i < recHeaderSize+crcSize; i++ {
					trace = trace || dev.Flash().Peek(at+i) != 0xFF
				}
				s2, err := Open(dev)
				if err != nil {
					t.Fatalf("cut %d: remount: %v", cut, err)
				}
				if keys := s2.Keys(); len(keys) > 3 {
					t.Fatalf("cut %d: phantom keys %q", cut, keys)
				}
				for k, v := range others {
					if got, err := s2.Get(k); err != nil || !bytes.Equal(got, v) {
						t.Fatalf("cut %d: neighbour %q = %q, %v", cut, k, got, err)
					}
				}
				got, err := s2.Get("k")
				isOld := err == nil && bytes.Equal(got, oldVal)
				isNew := err == nil && bytes.Equal(got, tc.val)
				if tc.tomb {
					isNew = errors.Is(err, ErrNotFound)
				}
				st := s2.Stats()
				switch {
				case isNew && st.TornSkipped != 0:
					t.Fatalf("cut %d: new value landed but TornSkipped = %d", cut, st.TornSkipped)
				case isOld && trace && st.TornSkipped != 1:
					t.Fatalf("cut %d: torn record left a trace but TornSkipped = %d", cut, st.TornSkipped)
				case isOld && !trace && st.TornSkipped != 0:
					t.Fatalf("cut %d: cut left no trace but TornSkipped = %d", cut, st.TornSkipped)
				case !isOld && !isNew:
					t.Fatalf("cut %d: key reads %q, %v: neither old nor new", cut, got, err)
				}
				if isOld && trace {
					torn++
				}
				// The torn tail is retired, not appended over.
				if err := s2.Put("k", oldVal); err != nil {
					t.Fatalf("cut %d: put after remount: %v", cut, err)
				}
			}
			if torn == 0 {
				t.Fatalf("none of %d cuts left a torn record", pulses)
			}
		})
	}
}

// TestErasedLengthFrameRejected: a header torn before its length bytes
// were programmed decodes as a zero-length value — a plausible frame whose
// trailer lands on the erased key bytes. Its CRC must fail, and replay's
// record check, whose single-bit repair re-derives the frame for every
// flip of a length bit, must never turn it into a record.
func TestErasedLengthFrameRejected(t *testing.T) {
	const ps = 512
	m := newMemBackend(ps, 1)
	s, err := layoutStore(m)
	if err != nil {
		t.Fatal(err)
	}
	for keyLen := 1; keyLen <= 255; keyLen++ {
		for _, tomb := range []bool{false, true} {
			buf := bytes.Repeat([]byte{0xFF}, ps)
			off := pageHeaderSize
			buf[off] = recMagic
			if tomb {
				buf[off+1] = flagTombstone ^ recInvert
			}
			buf[off+2] = byte(keyLen)
			size, ok := recordSize(buf, off, ps, recInvert)
			if !ok || size != recHeaderSize+keyLen+crcSize {
				t.Fatalf("keyLen %d: erased length frames as %d, %v", keyLen, size, ok)
			}
			if recordCRCValid(buf, off, size) {
				t.Fatalf("keyLen %d tomb=%v: erased-length frame passes its CRC", keyLen, tomb)
			}
			want := slices.Clone(buf)
			copy(m.data, buf)
			if size, _, err := s.checkRecord(0, off, buf[off:], ""); size != 0 || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("keyLen %d tomb=%v: check made a %d-byte record of a torn header (%v)", keyLen, tomb, size, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("keyLen %d: failed repair left the buffer changed", keyLen)
			}
		}
	}
	if s.stats.CorrectedBits != 0 {
		t.Fatalf("CorrectedBits = %d", s.stats.CorrectedBits)
	}
}

// FuzzRecordFrame: encoding then decoding round-trips any key, flags and
// value that fit a page, and no strict prefix of an encoded record followed
// by erased bytes — the image a power cut leaves — parses as a CRC-valid
// frame. With one or two of the record's bits flipped (flip1, and flip2
// when it is not 0: bit numbers across the record, counted from the magic
// byte's bit 0), replay's record check (checkRecord) and the brute-force
// repair it replaced (oracleRepairRecord, behind the old ladder) agree on
// the size, the verdict, the bytes they leave and every Stats field, and
// one flip is always repaired back to the record as encoded.
func FuzzRecordFrame(f *testing.F) {
	f.Add([]byte("k"), byte(0), []byte("v"), uint16(0), uint16(0))
	f.Add([]byte("sensor-7"), byte(flagTombstone), []byte{}, uint16(9), uint16(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 255), byte(0xFF), bytes.Repeat([]byte{0xFF}, 255), uint16(17), uint16(4000))
	f.Add([]byte("k"), byte(0), bytes.Repeat([]byte{0x00}, 300), uint16(30), uint16(38))
	f.Add([]byte("key"), byte(0), []byte("value"), uint16(1), uint16(0))     // magic
	f.Add([]byte("key"), byte(0), []byte("value"), uint16(16), uint16(25))   // keyLen, valLen low
	f.Add([]byte("key"), byte(0), []byte("value"), uint16(39), uint16(0))    // valLen high
	f.Add([]byte("key"), byte(0), []byte("value"), uint16(130), uint16(135)) // trailer
	f.Add([]byte("key"), byte(0), []byte("value"), uint16(2), uint16(60))    // magic and value
	const ps = 1024
	f.Fuzz(func(t *testing.T, key []byte, flags byte, val []byte, flip1, flip2 uint16) {
		size := recHeaderSize + len(key) + len(val) + crcSize
		if len(key) == 0 || len(key) > 255 || pageHeaderSize+size > ps {
			t.Skip()
		}
		rec := encodeRecord(string(key), val, flags, recInvert)
		off := pageHeaderSize
		buf := bytes.Repeat([]byte{0xFF}, ps)
		copy(buf[off:], rec)
		got, ok := recordSize(buf, off, ps, recInvert)
		if !ok || got != size || !recordCRCValid(buf, off, got) {
			t.Fatalf("encoded record frames as %d, %v (want %d)", got, ok, size)
		}
		if buf[off+1]^recInvert != flags || int(buf[off+2]) != len(key) ||
			recordValLen(buf, off, recInvert) != len(val) {
			t.Fatalf("header decodes as flags %#x keyLen %d valLen %d",
				buf[off+1]^recInvert, buf[off+2], recordValLen(buf, off, recInvert))
		}
		if k := buf[off+recHeaderSize : off+recHeaderSize+len(key)]; !bytes.Equal(k, key) {
			t.Fatalf("key %q, want %q", k, key)
		}
		if v := buf[off+recHeaderSize+len(key) : off+size-crcSize]; !bytes.Equal(v, val) {
			t.Fatalf("value %x, want %x", v, val)
		}
		torn := make([]byte, ps)
		for p := 0; p < size; p++ {
			copy(torn, buf)
			for i := off + p; i < off+size; i++ {
				torn[i] = 0xFF
			}
			if bytes.Equal(torn, buf) {
				break // the rest of the record is erased: it has landed whole
			}
			if n, ok := recordSize(torn, off, ps, recInvert); ok && recordCRCValid(torn, off, n) {
				t.Fatalf("%d-byte prefix of a %d-byte record parses as a %d-byte frame", p, size, n)
			}
		}
		flips := []int{int(flip1) % (8 * size)}
		if flip2 != 0 {
			flips = append(flips, int(flip2-1)%(8*size))
		}
		dmg := slices.Clone(buf)
		for _, b := range flips {
			dmg[off+b/8] ^= 1 << (b % 8)
		}
		var st [2]*Store
		var left [2][]byte
		for i := range st {
			m := newMemBackend(ps, 1)
			copy(m.data, dmg)
			var err error
			if st[i], err = layoutStore(m); err != nil {
				t.Fatal(err)
			}
			left[i] = slices.Clone(dmg)
		}
		size0, ok0 := st[0].oracleCheckRecord(0, left[0], off)
		size1, _, err := st[1].checkRecord(0, off, left[1][off:], "")
		if size0 != size1 || ok0 != (size1 > 0) || ok0 != (err == nil) || err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flips %v: oracle (%d, %v), check (%d, %v)", flips, size0, ok0, size1, err)
		}
		if !bytes.Equal(left[0], left[1]) {
			t.Fatalf("flips %v: bytes differ:\noracle % x\ncheck  % x", flips, left[0][off:off+size], left[1][off:off+size])
		}
		if st[0].stats != st[1].stats {
			t.Fatalf("flips %v: stats differ:\noracle %+v\ncheck  %+v", flips, st[0].stats, st[1].stats)
		}
		if len(flips) == 1 && (size1 != size || !bytes.Equal(left[1], buf)) {
			t.Fatalf("flip %d: checked as a %d-byte record, want the %d-byte original", flips[0], size1, size)
		}
	})
}

// TestLegacyFramingDifferential runs seeded Put/Delete/Get scripts, with
// remounts, against a store on the current framing and one on the legacy
// framing, on the raw device and on the FTL, with compaction, checkpoints
// and the scan index each on and off. The framing changes only which
// header bytes are programmed, so after every step both stores must agree
// on every error, the page table (so the page-open order and erases), the
// index (record offsets and sizes), the stats and the flash erase and read
// counts; and at the end the page images must match except bytes 1, 3 and
// 4 of each record, which must be complements, and its CRC trailer.
func TestLegacyFramingDifferential(t *testing.T) {
	for _, onFTL := range []bool{false, true} {
		for _, comp := range []bool{false, true} {
			for _, ckpt := range []bool{false, true} {
				for _, scan := range []bool{false, true} {
					name := fmt.Sprintf("ftl=%v/compact=%v/ckpt=%v/scan=%v", onFTL, comp, ckpt, scan)
					t.Run(name, func(t *testing.T) {
						var opts []Option
						if comp {
							opts = append(opts, WithCompaction(CompactionConfig{}))
						}
						if ckpt {
							opts = append(opts, WithCheckpoint(CheckpointConfig{SlotPages: 2, Interval: 40}))
						}
						if scan {
							opts = append(opts, WithScanIndex(scanSpec(32)))
						}
						runFramingDifferential(t, onFTL, opts)
					})
				}
			}
		}
	}
}

// framingRig is one side of the differential: a device, the backend the
// store mounts on, and the store.
type framingRig struct {
	dev  *core.Device
	b    Backend
	s    *Store
	opts []Option
}

func (r *framingRig) mount(t *testing.T, onFTL bool) {
	t.Helper()
	r.b = coreBackend{r.dev}
	if onFTL {
		f, err := ftl.Open(r.dev)
		if err != nil {
			t.Fatal(err)
		}
		r.b = f
	}
	s, err := OpenOn(r.b, r.opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
}

func runFramingDifferential(t *testing.T, onFTL bool, opts []Option) {
	spec := flash.DefaultSpec()
	spec.PageSize = 512
	spec.NumPages = 32
	spec.Banks = 2
	cur := &framingRig{dev: core.MustNewDevice(spec), opts: opts}
	old := &framingRig{dev: core.MustNewDevice(spec), opts: append(slices.Clone(opts), withLegacyFraming())}
	cur.mount(t, onFTL)
	old.mount(t, onFTL)

	rng := xrand.New(20261019)
	keys := make([]string, 14)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for step := 0; step < 500; step++ {
		k := keys[rng.Intn(len(keys))]
		var e1, e2 error
		switch r := rng.Intn(20); {
		case r < 11:
			n := rng.Intn(40)
			if rng.Intn(4) == 0 {
				n = 240 + rng.Intn(80) // straddles the 256-B length boundary
			}
			v := make([]byte, n)
			for i := range v {
				v[i] = rng.Byte()
			}
			e1, e2 = cur.s.Put(k, v), old.s.Put(k, v)
		case r < 15:
			e1, e2 = cur.s.Delete(k), old.s.Delete(k)
		case r < 19:
			var v1, v2 []byte
			v1, e1 = cur.s.Get(k)
			v2, e2 = old.s.Get(k)
			if !bytes.Equal(v1, v2) {
				t.Fatalf("step %d: Get(%q) = %x vs legacy %x", step, k, v1, v2)
			}
		default:
			cur.mount(t, onFTL)
			old.mount(t, onFTL)
		}
		if errText(e1) != errText(e2) {
			t.Fatalf("step %d: error %v vs legacy %v", step, e1, e2)
		}
		compareFramingState(t, step, cur, old)
	}
	if cur.dev.Flash().Stats().Programs >= old.dev.Flash().Stats().Programs {
		t.Errorf("current framing programmed %d bytes, legacy %d",
			cur.dev.Flash().Stats().Programs, old.dev.Flash().Stats().Programs)
	}
	compareFramingImages(t, cur, old)
}

// compareFramingState checks everything but the page images.
func compareFramingState(t *testing.T, step int, cur, old *framingRig) {
	t.Helper()
	a, b := cur.s, old.s
	same := func(what string, x, y any) {
		t.Helper()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("step %d: %s differ:\n current %v\n  legacy %v", step, what, x, y)
		}
	}
	same("page seqs", a.pageSeq, b.pageSeq)
	same("page used", a.pageUsed, b.pageUsed)
	same("page live", a.pageLive, b.pageLive)
	same("page bad", a.pageBad, b.pageBad)
	same("head", a.head, b.head)
	same("cold head", a.cold, b.cold)
	same("next seq", a.nextSeq, b.nextSeq)
	same("index", a.index, b.index)
	same("stats", a.Stats(), b.Stats())
	fa, fb := cur.dev.Flash().Stats(), old.dev.Flash().Stats()
	same("flash erases", fa.Erases, fb.Erases)
	same("flash reads", fa.Reads, fb.Reads)
	same("flash senses", fa.Senses, fb.Senses)
}

// compareFramingImages reads every backend page of both stores, walks the
// legacy image's records page by page, checks that the current image
// stores bytes 1, 3 and 4 of each as complements, masks those and the CRC
// trailer in both, and requires the rest to match byte for byte: page
// headers, record bodies, free space, checkpoint slots and scan bitmaps.
func compareFramingImages(t *testing.T, cur, old *framingRig) {
	t.Helper()
	ps, np := cur.b.PageSize(), cur.b.NumPages()
	img := func(b Backend) []byte {
		buf := make([]byte, ps*np)
		for p := 0; p < np; p++ {
			if err := b.Read(p*ps, buf[p*ps:(p+1)*ps]); err != nil {
				t.Fatal(err)
			}
		}
		return buf
	}
	ia, ib := img(cur.b), img(old.b)
	records := 0
	for p := 0; p < old.s.np; p++ {
		if old.s.pageSeq[p] == freeSeq {
			continue
		}
		base := old.s.devPage[p] * ps
		pa, pb := ia[base:base+ps], ib[base:base+ps]
		for off := pageHeaderSize; off+recHeaderSize+crcSize <= ps; {
			size, ok := recordSize(pb, off, ps, 0)
			if !ok || !recordCRCValid(pb, off, size) {
				break
			}
			for _, i := range []int{off + 1, off + 3, off + 4} {
				if pa[i] != ^pb[i] {
					t.Fatalf("page %d record at %d: byte %d = %#x, legacy %#x", p, off, i-off, pa[i], pb[i])
				}
				pa[i], pb[i] = 0, 0
			}
			for i := off + size - crcSize; i < off+size; i++ {
				pa[i], pb[i] = 0, 0
			}
			records++
			off += size
		}
	}
	if records == 0 {
		t.Fatal("no records found in the legacy image")
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("page images differ first at backend page %d offset %d: %#x vs legacy %#x",
				i/ps, i%ps, ia[i], ib[i])
		}
	}
}
