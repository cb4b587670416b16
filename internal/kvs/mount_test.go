package kvs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

// flickerBackend flips two bits of one header byte on the first read that
// covers it, as a marginal cell's flicker would on one sense: past
// single-bit repair on that read, intact on every later one.
type flickerBackend struct {
	*memBackend
	addr  int // the flickering byte
	fired bool
}

func (f *flickerBackend) Read(addr int, dst []byte) error {
	if err := f.memBackend.Read(addr, dst); err != nil {
		return err
	}
	if !f.fired && addr <= f.addr && f.addr < addr+len(dst) {
		dst[f.addr-addr] ^= 0x03
		f.fired = true
	}
	return nil
}

// TestMountResensesFlickeringHeader is the regression for a header read
// that flickers once: both mount kinds must re-sense it before quarantining
// the page. A checkpointed mount that took the first read's verdict dropped
// the page's entries from the checkpoint's index and lost its keys.
func TestMountResensesFlickeringHeader(t *testing.T) {
	for _, scanOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("scanOnly=%v", scanOnly), func(t *testing.T) {
			m := newMemBackend(128, 32)
			cfg := CheckpointConfig{SlotPages: 6}
			s, err := OpenOn(m, WithCheckpoint(cfg))
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][]byte{}
			for i := 0; i < 20; i++ {
				k, v := fmt.Sprintf("key%02d", i), bytes.Repeat([]byte{byte(i)}, 20)
				if err := s.Put(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			cfg.ScanOnly = scanOnly
			fb := &flickerBackend{memBackend: m, addr: s.pageBase(0)}
			r, err := OpenOn(fb, WithCheckpoint(cfg))
			if err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			if !fb.fired {
				t.Fatal("the mount never read page 0's header")
			}
			if scanOnly && st.ScanMounts != 1 || !scanOnly && st.CheckpointMounts != 1 {
				t.Fatalf("mount stats = %+v: wrong mount kind", st)
			}
			if st.SenseRecovered < 1 || st.QuarantinedPages != 0 {
				t.Errorf("SenseRecovered = %d, QuarantinedPages = %d; want the re-sense to save the page",
					st.SenseRecovered, st.QuarantinedPages)
			}
			for k, v := range want {
				if got, err := r.Get(k); err != nil || !bytes.Equal(got, v) {
					t.Errorf("Get(%q) = %q, %v; want %q", k, got, err, v)
				}
			}
		})
	}
}

// readLog is a memBackend that records the bytes each read covered.
type readLog struct {
	*memBackend
	read []int // bytes read, per address
}

func (r *readLog) Read(addr int, dst []byte) error {
	for i := range dst {
		if a := addr + i; a >= 0 && a < len(r.read) {
			r.read[a]++
		}
	}
	return r.memBackend.Read(addr, dst)
}

// bytesRead sums the bytes read in [from, to).
func (r *readLog) bytesRead(from, to int) int {
	n := 0
	for _, c := range r.read[from:to] {
		n += c
	}
	return n
}

// twoCheckpointImage returns a fuzz-geometry image holding two checkpoint
// generations — the older in slot 1, the newer in slot 0 — and a tail
// written past the newer one, plus the backend address of each slot.
func twoCheckpointImage(t *testing.T) (*memBackend, [2]int) {
	t.Helper()
	m := newMemBackend(fuzzPS, fuzzNP)
	s, err := OpenOn(m, WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots}))
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 6; i++ {
			if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(gen), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if gen < 2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.ckpt.lastSlot != 0 || s.ckpt.cpSeq != 2 {
		t.Fatalf("newest checkpoint in slot %d with cpSeq %d, want slot 0, cpSeq 2", s.ckpt.lastSlot, s.ckpt.cpSeq)
	}
	return m, [2]int{s.ckpt.slotBase[0] * fuzzPS, s.ckpt.slotBase[1] * fuzzPS}
}

// editBlob applies edit to the checkpoint blob at addr; with reCRC it then
// recomputes the blob's CRC, so the edit passes the CRC check.
func editBlob(m *memBackend, addr int, reCRC bool, edit func(blob []byte)) {
	blob := m.data[addr : addr+int(binary.LittleEndian.Uint32(m.data[addr+6:]))]
	edit(blob)
	if reCRC {
		binary.LittleEndian.PutUint32(blob[len(blob)-crcSize:], crc32.ChecksumIEEE(blob[:len(blob)-crcSize]))
	}
}

// TestLoadCheckpointMatchesReference checks the newest-first loader against
// the read-both-slots reference on the image it picks, the nextSeq floor,
// the slot rotation and the checkpoint sequence, and checks that it reads
// the older slot's blob only when it must.
func TestLoadCheckpointMatchesReference(t *testing.T) {
	const higherSeq = 5000
	cases := []struct {
		name string
		// damage edits the image; slots holds the two slots' addresses.
		damage func(m *memBackend, slots [2]int)
		// Expectations of the new loader: the slot it takes (-1: none), the
		// floor (0: the taken image's nextSeq), and whether the older slot's
		// blob is read past its header.
		slot      int
		floor     uint32
		readOlder bool
	}{
		{name: "both valid", damage: func(*memBackend, [2]int) {}, slot: 0},
		{
			name: "newest corrupted, older valid",
			damage: func(m *memBackend, slots [2]int) {
				editBlob(m, slots[0], false, func(b []byte) { b[ckptHdrSize] ^= 0x10 })
			},
			slot: 1, readOlder: true,
		},
		{
			name: "older claims a higher nextSeq",
			damage: func(m *memBackend, slots [2]int) {
				editBlob(m, slots[1], true, func(b []byte) { binary.LittleEndian.PutUint32(b[18:], higherSeq) })
			},
			slot: 0, floor: higherSeq, readOlder: true,
		},
		{
			name: "older claims a higher nextSeq, torn",
			damage: func(m *memBackend, slots [2]int) {
				editBlob(m, slots[1], false, func(b []byte) { binary.LittleEndian.PutUint32(b[18:], higherSeq) })
			},
			slot: 0, readOlder: true,
		},
		{
			name: "both torn",
			damage: func(m *memBackend, slots [2]int) {
				for _, a := range slots {
					editBlob(m, a, false, func(b []byte) { b[len(b)-1] ^= 0x01 })
				}
			},
			slot: -1, readOlder: true,
		},
		{
			name: "no checkpoint",
			damage: func(m *memBackend, slots [2]int) {
				for _, a := range slots {
					m.data[a] = 0
				}
			},
			slot: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, slots := twoCheckpointImage(t)
			tc.damage(m, slots)
			compareLoaders(t, m)

			rl := &readLog{memBackend: m.clone(), read: make([]int, len(m.data))}
			s, err := layoutStore(rl, WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots}))
			if err != nil {
				t.Fatal(err)
			}
			img, floor, err := s.loadCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.slot < 0 && img != nil:
				t.Fatalf("loaded cpSeq %d, want no image", img.cpSeq)
			case tc.slot >= 0 && (img == nil || s.ckpt.lastSlot != tc.slot):
				t.Fatalf("loaded %v from slot %d, want slot %d", img != nil, s.ckpt.lastSlot, tc.slot)
			}
			want := tc.floor
			if want == 0 && img != nil {
				want = img.nextSeq
			}
			if floor != want {
				t.Errorf("floor = %d, want %d", floor, want)
			}
			slotBytes := fuzzSlots * fuzzPS
			older := rl.bytesRead(slots[1], slots[1]+slotBytes) > ckptHdrSize
			if older != tc.readOlder {
				t.Errorf("older slot's blob read = %v, want %v", older, tc.readOlder)
			}

			r, err := OpenOn(m.clone(), WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots}))
			if err != nil {
				t.Fatal(err)
			}
			if tc.slot < 0 && r.Stats().ScanMounts != 1 || tc.slot >= 0 && r.Stats().CheckpointMounts != 1 {
				t.Errorf("mount stats = %+v", r.Stats())
			}
			if r.nextSeq < floor {
				t.Errorf("mount nextSeq %d below the floor %d", r.nextSeq, floor)
			}
			for i := 0; i < 6; i++ {
				if got, err := r.Get(fmt.Sprintf("k%d", i)); err != nil || !bytes.Equal(got, []byte{2, byte(i)}) {
					t.Errorf("Get(k%d) = %v, %v", i, got, err)
				}
			}
		})
	}
}

// TestCheckpointRejectsUnsortedKeys: the encoder emits keys in ascending
// order, so a blob whose keys are out of order is rejected even when its
// CRC holds — and the mount scans instead, losing nothing.
func TestCheckpointRejectsUnsortedKeys(t *testing.T) {
	m, slots := twoCheckpointImage(t)
	np := fuzzNP - 2*fuzzSlots
	editBlob(m, slots[0], true, func(b []byte) {
		off := ckptHdrSize + np*ckptPageSize
		l1 := int(b[off]) + ckptKeyFixed
		l2 := int(b[off+l1]) + ckptKeyFixed
		pair := append(append([]byte(nil), b[off+l1:off+l1+l2]...), b[off:off+l1]...)
		copy(b[off:], pair)
	})
	editBlob(m, slots[1], false, func(b []byte) { b[len(b)-1] ^= 0x01 })
	ref, err := layoutStore(m.clone(), WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots}))
	if err != nil {
		t.Fatal(err)
	}
	// The reference reader only refused duplicate keys, so it takes the
	// swapped blob: key order is all the edit broke.
	if img, err := ref.readWholeSlot(0); err != nil || img == nil {
		t.Fatalf("reference reader rejects the swapped blob (%v): the edit broke more than key order", err)
	}
	r, err := OpenOn(m.clone(), WithCheckpoint(CheckpointConfig{SlotPages: fuzzSlots}))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.ScanMounts != 1 || st.CheckpointMounts != 0 {
		t.Fatalf("mount stats = %+v, want the unsorted blob rejected and a scan mount", st)
	}
	for i := 0; i < 6; i++ {
		if got, err := r.Get(fmt.Sprintf("k%d", i)); err != nil || !bytes.Equal(got, []byte{2, byte(i)}) {
			t.Errorf("Get(k%d) = %v, %v", i, got, err)
		}
	}
}
