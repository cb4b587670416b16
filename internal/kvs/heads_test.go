package kvs

import (
	"bytes"
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
)

// cutErase is a memBackend whose erase of one page fails with a power loss
// and leaves the page as it was: the cut between a compaction's copies and
// its victim erase.
type cutErase struct {
	*memBackend
	page int
}

func (c cutErase) ErasePage(p int) error {
	if p == c.page {
		return flash.ErrPowerLoss
	}
	return c.memBackend.ErasePage(p)
}

// mustGet fails the test unless key reads back as want.
func mustGet(t *testing.T, s *Store, tag, key string, want []byte) {
	t.Helper()
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("%s: get %q: %v", tag, key, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %q = %v, want %v", tag, key, got, want)
	}
}

// TestOrderRuleKeepsNewestRecordLast copies key k to the cold head after
// the hot head opened, so the copy sits on a page whose seq is above the
// hot head's. A Put of k must then leave the hot head for a page whose seq
// is at least the copy's; on the hot head, mount would replay the stale
// copy last and serve the old value. Both mount paths must read the new
// value, and so must a store cut between the copy and the victim erase.
func TestOrderRuleKeepsNewestRecordLast(t *testing.T) {
	opts := func(scanOnly bool) []Option {
		return []Option{WithCheckpoint(CheckpointConfig{SlotPages: 3, ScanOnly: scanOnly})}
	}
	open := func(b Backend, scanOnly bool) *Store {
		t.Helper()
		s, err := OpenOn(b, opts(scanOnly)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	put := func(s *Store, key string, val []byte) {
		t.Helper()
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	// 34-byte records, three to a 128-byte page.
	v1, v2 := bytes.Repeat([]byte{1}, 24), bytes.Repeat([]byte{2}, 24)
	va, vc := bytes.Repeat([]byte{0xA}, 24), bytes.Repeat([]byte{0xC}, 24)

	m := newMemBackend(128, 20)
	s := open(m, false)
	put(s, "k", v1)
	put(s, "a", va)
	put(s, "a", va) // fills the first page: k and a live, one stale a
	put(s, "c", vc) // opens the second page as the hot head
	victim := s.index["k"].page
	if s.head == victim || s.cold != -1 {
		t.Fatalf("setup: head %d, cold %d, victim %d", s.head, s.cold, victim)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	beforeCopy := m.clone()

	if err := s.compactPage(victim); err != nil {
		t.Fatal(err)
	}
	hot, copied := s.head, s.index["k"]
	copiedSeq := s.pageSeq[copied.page]
	if copied.page != s.cold || s.pageSeq[hot] >= copiedSeq {
		t.Fatalf("setup: copy of k on page %d (seq %d), cold head %d, hot head %d (seq %d)",
			copied.page, copiedSeq, s.cold, hot, s.pageSeq[hot])
	}
	put(s, "k", v2)
	loc := s.index["k"]
	if loc.page == hot || s.pageSeq[loc.page] < copiedSeq {
		t.Fatalf("Put k landed on page %d (seq %d); hot head %d, cold copy's seq %d",
			loc.page, s.pageSeq[loc.page], hot, copiedSeq)
	}
	// The rule turned the Put away from the hot head, which had room; the
	// cold head took it along with the two GC copies.
	if st := s.Stats(); st.OrderRedirects != 1 || st.ColdAppends != 3 {
		t.Fatalf("OrderRedirects %d, ColdAppends %d; want 1 and 3", st.OrderRedirects, st.ColdAppends)
	}
	mounts := []struct {
		name       string
		scanOnly   bool
		ckptMounts uint64
	}{{"scan mount", true, 0}, {"checkpoint mount", false, 1}}
	for _, mt := range mounts {
		r := open(m.clone(), mt.scanOnly)
		if got := r.Stats().CheckpointMounts; got != mt.ckptMounts {
			t.Fatalf("%s: %d checkpoint mounts, want %d", mt.name, got, mt.ckptMounts)
		}
		mustGet(t, r, mt.name, "k", v2)
		mustGet(t, r, mt.name, "a", va)
		mustGet(t, r, mt.name, "c", vc)
		if r.cold != -1 {
			t.Fatalf("%s: mount kept a cold head (%d)", mt.name, r.cold)
		}
	}

	// The same copy, cut by a power loss before the victim erase: the
	// victim keeps k's old record beside the copy. After a remount the
	// new value still wins, on both mount paths.
	for _, mt := range mounts {
		img := beforeCopy.clone()
		c := open(cutErase{img, victim}, mt.scanOnly)
		if err := c.compactPage(victim); !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("%s: compaction with a cut erase: %v", mt.name, err)
		}
		r := open(img, mt.scanOnly)
		mustGet(t, r, mt.name+" after the cut", "k", v1)
		put(r, "k", v2)
		r = open(img, mt.scanOnly)
		mustGet(t, r, mt.name+" after the cut and a Put", "k", v2)
		mustGet(t, r, mt.name+" after the cut and a Put", "a", va)
		mustGet(t, r, mt.name+" after the cut and a Put", "c", vc)
	}
}

// TestColdKeysAppendToColdHead: a Put of a key whose record was appended
// more than np/coldWindowDivisor page opens ago goes to the cold head, a
// new key to the hot head, and a recently written key follows its record
// onto the cold head when the hot head is older than it.
func TestColdKeysAppendToColdHead(t *testing.T) {
	m := newMemBackend(128, 16)
	s, err := OpenOn(m)
	if err != nil {
		t.Fatal(err)
	}
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 24) }
	put := func(key string, v []byte) location {
		t.Helper()
		if err := s.Put(key, v); err != nil {
			t.Fatal(err)
		}
		return s.index[key]
	}
	put("old", val(1))
	for i := 0; int(s.nextSeq-s.pageSeq[s.index["old"].page]) <= s.np/coldWindowDivisor; i++ {
		put(string(rune('a'+i)), val(byte(i)))
	}
	if loc := put("old", val(2)); loc.page != s.cold || s.cold == s.head {
		t.Fatalf("old key landed on page %d; cold head %d, hot head %d", loc.page, s.cold, s.head)
	}
	if loc := put("new", val(3)); loc.page != s.head {
		t.Fatalf("new key landed on page %d; hot head %d", loc.page, s.head)
	}
	if st := s.Stats(); st.ColdAppends != 1 || st.OrderRedirects != 0 {
		t.Fatalf("ColdAppends %d, OrderRedirects %d; want 1 and 0", st.ColdAppends, st.OrderRedirects)
	}
	// "old" is recent now, so it prefers the hot head, whose seq is below
	// its record's: the rule sends it to the cold head.
	if loc := put("old", val(4)); loc.page != s.cold {
		t.Fatalf("recent key landed on page %d; cold head %d", loc.page, s.cold)
	}
	if st := s.Stats(); st.ColdAppends != 2 || st.OrderRedirects != 1 {
		t.Fatalf("ColdAppends %d, OrderRedirects %d; want 2 and 1", st.ColdAppends, st.OrderRedirects)
	}
	// Compacting the cold head itself: its copies must land above it, not
	// back on the page about to be erased.
	victim, victimSeq := s.cold, s.pageSeq[s.cold]
	if err := s.compactPage(victim); err != nil {
		t.Fatal(err)
	}
	if s.isHead(victim) || s.pageSeq[s.index["old"].page] <= victimSeq {
		t.Fatalf("after compacting cold head %d: heads %d/%d, old on page %d", victim, s.head, s.cold, s.index["old"].page)
	}
	mustGet(t, s, "after compacting the cold head", "old", val(4))
	r, err := OpenOn(m)
	if err != nil {
		t.Fatal(err)
	}
	mustGet(t, r, "remount", "old", val(4))
	mustGet(t, r, "remount", "new", val(3))
}
