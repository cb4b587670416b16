package ftl

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// journalSpec: small geometry so a crash sweep covers every protocol step
// quickly. Layout solves to 12 data pages + spare + intent + 2×1 map slots.
func journalSpec() flash.Spec {
	s := flash.DefaultSpec()
	s.PageSize = 32
	s.NumPages = 16
	s.Banks = 1
	return s
}

func TestComputeLayout(t *testing.T) {
	lay, err := computeLayout(32, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lay.nl != 12 || lay.spare != 12 || lay.intent != 13 || lay.mapPages != 1 {
		t.Errorf("unexpected layout: %+v", lay)
	}
	if lay.slot[0] != 14 || lay.slot[1] != 15 {
		t.Errorf("unexpected slots: %+v", lay.slot)
	}
	if _, err := computeLayout(32, 3, 0); err == nil {
		t.Error("want error for a device too small to journal")
	}

	// Reserving spares shrinks the logical space and appends the pool after
	// the checkpoint slots.
	lay, err = computeLayout(32, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lay.nl != 10 || lay.poolBase != 14 || lay.spares != 2 {
		t.Errorf("unexpected spared layout: %+v", lay)
	}
	if lay.poolBase+lay.spares != 16 {
		t.Errorf("pool overruns device: %+v", lay)
	}
	if _, err := computeLayout(32, 16, 13); err == nil {
		t.Error("want error when spares leave no room for data")
	}
}

// fillPages writes a distinct pattern to every logical page and returns the
// expected images.
func fillPages(t *testing.T, f *FTL) [][]byte {
	t.Helper()
	ps := f.PageSize()
	want := make([][]byte, f.NumPages())
	for lp := range want {
		buf := make([]byte, ps)
		for i := range buf {
			buf[i] = byte(lp*31 + i)
		}
		if err := f.Write(lp*ps, buf); err != nil {
			t.Fatalf("fill page %d: %v", lp, err)
		}
		want[lp] = buf
	}
	return want
}

// checkPages asserts every logical page still reads back its expected image.
func checkPages(t *testing.T, f *FTL, want [][]byte) {
	t.Helper()
	ps := f.PageSize()
	got := make([]byte, ps)
	for lp := range want {
		if err := f.Read(lp*ps, got); err != nil {
			t.Fatalf("read page %d: %v", lp, err)
		}
		for i := range got {
			if got[i] != want[lp][i] {
				t.Fatalf("page %d byte %d: got %02x want %02x", lp, i, got[i], want[lp][i])
			}
		}
	}
}

func TestOpenFreshAndRemount(t *testing.T) {
	dev := core.MustNewDevice(journalSpec())
	f, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 12 {
		t.Fatalf("logical pages = %d, want 12", f.NumPages())
	}
	want := fillPages(t, f)
	checkPages(t, f, want)

	f2, err := Open(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	checkPages(t, f2, want)
}

func TestJournalSwapSurvivesRemount(t *testing.T) {
	dev := core.MustNewDevice(journalSpec())
	f, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	want := fillPages(t, f)
	if err := f.journalSwap(f.l2p[0], f.l2p[7]); err != nil {
		t.Fatal(err)
	}
	if err := f.journalSwap(f.l2p[3], f.l2p[9]); err != nil {
		t.Fatal(err)
	}
	checkPages(t, f, want) // logical view unchanged by swaps
	if f.Stats().Swaps != 2 || f.Stats().Checkpoints < 3 {
		t.Errorf("stats: %+v", f.Stats())
	}

	f2, err := Open(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	checkPages(t, f2, want)
	for lp := range f.l2p {
		if f.l2p[lp] != f2.l2p[lp] {
			t.Errorf("map not recovered: l2p[%d] %d vs %d", lp, f.l2p[lp], f2.l2p[lp])
		}
	}
}

// TestSwapCrashSweep is the protocol's proof by exhaustion: inject a power
// loss at every possible state-changing operation inside a swap and verify
// that after remount every logical page still reads its committed data —
// the swap either fully landed or fully rolled back.
func TestSwapCrashSweep(t *testing.T) {
	survivedAll := false
	for skip := 0; skip < 400; skip++ {
		dev := core.MustNewDevice(journalSpec())
		f, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		want := fillPages(t, f)

		dev.Flash().InjectPowerLoss(skip)
		err = f.journalSwap(f.l2p[2], f.l2p[10])
		if err != nil && !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("skip %d: unexpected error %v", skip, err)
		}
		if err == nil {
			// The whole swap fit under the skip budget; nothing to
			// recover. Once this happens every larger skip is the same.
			dev.Flash().ClearFaults()
			survivedAll = true
			checkPages(t, f, want)
			break
		}
		dev.Flash().ClearFaults()

		f2, err := Open(dev)
		if err != nil {
			t.Fatalf("skip %d: remount failed: %v", skip, err)
		}
		checkPages(t, f2, want)
		// A crash inside the intent append leaves a torn intent (nothing
		// to settle), and a crash on the checkpoint's final bits can be
		// healed by single-bit repair (already settled) — so zero or one
		// settlement, never more.
		st := f2.Stats()
		if st.RolledForward+st.RolledBack > 1 {
			t.Errorf("skip %d: recovery settled more than one intent: %+v", skip, st)
		}
		// The recovered FTL must be fully usable.
		if err := f2.Write(0, []byte{1, 2, 3, 4}); err != nil {
			t.Fatalf("skip %d: post-recovery write: %v", skip, err)
		}
	}
	if !survivedAll {
		t.Error("sweep never reached the fault-free completion point; raise the skip range")
	}
}

// TestCrashDuringRecovery: power loss while the mount is repairing an
// earlier interrupted swap. Recovery must be idempotent — a later clean
// mount still lands in a consistent state.
func TestCrashDuringRecovery(t *testing.T) {
	for firstSkip := 0; firstSkip < 120; firstSkip += 7 {
		for secondSkip := 0; secondSkip < 40; secondSkip += 3 {
			dev := core.MustNewDevice(journalSpec())
			f, err := Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			want := fillPages(t, f)

			dev.Flash().InjectPowerLoss(firstSkip)
			if err := f.journalSwap(f.l2p[1], f.l2p[8]); err == nil {
				dev.Flash().ClearFaults()
				continue // swap completed; no recovery to interrupt
			}
			dev.Flash().ClearFaults()

			// Crash again during the recovery mount.
			dev.Flash().InjectPowerLoss(secondSkip)
			if _, err := Open(dev); err != nil && !errors.Is(err, flash.ErrPowerLoss) {
				t.Fatalf("skips %d/%d: unexpected mount error %v", firstSkip, secondSkip, err)
			}
			dev.Flash().ClearFaults()

			f3, err := Open(dev)
			if err != nil {
				t.Fatalf("skips %d/%d: final mount failed: %v", firstSkip, secondSkip, err)
			}
			checkPages(t, f3, want)
		}
	}
}

// TestIntentLogReclaim: enough swaps to overflow the intent page must
// recycle it instead of failing.
func TestIntentLogReclaim(t *testing.T) {
	dev := core.MustNewDevice(journalSpec())
	f, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	want := fillPages(t, f)
	// 32-byte intent page holds one 21-byte record; every swap past the
	// first needs a reclaim.
	for i := 0; i < 6; i++ {
		if err := f.journalSwap(f.l2p[i], f.l2p[11-i]); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	if f.Stats().IntentErases == 0 {
		t.Error("intent log never reclaimed")
	}
	checkPages(t, f, want)
	f2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	checkPages(t, f2, want)
}

// TestParseIntentsRejectsCorrupt: mount-time parsing keeps a valid swap
// intent, repairs a single flipped bit, and ends the log at a record it
// cannot trust — torn beyond repair, or naming one page twice, which no
// protocol writes.
func TestParseIntentsRejectsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a, b    int
		clear   byte // bits cleared in the record's magic byte (0xF7)
		want    int  // records parsed
		correct uint64
	}{
		{name: "swap", a: 1, b: 2, want: 1},
		{name: "single-bit flip", a: 1, b: 2, clear: 0x80, want: 1, correct: 1},
		{name: "two-bit flip", a: 1, b: 2, clear: 0xC0},
		{name: "a == b", a: 3, b: 3},
	} {
		dev := core.MustNewDevice(journalSpec())
		f, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.appendIntent(intentRec{seq: f.mapSeq + 1, a: tc.a, b: tc.b}); err != nil {
			t.Fatal(err)
		}
		fl := dev.Flash()
		if tc.clear != 0 {
			if err := fl.ProgramByte(fl.PageBase(f.lay.intent), intentMagic&^tc.clear); err != nil {
				t.Fatal(err)
			}
		}
		recs, end := f.parseIntents()
		if len(recs) != tc.want || end != intentRecSize {
			t.Errorf("%s: parsed %d records ending at %d, want %d ending at %d",
				tc.name, len(recs), end, tc.want, intentRecSize)
		}
		if got := f.Stats().CorrectedBits; got != tc.correct {
			t.Errorf("%s: CorrectedBits = %d, want %d", tc.name, got, tc.correct)
		}
	}
}
