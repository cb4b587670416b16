package isc

import (
	"bytes"
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// fillIndex adds a random bucket per field to every slot.
func fillIndex(t *testing.T, ix *Index, rng *xrand.RNG) {
	t.Helper()
	for _, f := range ix.cfg.Fields {
		for slot := 0; slot < ix.Slots(); slot++ {
			if err := ix.Add(slot, f.Name, rng.Intn(f.Buckets)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// loadResult loads a fresh Index over dev and returns its verdict.
func loadResult(t *testing.T, dev *flash.Device, cfg IndexConfig) LoadResult {
	t.Helper()
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Load()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIndexLoadKeepsSealedBitmaps: a fresh Index over a sealed region
// reloads its mirror from the array with one single-page sense per bitmap
// page and no erase or read, bits no Add made included, so later Adds
// stay erase-free programs and queries agree with the host-read oracle.
func TestIndexLoadKeepsSealedBitmaps(t *testing.T) {
	dev := testDevice(t)
	cfg := testIndexConfig()
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0x10AD)
	fillIndex(t, ix, rng)
	if err := ix.Seal(); err != nil {
		t.Fatal(err)
	}
	// Foreign bits: whole bitmap bytes programmed to 0 behind the index's
	// back, as a torn program or stray write would leave them.
	for i := 0; i < 12; i++ {
		b, c := rng.Intn(ix.r.n), rng.Intn(ix.r.chunkPages)
		addr := ix.r.page(b, c)*cfg.PageSize + rng.Intn(ix.r.chunkLen(c))
		if err := dev.ProgramByte(addr, 0); err != nil {
			t.Fatal(err)
		}
	}

	kept, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	res, err := kept.Load()
	if err != nil || res != Loaded {
		t.Fatalf("Load = %d, %v; want Loaded", res, err)
	}
	d := dev.Stats().Sub(before)
	pages := uint64(ix.r.n * ix.r.chunkPages)
	if d.Erases != 0 || d.Reads != 0 || d.Programs != 0 || d.Senses != pages+1 || d.PagesSensed != pages+1 {
		t.Fatalf("Load op stream %+v; want %d single-page senses (header and bitmaps) and nothing else", d, pages+1)
	}
	page := make([]byte, cfg.PageSize)
	for b := 0; b < ix.r.n; b++ {
		for c := 0; c < ix.r.chunkPages; c++ {
			dev.PeekPage(ix.r.page(b, c), page)
			m := (b*ix.r.chunkPages + c) * cfg.PageSize
			if !bytes.Equal(kept.r.mirror[m:m+cfg.PageSize], page) {
				t.Fatalf("bitmap %d chunk %d: mirror differs from the array", b, c)
			}
		}
	}

	before = dev.Stats()
	fillIndex(t, kept, rng)
	if d := dev.Stats().Sub(before); d.Erases != 0 {
		t.Fatalf("adds after Load erased %d pages", d.Erases)
	}
	got := make([]byte, kept.BitmapBytes())
	want := make([]byte, kept.BitmapBytes())
	for trial := 0; trial < 100; trial++ {
		p := randomPred(rng, 3)
		if err := kept.Query(p, got); err != nil {
			t.Fatal(err)
		}
		if err := kept.QueryHost(dev, p, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d %s: kept index disagrees with the host oracle", trial, p)
		}
	}
}

// TestIndexLoadVerdicts walks the header through every state a remount
// can find it in.
func TestIndexLoadVerdicts(t *testing.T) {
	dev := testDevice(t)
	cfg := testIndexConfig()
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string, want LoadResult) {
		t.Helper()
		if got := loadResult(t, dev, cfg); got != want {
			t.Fatalf("%s: Load = %d, want %d", name, got, want)
		}
	}
	step("fresh device", NoHeader)
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	step("reset, not sealed", NoHeader)
	if err := ix.Seal(); err != nil {
		t.Fatal(err)
	}
	step("sealed", Loaded)
	if err := dev.ProgramByte(ix.DivergedFlag(), 0); err != nil {
		t.Fatal(err)
	}
	step("diverged", SlotsDiverged)
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Seal(); err != nil {
		t.Fatal(err)
	}
	step("resealed", Loaded)

	// Same layout, other schema or slot count: the digest tells them apart.
	renamed := testIndexConfig()
	renamed.Fields[1].Name = "zone"
	fewer := testIndexConfig()
	fewer.Slots--
	for _, other := range []IndexConfig{renamed, fewer} {
		if other.Pages() != cfg.Pages() {
			t.Fatalf("test config changes the layout: %d pages, want %d", other.Pages(), cfg.Pages())
		}
		if got := loadResult(t, dev, other); got != ConfigChanged {
			t.Fatalf("%+v: Load = %d, want ConfigChanged", other, got)
		}
	}
}

// TestIndexSealCutLeavesNoHeader: a seal cut at any of its programs
// leaves a header Load rejects, unless the cut tore the magic byte, the
// last one, all the way to its value.
func TestIndexSealCutLeavesNoHeader(t *testing.T) {
	dev := testDevice(t)
	cfg := testIndexConfig()
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := 0
	for cut := 0; ; cut++ {
		if err := ix.Reset(); err != nil {
			t.Fatal(err)
		}
		dev.InjectPowerLoss(cut)
		err := ix.Seal()
		dev.ClearFaults()
		if err == nil {
			break
		}
		if !errors.Is(err, flash.ErrPowerLoss) {
			t.Fatalf("cut %d: %v", cut, err)
		}
		cuts++
		want := NoHeader
		if dev.Peek(ix.hdr+hdrMagic) == headerMagic {
			want = Loaded // the torn pulse was the last one, and it landed
		}
		if got := loadResult(t, dev, cfg); got != want {
			t.Fatalf("cut %d: Load = %d, want %d", cut, got, want)
		}
	}
	if cuts == 0 {
		t.Fatal("no cut landed inside Seal")
	}
	if got := loadResult(t, dev, cfg); got != Loaded {
		t.Fatalf("uncut seal: Load = %d", got)
	}
}

// TestIndexHeaderPlacement: the header takes the tail of bitmap 0's last
// chunk when six bytes are free there, so it costs no page and Reset
// erases it first; otherwise it gets a page of its own past the bitmaps,
// which Pages counts, SparePages leaves out and Reset erases first too.
func TestIndexHeaderPlacement(t *testing.T) {
	cases := []struct {
		slots     int
		pages     int
		hdrOffset int // header address relative to the region's first byte
	}{
		// 16 B pages, 2 banks, 7 bitmaps of 2 chunks on a 2-page stride.
		{slots: 208, pages: 14, hdrOffset: 1*16 + 10}, // 10 B in the last chunk: 6 free
		{slots: 216, pages: 15, hdrOffset: 14 * 16},   // 11 B: 5 free
		{slots: 256, pages: 15, hdrOffset: 14 * 16},   // exact fit
	}
	for _, tc := range cases {
		dev := testDevice(t)
		cfg := testIndexConfig()
		cfg.Slots = tc.slots
		cfg.FirstPage = 2
		if got := cfg.Pages(); got != tc.pages {
			t.Fatalf("%d slots: %d region pages, want %d", tc.slots, got, tc.pages)
		}
		ix, err := NewIndex(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.hdr - cfg.FirstPage*cfg.PageSize; got != tc.hdrOffset {
			t.Fatalf("%d slots: header at region byte %d, want %d", tc.slots, got, tc.hdrOffset)
		}
		if len(ix.SparePages()) != 0 {
			t.Fatalf("%d slots: spare pages %v on a padding-free stride", tc.slots, ix.SparePages())
		}
		var erased []int
		detach := dev.Attach(flash.ObserverFunc(func(e flash.OpEvent) {
			if e.Kind == flash.OpErase {
				erased = append(erased, e.Addr)
			}
		}))
		err = ix.Reset()
		detach()
		if err != nil {
			t.Fatal(err)
		}
		if len(erased) != tc.pages || erased[0] != ix.hdr/cfg.PageSize {
			t.Fatalf("%d slots: Reset erased %v; want %d pages, header page %d first",
				tc.slots, erased, tc.pages, ix.hdr/cfg.PageSize)
		}
		fillIndex(t, ix, xrand.New(uint64(tc.slots)))
		if err := ix.Seal(); err != nil {
			t.Fatal(err)
		}
		if got := loadResult(t, dev, cfg); got != Loaded {
			t.Fatalf("%d slots: Load = %d after Seal", tc.slots, got)
		}
		if err := dev.ProgramByte(ix.DivergedFlag(), 0); err != nil {
			t.Fatal(err)
		}
		if got := loadResult(t, dev, cfg); got != SlotsDiverged {
			t.Fatalf("%d slots: Load = %d after programming the diverged flag", tc.slots, got)
		}
	}
}
