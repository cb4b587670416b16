package bench

import (
	"fmt"
	"math"
	"slices"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/compress"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/kvs"
	"github.com/flipbit-sim/flipbit/internal/rival"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// smallSpec is a compact part used by the extension experiments.
func smallSpec(pages int) flash.Spec {
	s := flash.DefaultSpec()
	s.NumPages = pages
	return s
}

// ExpRelated compares FlipBit against the §VII erase-reduction families on
// a shared workload: persisting a drifting 64-byte sensor record, many
// times over.
func ExpRelated(cfg Config) (*Table, error) {
	records := 3000
	if cfg.Quick {
		records = 600
	}
	const recSize = 64

	// The drifting record stream (identical for every technique).
	makeStream := func() func() []byte {
		rng := xrand.New(404)
		rec := make([]byte, recSize)
		for i := range rec {
			rec[i] = rng.Byte()
		}
		return func() []byte {
			for i := range rec {
				rec[i] = byte(int(rec[i]) + rng.Intn(5) - 2)
			}
			out := make([]byte, recSize)
			copy(out, rec)
			return out
		}
	}

	t := &Table{
		ID:    "exp-related",
		Title: "erase-reduction techniques on a drifting sensor record (§VII)",
		Columns: []string{"technique", "erases", "flash energy", "footprint",
			"exact?", "mean |error|"},
	}

	// Naive in-place exact writes.
	{
		dev := core.MustNewDevice(smallSpec(16))
		next := makeStream()
		for i := 0; i < records; i++ {
			if err := dev.Write(0, next()); err != nil {
				return nil, err
			}
		}
		st := dev.Flash().Stats()
		t.AddRow("in-place exact", fmt.Sprintf("%d", st.Erases), st.Energy.String(),
			"1.0×", "yes", "0")
	}

	// Log-structured / masked-overwrite appending [25].
	{
		dev := core.MustNewDevice(smallSpec(16))
		lw, err := rival.NewLogWriter(dev, 0, recSize)
		if err != nil {
			return nil, err
		}
		next := makeStream()
		for i := 0; i < records; i++ {
			if _, err := lw.Append(next()); err != nil {
				return nil, err
			}
		}
		st := dev.Flash().Stats()
		t.AddRow("log-structured [25]", fmt.Sprintf("%d", st.Erases), st.Energy.String(),
			"1.0×*", "yes", "0")
	}

	// Rivest–Shamir WOM coding [39,57,58,98].
	{
		dev := core.MustNewDevice(smallSpec(16))
		w := rival.NewWOM(dev, 0)
		buf := make([]byte, w.Capacity())
		next := makeStream()
		for i := 0; i < records; i++ {
			copy(buf, next())
			if err := w.Write(buf); err != nil {
				return nil, err
			}
		}
		st := dev.Flash().Stats()
		t.AddRow("WOM ⟨2,2⟩ code", fmt.Sprintf("%d", st.Erases), st.Energy.String(),
			"1.5×", "yes", "0")
	}

	// Temporal-delta + static-Huffman compression over a byte-level
	// append log [45,65,72]. Each record is stored as its bytewise
	// difference from the previous record, entropy coded with a shared
	// table; fewer bytes per record stretch each page across more
	// records before its erase.
	{
		dev := core.MustNewDevice(smallSpec(16))
		fl := dev.Flash()
		// Train the shared table on a prefix of the stream.
		trainNext := makeStream()
		var training []byte
		tPrev := make([]byte, recSize)
		for i := 0; i < 32; i++ {
			rec := trainNext()
			for j := range rec {
				training = append(training, rec[j]-tPrev[j])
			}
			copy(tPrev, rec)
		}
		coder := compress.NewStaticCoder(training)

		next := makeStream()
		cursor := 0
		var compressedBytes int
		prev := make([]byte, recSize)
		diff := make([]byte, recSize)
		for i := 0; i < records; i++ {
			rec := next()
			for j := range rec {
				diff[j] = rec[j] - prev[j]
			}
			copy(prev, rec)
			payload := coder.Encode(diff)
			compressedBytes += len(payload)
			// Length-prefixed circular append: advance to the next
			// page when the record does not fit, erasing consumed
			// pages on re-entry.
			need := len(payload) + 1
			ps := fl.Spec().PageSize
			if cursor%ps+need > ps {
				cursor = (cursor/ps + 1) * ps
			}
			if cursor >= fl.Spec().Size() {
				cursor = 0
			}
			// Entering a page: reclaim it if a previous lap left
			// data behind (its first byte is a length prefix).
			if cursor%ps == 0 && fl.Peek(cursor) != 0xFF {
				if err := fl.ErasePage(cursor / ps); err != nil {
					return nil, err
				}
			}
			if err := fl.ProgramByte(cursor, byte(len(payload))); err != nil {
				return nil, err
			}
			for j, b := range payload {
				if err := fl.ProgramByte(cursor+1+j, b); err != nil {
					return nil, err
				}
			}
			cursor += need
		}
		st := fl.Stats()
		ratio := float64(compressedBytes) / float64(records*recSize)
		t.AddRow(fmt.Sprintf("delta+Huffman log (%.2fx data)", ratio),
			fmt.Sprintf("%d", st.Erases), st.Energy.String(), "1.0×*", "yes", "0")
	}

	// Log-structured KV store (the flash-file-system family [24,26,43,94]):
	// each record is a Put under one key; the store appends and GCs.
	{
		dev := core.MustNewDevice(smallSpec(16))
		store, err := kvs.Open(dev)
		if err != nil {
			return nil, err
		}
		next := makeStream()
		for i := 0; i < records; i++ {
			if err := store.Put("record", next()); err != nil {
				return nil, err
			}
		}
		st := dev.Flash().Stats()
		t.AddRow("KV store (file-system family)", fmt.Sprintf("%d", st.Erases),
			st.Energy.String(), "1.0×*", "yes", "0")
	}

	// FlipBit.
	{
		dev := core.MustNewDevice(smallSpec(16))
		if err := dev.SetApproxRegion(0, dev.Flash().Spec().PageSize); err != nil {
			return nil, err
		}
		dev.SetThreshold(2)
		next := makeStream()
		var tr approx.ErrorTracker
		stored := make([]byte, recSize)
		for i := 0; i < records; i++ {
			rec := next()
			if err := dev.Write(0, rec); err != nil {
				return nil, err
			}
			if err := dev.Read(0, stored); err != nil {
				return nil, err
			}
			for j := range rec {
				tr.Add(uint32(rec[j]), uint32(stored[j]))
			}
		}
		st := dev.Flash().Stats()
		t.AddRow("FlipBit (thr 2)", fmt.Sprintf("%d", st.Erases), st.Energy.String(),
			"1.0×", "no", f2(tr.MAE()))
	}

	t.Notes = append(t.Notes,
		"*the log approaches serve 'latest record' from a moving slot and must be decoded",
		" on read, so they forfeit fixed addresses, random access and XIP; WOM pays 1.5×",
		" footprint; compression also spends CPU cycles per record. FlipBit keeps in-place",
		" exact-address semantics and spends bounded accuracy instead (§VII) — and being",
		" orthogonal, it composes with any of these.")
	return t, nil
}

// ExpWear demonstrates §II-B's composition claim: FlipBit reduces the
// number of erases, static wear leveling spreads them, and the combination
// compounds. Workload: one hot logical page of drifting data plus cold
// pages.
func ExpWear(cfg Config) (*Table, error) {
	writes := 2000
	if cfg.Quick {
		writes = 500
	}
	// pages is the logical space every row writes. The FTL rows' device
	// adds the journal's metadata pages past it: on the default spec a
	// scratch page, the intent log and two one-page checkpoint slots.
	const pages, journalPages = 16, 4

	// wearRun is one configuration's outcome; dataWear is the hottest of
	// the logical pages, maxWear the hottest of the whole device.
	type wearRun struct {
		maxWear, dataWear uint32
		erases            uint64
	}
	run := func(useFTL, useFlipBit bool) (r wearRun, err error) {
		np := pages
		if useFTL {
			np += journalPages
		}
		dev := core.MustNewDevice(smallSpec(np))
		ps := dev.Flash().Spec().PageSize
		if useFlipBit {
			if err := dev.SetApproxRegion(0, pages*ps); err != nil {
				return r, err
			}
			dev.SetThreshold(2)
		}
		var f *ftl.FTL
		if useFTL {
			if f, err = ftl.Open(dev, ftl.WithSwapDelta(8)); err != nil {
				return r, err
			}
			if f.NumPages() != pages {
				return r, fmt.Errorf("exp-wear: FTL on %d pages exposes %d logical pages, want %d",
					np, f.NumPages(), pages)
			}
		}
		write := func(addr int, data []byte) error {
			if f != nil {
				return f.Write(addr, data)
			}
			return dev.Write(addr, data)
		}
		rng := xrand.New(808)
		hot := make([]byte, ps)
		for i := range hot {
			hot[i] = rng.Byte()
		}
		// Seed some cold content.
		for p := 1; p < pages; p++ {
			cold := make([]byte, ps)
			for i := range cold {
				cold[i] = rng.Byte()
			}
			if err := write(p*ps, cold); err != nil {
				return r, err
			}
		}
		for i := 0; i < writes; i++ {
			for j := range hot {
				hot[j] = byte(int(hot[j]) + rng.Intn(5) - 2)
			}
			if err := write(0, hot); err != nil {
				return r, err
			}
		}
		wear := dev.Flash().WearSnapshot()
		r.dataWear = slices.Max(wear[:pages])
		r.maxWear = slices.Max(wear)
		r.erases = dev.Flash().Stats().Erases
		return r, nil
	}

	t := &Table{
		ID:    "exp-wear",
		Title: "wear leveling × FlipBit on a hot page (§II-B composition)",
		Columns: []string{"configuration", "total erases", "max page wear",
			"lifetime vs plain"},
	}
	var plainWear uint32
	var journalNotes []string
	for _, c := range []struct {
		name            string
		useFTL, useFlip bool
	}{
		{"plain device", false, false},
		{"wear-leveling FTL", true, false},
		{"FlipBit", false, true},
		{"FlipBit + FTL", true, true},
	} {
		r, err := run(c.useFTL, c.useFlip)
		if err != nil {
			return nil, err
		}
		if c.name == "plain device" {
			plainWear = r.maxWear
		}
		life := "1.0×"
		if r.maxWear > 0 && plainWear > 0 {
			life = fmt.Sprintf("%.1f×", float64(plainWear)/float64(r.maxWear))
		} else if r.maxWear == 0 {
			life = "∞ (no erases)"
		}
		t.AddRow(c.name, fmt.Sprintf("%d", r.erases), fmt.Sprintf("%d", r.maxWear), life)
		if c.useFTL {
			journalNotes = append(journalNotes, fmt.Sprintf(
				"%s: hottest logical page wear %d, hottest page overall %d", c.name, r.dataWear, r.maxWear))
		}
	}
	t.Notes = append(t.Notes,
		"lifetime ∝ 1/(max page wear); FlipBit cuts total erases, the FTL spreads the",
		"rest, and the combination compounds — the orthogonality §II-B claims",
		fmt.Sprintf("the FTL rows' device adds the journal's %d metadata pages to the %d logical pages (%.0f%% more pages)",
			journalPages, pages, 100*float64(journalPages)/pages),
		"for a crash-safe map; max page wear covers them, and every swap rewrites the journal's scratch page")
	t.Notes = append(t.Notes, journalNotes...)
	return t, nil
}

// AblationFloat exercises the §VI floating-point extension: a correlated
// float32 stream stored through the mantissa-window encoder at several M.
func AblationFloat(cfg Config) (*Table, error) {
	rounds := 400
	if cfg.Quick {
		rounds = 120
	}
	const values = 256 // 1 KiB of float32 per round

	t := &Table{
		ID:    "ablation-float",
		Title: "float32 mantissa-window approximation (§VI)",
		Columns: []string{"mantissa window M", "energy reduction",
			"page fallback rate", "mean relative error", "analytic bound"},
	}

	stream := func() func() []float32 {
		rng := xrand.New(606)
		vals := make([]float32, values)
		for i := range vals {
			vals[i] = float32(50 + 20*rng.NormFloat64())
		}
		return func() []float32 {
			for i := range vals {
				vals[i] *= 1 + float32(0.0008*rng.NormFloat64())
			}
			out := make([]float32, values)
			copy(out, vals)
			return out
		}
	}

	run := func(enc approx.Encoder) (flash.Stats, core.Stats, float64, error) {
		dev := core.MustNewDevice(smallSpec(32))
		if enc != nil {
			dev.SetEncoder(enc)
			if err := dev.SetApproxRegion(0, 4*values); err != nil {
				return flash.Stats{}, core.Stats{}, 0, err
			}
			if err := dev.SetWidth(bits.W32); err != nil {
				return flash.Stats{}, core.Stats{}, 0, err
			}
			// The structural sign/exponent guarantee bounds the
			// error; the MAE gate is disabled (§VI notes the error
			// hardware would switch to floating point).
			dev.SetThreshold(float64(core.ThresholdUnlimited))
		}
		next := stream()
		buf := make([]byte, 4*values)
		stored := make([]byte, 4*values)
		var relSum float64
		var relN int
		for r := 0; r < rounds; r++ {
			vals := next()
			for i, v := range vals {
				bits.StoreLE(buf[4*i:], math.Float32bits(v), bits.W32)
			}
			if err := dev.Write(0, buf); err != nil {
				return flash.Stats{}, core.Stats{}, 0, err
			}
			if err := dev.Read(0, stored); err != nil {
				return flash.Stats{}, core.Stats{}, 0, err
			}
			for i, v := range vals {
				got := bits.LoadLE(stored[4*i:], bits.W32)
				relSum += approx.RelativeError(math.Float32bits(v), got)
				relN++
			}
		}
		return dev.Flash().Stats(), dev.Stats(), relSum / float64(relN), nil
	}

	baseStats, _, _, err := run(nil)
	if err != nil {
		return nil, err
	}
	for _, m := range []int{8, 12, 16, 20} {
		enc := approx.MustFloat32(m, nil)
		st, ctrl, rel, err := run(enc)
		if err != nil {
			return nil, err
		}
		red := 1 - float64(st.Energy)/float64(baseStats.Energy)
		fallback := 0.0
		if total := ctrl.PagesApprox + ctrl.PagesExact; total > 0 {
			fallback = float64(ctrl.PagesExact) / float64(total)
		}
		t.AddRow(fmt.Sprintf("%d of 23 bits", m), pct(red), pct(fallback),
			fmt.Sprintf("%.2e", rel), fmt.Sprintf("%.2e", enc.MaxRelativeError()))
	}
	t.Notes = append(t.Notes,
		"sign and exponent stay exact by construction; larger M = more savings, more",
		"(still bounded) relative error — §VI's 'M is application dependent' dial.",
		"Small windows save nothing here because one carry past the window in any of a",
		"page's 64 floats forces that whole page exact — window size must exceed the",
		"data's drift magnitude at page granularity")
	return t, nil
}
