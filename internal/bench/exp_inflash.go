package bench

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/kvs"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// The inflash experiment measures the in-storage compute story end to end,
// in two sections.
//
// The scan section drives a populated KV store through predicate scans at
// three selectivities and compares the pushdown path (bitmap senses inside
// the array, then only candidate records fetched) against the
// read-everything-to-host baseline over the same records, byte for byte.
// ~5% of the keys are updated into new buckets first, so the index carries
// stale bits and the numbers include the false-positive re-reads they cost.
// The 50% row is phrased as a negation to route it through the positive
// rewrite that keeps stale supersets sound.
//
// The approx section compares two ways of keeping a searchable array of
// sensor readings on flash. The baseline stores exact 16-byte records and
// pays a read-modify-erase-program cycle for every in-place refresh; a
// search reads every record. The FlipBit store keeps readings bit-planar,
// refreshes them erase-free by programming the nearest reachable value
// within an error budget, and searches in-flash with prefix senses widened
// by the observed error bound — so no intended reading is ever missed.

// InflashScanRow is one selectivity's pushdown-vs-host comparison.
type InflashScanRow struct {
	Predicate      string  `json:"predicate"`
	SelectivityPct float64 `json:"selectivity_pct"`
	Matches        int     `json:"matches"`
	Candidates     uint64  `json:"candidates"`
	FalsePositives uint64  `json:"false_positives"`
	Senses         uint64  `json:"senses"`
	PagesSensed    uint64  `json:"pages_sensed"`
	ScanEnergyUJ   float64 `json:"scan_energy_uj"`
	HostEnergyUJ   float64 `json:"host_energy_uj"`
	EnergyX        float64 `json:"energy_x"` // host / pushdown, device energy
	ScanDeviceMs   float64 `json:"scan_device_ms"`
	HostDeviceMs   float64 `json:"host_device_ms"`
	TimeX          float64 `json:"time_x"` // host / pushdown, device busy time
	Equal          bool    `json:"equal"`  // pushdown results == host results
}

// InflashApproxRow is one tolerance's approximate-search comparison.
type InflashApproxRow struct {
	Tol           int     `json:"tol"`
	Queries       int     `json:"queries"`
	ExactMatches  int     `json:"exact_matches"` // readings truly within tol
	Candidates    int     `json:"candidates"`    // slots the widened senses returned
	Missed        int     `json:"missed"`        // intended readings lost (must be 0)
	MaxErr        int     `json:"max_err"`       // worst |intended - stored| accepted
	ErrBudget     int     `json:"err_budget"`
	Updates       int     `json:"updates"`
	Rejected      int     `json:"rejected"` // refreshes outside the budget, skipped
	BaseUpdateUJ  float64 `json:"base_update_uj"`
	FlipUpdateUJ  float64 `json:"flip_update_uj"`
	UpdateEnergyX float64 `json:"update_energy_x"`
	BaseQueryUJ   float64 `json:"base_query_uj"`
	FlipQueryUJ   float64 `json:"flip_query_uj"`
	QueryEnergyX  float64 `json:"query_energy_x"`
	BaseErases    uint64  `json:"base_erases"`
	FlipErases    uint64  `json:"flip_erases"`
}

// InflashReport is the machine-readable result written to
// BENCH_inflash.json.
type InflashReport struct {
	Seed         uint64             `json:"seed"`
	PageSize     int                `json:"page_size"`
	Banks        int                `json:"banks"`
	Keys         int                `json:"keys"`
	Buckets      int                `json:"buckets"`
	ValueSize    int                `json:"value_size"`
	StaleUpdates int                `json:"stale_updates"`
	Samples      int                `json:"samples"`
	SampleWidth  int                `json:"sample_width"`
	Rows         []InflashScanRow   `json:"rows"`
	Approx       []InflashApproxRow `json:"approx"`
}

const (
	inflashSeed      = 0x1F1A5
	inflashPageSize  = 256
	inflashBanks     = 4
	inflashBuckets   = 100 // 1 bucket = 1% of the keyspace
	inflashValueSize = 24
	inflashWidth     = 10 // sensor reading bits
	inflashRecSize   = 16 // baseline bytes per reading record
	inflashBudget    = 12 // SetApprox error budget
)

func uj(e energy.Energy) float64    { return float64(e / energy.Microjoule) }
func devMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func ratio(hi, lo float64) float64 {
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// inflashIndexSpec buckets records by their first value byte.
func inflashIndexSpec(maxKeys int) kvs.IndexSpec {
	return kvs.IndexSpec{
		MaxKeys: maxKeys,
		Fields: []kvs.IndexField{
			{Name: "sel", Buckets: inflashBuckets, Extract: func(_ string, v []byte) int {
				if len(v) < 1 || int(v[0]) >= inflashBuckets {
					return -1
				}
				return int(v[0])
			}},
		},
	}
}

// runInflashScan populates the store, churns ~5% of the keys into new
// buckets (stale index bits), and measures each predicate both ways.
func runInflashScan(keys int) ([]InflashScanRow, int, error) {
	spec := flash.DefaultSpec()
	spec.PageSize = inflashPageSize
	spec.NumPages = 1024
	spec.Banks = inflashBanks
	dev := core.MustNewDevice(spec)
	defer dev.Close()

	s, err := kvs.Open(dev, kvs.WithScanIndex(inflashIndexSpec(keys)))
	if err != nil {
		return nil, 0, err
	}
	if !s.ScanIndexed() {
		return nil, 0, fmt.Errorf("scan index did not come up")
	}

	rng := xrand.New(inflashSeed)
	val := make([]byte, inflashValueSize)
	put := func(i, bucket int) error {
		val[0] = byte(bucket)
		for j := 1; j < len(val); j++ {
			val[j] = rng.Byte()
		}
		return s.Put(fmt.Sprintf("dev%04d", i), val)
	}
	for i := 0; i < keys; i++ {
		if err := put(i, i%inflashBuckets); err != nil {
			return nil, 0, fmt.Errorf("populate key %d: %w", i, err)
		}
	}
	stale := keys / 20
	for u := 0; u < stale; u++ {
		if err := put(rng.Intn(keys), rng.Intn(inflashBuckets)); err != nil {
			return nil, 0, fmt.Errorf("stale update %d: %w", u, err)
		}
	}

	span := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	upper := make([]int, inflashBuckets/2)
	for i := range upper {
		upper[i] = inflashBuckets/2 + i
	}
	preds := []struct {
		label string
		p     isc.Pred
		pct   float64
	}{
		{"sel=0", isc.In("sel", span(1)...), 1},
		{"sel in 0..9", isc.In("sel", span(10)...), 10},
		// Phrased negatively on purpose: exercises the positive rewrite
		// that keeps stale-bit supersets sound under complement.
		{"not(sel in 50..99)", isc.Not(isc.In("sel", upper...)), 50},
	}

	var rows []InflashScanRow
	for _, pc := range preds {
		kvBefore := s.Stats()
		fBefore := dev.Flash().Stats()
		got, err := s.Scan(pc.p)
		if err != nil {
			return nil, 0, fmt.Errorf("scan %s: %w", pc.p, err)
		}
		scanD := dev.Flash().Stats().Sub(fBefore)
		kvD := s.Stats()

		fBefore = dev.Flash().Stats()
		want, err := s.ScanHost(pc.p)
		if err != nil {
			return nil, 0, fmt.Errorf("host scan %s: %w", pc.p, err)
		}
		hostD := dev.Flash().Stats().Sub(fBefore)

		equal := len(got) == len(want)
		for i := 0; equal && i < len(got); i++ {
			equal = got[i].Key == want[i].Key && bytes.Equal(got[i].Val, want[i].Val)
		}
		rows = append(rows, InflashScanRow{
			Predicate:      pc.label,
			SelectivityPct: pc.pct,
			Matches:        len(got),
			Candidates:     kvD.ScanCandidates - kvBefore.ScanCandidates,
			FalsePositives: kvD.ScanFalsePositives - kvBefore.ScanFalsePositives,
			Senses:         scanD.Senses,
			PagesSensed:    scanD.PagesSensed,
			ScanEnergyUJ:   uj(scanD.Energy),
			HostEnergyUJ:   uj(hostD.Energy),
			EnergyX:        ratio(float64(hostD.Energy), float64(scanD.Energy)),
			ScanDeviceMs:   devMs(scanD.Busy),
			HostDeviceMs:   devMs(hostD.Busy),
			TimeX:          ratio(float64(hostD.Busy), float64(scanD.Busy)),
			Equal:          equal,
		})
	}
	return rows, stale, nil
}

// runInflashApprox builds the two reading stores, applies the same refresh
// stream to both, and runs proximity queries each way.
func runInflashApprox(samples, tol, queries int) (*InflashApproxRow, error) {
	full := 1<<inflashWidth - 1

	// FlipBit store: bit-planar readings, erase-free refreshes, sense search.
	planeCfg := isc.PlaneConfig{
		PageSize:      inflashPageSize,
		Banks:         inflashBanks,
		MaxSensePages: flash.DefaultMaxSensePages,
		FirstPage:     0,
		Slots:         samples,
		Width:         inflashWidth,
	}
	flipSpec := flash.DefaultSpec()
	flipSpec.PageSize = inflashPageSize
	flipSpec.Banks = inflashBanks
	flipSpec.NumPages = planeCfg.Pages()
	flipDev, err := flash.NewDevice(flipSpec)
	if err != nil {
		return nil, err
	}
	ps, err := isc.NewPlaneStore(flipDev, planeCfg)
	if err != nil {
		return nil, err
	}
	if err := ps.Reset(); err != nil {
		return nil, err
	}

	// Baseline store: one exact 16-byte record per reading; refreshes are
	// read-modify-erase-program cycles on the record's page.
	perPage := inflashPageSize / inflashRecSize
	recPages := (samples + perPage - 1) / perPage
	baseSpec := flash.DefaultSpec()
	baseSpec.PageSize = inflashPageSize
	baseSpec.Banks = inflashBanks
	baseSpec.NumPages = (recPages + inflashBanks - 1) / inflashBanks * inflashBanks
	baseDev, err := flash.NewDevice(baseSpec)
	if err != nil {
		return nil, err
	}
	record := func(buf []byte, slot, v int) {
		off := (slot % perPage) * inflashRecSize
		for i := 0; i < inflashRecSize; i++ {
			buf[off+i] = byte(slot >> (8 * (i % 2))) // id filler
		}
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
	}

	rng := xrand.New(inflashSeed + 0xA99)
	intended := make([]int, samples)
	page := make([]byte, inflashPageSize)
	for p := 0; p < recPages; p++ {
		for i := range page {
			page[i] = 0xFF
		}
		for slot := p * perPage; slot < (p+1)*perPage && slot < samples; slot++ {
			v := rng.Intn(full + 1)
			intended[slot] = v
			if _, err := ps.SetApprox(slot, v, inflashBudget); err != nil {
				return nil, fmt.Errorf("populate slot %d: %w", slot, err)
			}
			record(page, slot, v)
		}
		if err := baseDev.ProgramPage(p, page); err != nil {
			return nil, err
		}
	}

	// Refresh stream: the FlipBit store accepts what its budget reaches and
	// both stores apply exactly the accepted refreshes.
	updates := samples / 4
	rejected := 0
	flipBefore := flipDev.Stats()
	baseBefore := baseDev.Stats()
	for u := 0; u < updates; u++ {
		slot := rng.Intn(samples)
		v := rng.Intn(full + 1)
		if _, err := ps.SetApprox(slot, v, inflashBudget); err != nil {
			if errors.Is(err, isc.ErrErrorBudget) {
				rejected++
				continue
			}
			return nil, fmt.Errorf("refresh %d: %w", u, err)
		}
		intended[slot] = v
		p := slot / perPage
		if err := baseDev.ReadPage(p, page); err != nil {
			return nil, err
		}
		record(page, slot, v)
		if err := baseDev.EraseProgramPage(p, page); err != nil {
			return nil, err
		}
	}
	flipUpd := flipDev.Stats().Sub(flipBefore)
	baseUpd := baseDev.Stats().Sub(baseBefore)

	// Proximity queries: in-flash widened senses vs read-every-record.
	dst := make([]byte, ps.BitmapBytes())
	all := make([]byte, samples*inflashRecSize)
	exact, cands, missed := 0, 0, 0
	flipBefore = flipDev.Stats()
	baseBefore = baseDev.Stats()
	for q := 0; q < queries; q++ {
		v := rng.Intn(full + 1)
		if err := ps.MatchNear(v, tol, dst); err != nil {
			return nil, fmt.Errorf("query %d: %w", q, err)
		}
		if err := baseDev.Read(0, all); err != nil {
			return nil, err
		}
		for slot := 0; slot < samples; slot++ {
			hit := dst[slot/8]&(1<<(slot%8)) != 0
			if hit {
				cands++
			}
			d := intended[slot] - v
			if d < 0 {
				d = -d
			}
			if d <= tol {
				exact++
				if !hit {
					missed++
				}
			}
		}
	}
	flipQ := flipDev.Stats().Sub(flipBefore)
	baseQ := baseDev.Stats().Sub(baseBefore)

	return &InflashApproxRow{
		Tol:           tol,
		Queries:       queries,
		ExactMatches:  exact,
		Candidates:    cands,
		Missed:        missed,
		MaxErr:        ps.MaxObservedError(),
		ErrBudget:     inflashBudget,
		Updates:       updates,
		Rejected:      rejected,
		BaseUpdateUJ:  uj(baseUpd.Energy),
		FlipUpdateUJ:  uj(flipUpd.Energy),
		UpdateEnergyX: ratio(float64(baseUpd.Energy), float64(flipUpd.Energy)),
		BaseQueryUJ:   uj(baseQ.Energy),
		FlipQueryUJ:   uj(flipQ.Energy),
		QueryEnergyX:  ratio(float64(baseQ.Energy), float64(flipQ.Energy)),
		BaseErases:    baseUpd.Erases,
		FlipErases:    flipUpd.Erases + flipQ.Erases,
	}, nil
}

// RunInflash executes both sections.
func RunInflash(cfg Config) (*InflashReport, error) {
	keys, samples, queries := 2000, 1024, 32
	if cfg.Quick {
		keys, samples, queries = 400, 256, 8
	}
	rows, stale, err := runInflashScan(keys)
	if err != nil {
		return nil, fmt.Errorf("inflash scan: %w", err)
	}
	rep := &InflashReport{
		Seed:         inflashSeed,
		PageSize:     inflashPageSize,
		Banks:        inflashBanks,
		Keys:         keys,
		Buckets:      inflashBuckets,
		ValueSize:    inflashValueSize,
		StaleUpdates: stale,
		Samples:      samples,
		SampleWidth:  inflashWidth,
		Rows:         rows,
	}
	for _, tol := range []int{4, 16} {
		row, err := runInflashApprox(samples, tol, queries)
		if err != nil {
			return nil, fmt.Errorf("inflash approx tol %d: %w", tol, err)
		}
		rep.Approx = append(rep.Approx, *row)
	}
	return rep, nil
}

// Check gates BENCH_inflash.json. Scan rows: the pushdown path returned
// exactly the host-scan results (a speedup on a path that loses or invents
// matches is void), was served in-flash from a candidate superset, won at
// least 3× device energy at selective queries and never regressed even at
// 50%; and since the workload re-bucketed keys, stale index bits surfaced
// (and were filtered) somewhere, or the soundness machinery never ran.
// Approx rows are bounded-error search: no intended reading missed, the
// observed error inside its budget, refreshes erase-free, and both energy
// comparisons in FlipBit's favour.
func (r *InflashReport) Check() error {
	var stale uint64
	for i, row := range r.Rows {
		switch {
		case !row.Equal:
			return fmt.Errorf("rows[%d] (%s): pushdown and host scans diverged", i, row.Predicate)
		case row.Senses == 0:
			return fmt.Errorf("rows[%d] (%s): no senses; the scan was not served in-flash", i, row.Predicate)
		case row.Candidates < uint64(row.Matches):
			return fmt.Errorf("rows[%d] (%s): %d candidates for %d matches; the plan was not a superset", i, row.Predicate, row.Candidates, row.Matches)
		case row.SelectivityPct <= 10 && row.EnergyX < 3:
			return fmt.Errorf("rows[%d]: energy_x %.2f at %.0f%% selectivity, want >= 3", i, row.EnergyX, row.SelectivityPct)
		case row.EnergyX <= 1:
			return fmt.Errorf("rows[%d]: energy_x %.2f; pushdown costs more than reading everything", i, row.EnergyX)
		}
		stale += row.FalsePositives
	}
	if stale == 0 {
		return fmt.Errorf("no stale-bit false positives across rows; the re-check path went unexercised")
	}
	if len(r.Approx) == 0 {
		return fmt.Errorf("approx is empty")
	}
	for i, a := range r.Approx {
		switch {
		case a.Missed != 0:
			return fmt.Errorf("approx[%d]: %d intended readings missed; the widened window lost matches", i, a.Missed)
		case a.MaxErr > a.ErrBudget:
			return fmt.Errorf("approx[%d]: max_err %d exceeds budget %d", i, a.MaxErr, a.ErrBudget)
		case a.FlipErases != 0:
			return fmt.Errorf("approx[%d]: %d erases on the erase-free refresh path", i, a.FlipErases)
		case a.UpdateEnergyX < 5:
			return fmt.Errorf("approx[%d]: update_energy_x %.2f, want >= 5", i, a.UpdateEnergyX)
		case a.QueryEnergyX <= 1:
			return fmt.Errorf("approx[%d]: query_energy_x %.2f; in-flash search did not beat read-all", i, a.QueryEnergyX)
		}
	}
	return nil
}

// ExpInflash is the registry wrapper: the report as a rendered table.
func ExpInflash(cfg Config) (*Table, error) {
	rep, err := RunInflash(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "inflash",
		Title:   "in-flash predicate pushdown vs read-everything host scans",
		Columns: []string{"predicate", "sel%", "matches", "cands", "stale FPs", "senses", "scan µJ", "host µJ", "energy×", "time×", "equal"},
	}
	for _, r := range rep.Rows {
		t.AddRow(
			r.Predicate,
			fmt.Sprintf("%.0f", r.SelectivityPct),
			fmt.Sprintf("%d", r.Matches),
			fmt.Sprintf("%d", r.Candidates),
			fmt.Sprintf("%d", r.FalsePositives),
			fmt.Sprintf("%d", r.Senses),
			fmt.Sprintf("%.2f", r.ScanEnergyUJ),
			fmt.Sprintf("%.2f", r.HostEnergyUJ),
			fmt.Sprintf("%.1f×", r.EnergyX),
			fmt.Sprintf("%.1f×", r.TimeX),
			fmt.Sprintf("%v", r.Equal))
	}
	for _, a := range rep.Approx {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"approx tol=%d: %d queries, %d/%d intended readings found (missed %d), max err %d/%d; refresh energy %.0f× cheaper erase-free, search %.1f× cheaper in-flash",
			a.Tol, a.Queries, a.ExactMatches-a.Missed, a.ExactMatches, a.Missed,
			a.MaxErr, a.ErrBudget, a.UpdateEnergyX, a.QueryEnergyX))
	}
	t.Notes = append(t.Notes,
		"pushdown scans evaluate the predicate with multi-page senses over inverted bitmaps and fetch only candidates; the host baseline reads every record",
		"5% of keys were re-bucketed before measuring, so candidates include stale-bit false positives the exact re-check filters",
		"the 50% row is a negation: it is planned through the positive rewrite (complement-free), which keeps stale supersets sound")
	return t, nil
}
