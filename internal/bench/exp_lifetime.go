package bench

import (
	"errors"
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// The lifetime experiment answers the endurance-management question head
// on: how many writes does a device survive before it loses data, with and
// without management? Three configurations run the identical seeded
// workload — a hot drifting sensor record plus cold archival pages — on the
// same tiny part until first data loss:
//
//   - unmanaged: writes go straight to the flash page that holds them. The
//     hot page burns through its endurance rating and the first worn erase
//     silently corrupts acknowledged data.
//   - managed: the journaled FTL (ftl.Open) levels wear across its data
//     pages until a page its swap erases — in practice the journal's
//     scratch page — reaches its rating, the health gate fences degraded
//     pages, and worn pages retire onto a spare pool. Life ends with a
//     clean refusal (ErrExactDegraded once the pool is dry), never silent
//     corruption.
//   - managed+approx: the same management with the whole device declared
//     approximatable at a small error threshold. Drift within the budget
//     needs no erase at all, so the same endurance rating stretches across
//     several times more writes (§VI-E's lifetime claim, composed with
//     management).
//
// "Data loss" means acknowledged bytes are gone: a write reported success
// but the data fails read-back (byte mismatch for the exact
// configurations, mean absolute error beyond the configured slack for the
// approximate one — approximation within its budget is the contract, not
// loss), or a write failed destructively (the worn erase that corrupts the
// record it was rewriting). A clean refusal — the health gate fencing the
// write *before* any mutation, with every acknowledged byte still intact —
// also ends life, but loses nothing; the DataLost flag records which way
// each configuration died.

// LifetimeRow is one configuration's outcome.
type LifetimeRow struct {
	Config string `json:"config"`

	// WritesToFirstLoss is how many hot-record writes were acknowledged
	// before the first data loss or write refusal.
	WritesToFirstLoss int `json:"writes_to_first_loss"`

	// DataLost is true when life ended with acknowledged bytes destroyed
	// (silent read-back corruption or a destructive write failure), false
	// when the device refused cleanly with all acknowledged data intact.
	DataLost bool `json:"data_lost"`

	// LifetimeX is WritesToFirstLoss relative to the unmanaged baseline.
	LifetimeX float64 `json:"lifetime_x"`

	Erases      uint64 `json:"erases"`
	MaxWear     uint32 `json:"max_wear"`
	Swaps       uint64 `json:"swaps"`
	Retirements uint64 `json:"retirements"`
	SparesUsed  int    `json:"spares_used"`
}

// DensityRow is one cell mode's outcome in the density sweep: the same
// seeded workload on the same cell array at one, two, or three bits per
// cell, unmanaged but approximatable, with the encoder matched to the
// mode's reachability order. It makes the capacity/endurance/error
// trade of the density axis concrete: each extra bit per cell multiplies
// capacity and divides the endurance rating by ten.
type DensityRow struct {
	Cell        string `json:"cell"`
	BitsPerCell int    `json:"bits_per_cell"`

	// CapacityX is the storage multiplier over SLC for the same cell
	// array — exactly BitsPerCell.
	CapacityX float64 `json:"capacity_x"`

	Encoder   string `json:"encoder"`
	Endurance uint32 `json:"endurance_cycles"`

	WritesToFirstLoss int  `json:"writes_to_first_loss"`
	DataLost          bool `json:"data_lost"`

	// MAE is the mean absolute error per approximated value over the whole
	// run — the accuracy paid for the erase-free writes that stretch the
	// derated endurance.
	MAE float64 `json:"mae"`

	Erases  uint64 `json:"erases"`
	MaxWear uint32 `json:"max_wear"`
}

// LifetimeReport is the machine-readable result written to
// BENCH_lifetime.json.
type LifetimeReport struct {
	Seed      uint64        `json:"seed"`
	Endurance uint32        `json:"endurance_cycles"`
	PageSize  int           `json:"page_size"`
	NumPages  int           `json:"num_pages"`
	Spares    int           `json:"spares"`
	Rows      []LifetimeRow `json:"rows"`
	Density   []DensityRow  `json:"density"`
}

// Lifetime experiment constants. The part is deliberately tiny so every
// configuration actually reaches end of life in milliseconds; the ratios,
// not the absolute counts, are the result.
const (
	lifetimeSeed   = 0x11FE
	lifetimePages  = 24
	lifetimePS     = 64
	lifetimeSpares = 4

	// lifetimeThreshold is the approximate row's per-write MAE budget, and
	// lifetimeSlack the read-back MAE beyond which approximate data counts
	// as lost (leveling copies re-approximate, so acknowledged data may
	// carry a few writes' worth of budget).
	lifetimeThreshold = 2.0
	lifetimeSlack     = 8.0

	lifetimeColdEvery = 32 // writes between cold-page verifications
	lifetimeMaxWrites = 200_000
)

// lifetimeColdPages is how many cold archival pages the workload seeds.
const lifetimeColdPages = 4

func lifetimeSpec(cfg Config) flash.Spec {
	s := flash.DefaultSpec()
	s.PageSize = lifetimePS
	s.NumPages = lifetimePages
	s.Banks = 1
	s.EnduranceCycles = 40
	if cfg.Quick {
		s.EnduranceCycles = 12
	}
	return s
}

// lifetimeTarget abstracts the write/read path so the same workload drives
// a raw device and a managed FTL.
type lifetimeTarget struct {
	write func(addr int, data []byte) error
	read  func(addr int, dst []byte) error
}

// runLifetimeConfig drives the shared workload against one configuration
// until first loss and returns (writes survived, acknowledged data lost).
func runLifetimeConfig(spec flash.Spec, tgt lifetimeTarget, tol float64) (int, bool, error) {
	rng := xrand.New(lifetimeSeed)
	ps := spec.PageSize

	// Cold archival pages: written once, verified periodically.
	cold := make([][]byte, lifetimeColdPages)
	for i := range cold {
		cold[i] = make([]byte, ps)
		for j := range cold[i] {
			cold[i][j] = rng.Byte()
		}
		if err := tgt.write((1+i)*ps, cold[i]); err != nil {
			return 0, false, fmt.Errorf("seeding cold page %d: %w", i, err)
		}
	}

	// Hot drifting record on logical page 0.
	hot := make([]byte, ps)
	for j := range hot {
		hot[j] = rng.Byte()
	}

	check := func(addr int, want []byte) (bool, error) {
		got := make([]byte, len(want))
		if err := tgt.read(addr, got); err != nil {
			return false, err
		}
		var sum float64
		for i := range got {
			d := float64(got[i]) - float64(want[i])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum/float64(len(want)) <= tol, nil
	}

	// intact re-verifies everything previously acknowledged: the cold
	// pages and the last hot record a write call returned success for.
	lastAcked := make([]byte, ps)
	copy(lastAcked, hot)
	haveAcked := false
	intact := func() bool {
		for c, want := range cold {
			if ok, err := check((1+c)*ps, want); err != nil || !ok {
				return false
			}
		}
		if !haveAcked {
			return true
		}
		ok, err := check(0, lastAcked)
		return err == nil && ok
	}

	for i := 0; i < lifetimeMaxWrites; i++ {
		for j := range hot {
			hot[j] = byte(int(hot[j]) + rng.Intn(5) - 2)
		}
		err := tgt.write(0, hot)
		switch {
		case err == nil:
		case errors.Is(err, flash.ErrWornOut):
			// The worn erase happened in place: the record being
			// rewritten — acknowledged on the previous iteration — is
			// gone. A destructive failure, not a clean refusal.
			return i, true, nil
		default:
			// Refused before mutation (the health gate's contract).
			// Loss only if the refusal is lying about "before".
			return i, !intact(), nil
		}
		ok, rerr := check(0, hot)
		if rerr != nil || !ok {
			return i, true, nil // acked write failed read-back: silent loss
		}
		copy(lastAcked, hot)
		haveAcked = true
		if i%lifetimeColdEvery == 0 {
			for c, want := range cold {
				ok, rerr := check((1+c)*ps, want)
				if rerr != nil || !ok {
					return i, true, nil
				}
			}
		}
	}
	return lifetimeMaxWrites, false, nil
}

// RunLifetime executes all three configurations and returns the report.
func RunLifetime(cfg Config) (*LifetimeReport, error) {
	spec := lifetimeSpec(cfg)
	rep := &LifetimeReport{
		Seed:      lifetimeSeed,
		Endurance: spec.EnduranceCycles,
		PageSize:  spec.PageSize,
		NumPages:  spec.NumPages,
		Spares:    lifetimeSpares,
	}

	// Unmanaged baseline: raw device, exact in-place writes.
	{
		dev := core.MustNewDevice(spec)
		writes, lost, err := runLifetimeConfig(spec, lifetimeTarget{
			write: dev.Write,
			read:  dev.Read,
		}, 0)
		if err != nil {
			return nil, fmt.Errorf("unmanaged: %w", err)
		}
		st := dev.Flash().Stats()
		rep.Rows = append(rep.Rows, LifetimeRow{
			Config:            "unmanaged",
			WritesToFirstLoss: writes,
			DataLost:          lost,
			LifetimeX:         1,
			Erases:            st.Erases,
			MaxWear:           dev.Flash().MaxWear(),
		})
	}

	// Managed configurations share the FTL + gate assembly.
	managed := func(name string, approx bool) error {
		dev := core.MustNewDevice(spec, core.WithHealthGate())
		if approx {
			if err := dev.SetApproxRegion(0, spec.PageSize*spec.NumPages); err != nil {
				return err
			}
			dev.SetThreshold(lifetimeThreshold)
		}
		f, err := ftl.Open(dev, ftl.WithSpares(lifetimeSpares), ftl.WithSwapDelta(8))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tol := 0.0
		if approx {
			tol = lifetimeSlack
		}
		writes, lost, err := runLifetimeConfig(spec, lifetimeTarget{
			write: f.Write,
			read:  f.Read,
		}, tol)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fst := f.Stats()
		rep.Rows = append(rep.Rows, LifetimeRow{
			Config:            name,
			WritesToFirstLoss: writes,
			DataLost:          lost,
			LifetimeX:         float64(writes) / float64(rep.Rows[0].WritesToFirstLoss),
			Erases:            dev.Flash().Stats().Erases,
			MaxWear:           dev.Flash().MaxWear(),
			Swaps:             fst.Swaps,
			Retirements:       fst.Retirements,
			SparesUsed:        lifetimeSpares - f.SparesRemaining(),
		})
		return nil
	}
	if err := managed("managed", false); err != nil {
		return nil, err
	}
	if err := managed("managed+approx", true); err != nil {
		return nil, err
	}

	// Density sweep: the identical workload on the same cell array at each
	// density, unmanaged but whole-array approximatable, with the encoder
	// matched to the mode — the n-bit window on the bitwise modes, the
	// n-cell window where reachability is per-2-bit-cell level order. The
	// derated part trades capacity (×bits per cell) against endurance
	// (÷10 per extra bit) while approximation claws lifetime back.
	for _, d := range []struct {
		mode flash.CellMode
		enc  approx.Encoder
	}{
		{flash.SLC, approx.MustNBit(2)},
		{flash.MLC, approx.MustNCell(2)},
		{flash.TLC, approx.MustNBit(2)},
	} {
		spec := flash.DensitySpec(lifetimeSpec(cfg), d.mode)
		dev := core.MustNewDevice(spec, core.WithEncoder(d.enc))
		if err := dev.SetApproxRegion(0, spec.Size()); err != nil {
			return nil, err
		}
		dev.SetThreshold(lifetimeThreshold)
		writes, lost, err := runLifetimeConfig(spec, lifetimeTarget{
			write: dev.Write,
			read:  dev.Read,
		}, lifetimeSlack)
		if err != nil {
			return nil, fmt.Errorf("density %v: %w", d.mode, err)
		}
		mae := 0.0
		if st := dev.Stats(); st.ValuesTotal > 0 {
			mae = st.MAE()
		}
		rep.Density = append(rep.Density, DensityRow{
			Cell:              d.mode.String(),
			BitsPerCell:       d.mode.Bits(),
			CapacityX:         float64(d.mode.Bits()),
			Encoder:           d.enc.Name(),
			Endurance:         spec.EnduranceCycles,
			WritesToFirstLoss: writes,
			DataLost:          lost,
			MAE:               mae,
			Erases:            dev.Flash().Stats().Erases,
			MaxWear:           dev.Flash().MaxWear(),
		})
	}
	return rep, nil
}

// Check gates BENCH_lifetime.json: the unmanaged baseline row has
// lifetime_x exactly 1, every managed configuration at least doubles
// writes-to-first-loss and never loses acknowledged data, and the density
// sweep covers SLC, MLC and TLC, each with a capacity multiplier of exactly
// its bits per cell, a derated endurance rating, and a workload that
// survived some writes before first loss.
func (r *LifetimeReport) Check() error {
	var sawUnmanaged, sawManaged bool
	for _, row := range r.Rows {
		if row.Config == "unmanaged" {
			sawUnmanaged = true
			if row.LifetimeX != 1 {
				return fmt.Errorf("unmanaged lifetime_x = %v, want 1 (it is the baseline)", row.LifetimeX)
			}
			continue
		}
		sawManaged = true
		if row.LifetimeX < 2 {
			return fmt.Errorf("%s lifetime_x = %v, want >= 2", row.Config, row.LifetimeX)
		}
		if row.DataLost {
			return fmt.Errorf("%s lost acknowledged data; managed end of life must be a clean refusal", row.Config)
		}
	}
	if !sawUnmanaged || !sawManaged {
		return fmt.Errorf("need both an unmanaged baseline row and a managed row")
	}
	cells := map[string]bool{}
	for i, d := range r.Density {
		if d.CapacityX != float64(d.BitsPerCell) {
			return fmt.Errorf("density[%d] (%s): capacity_x %v != bits_per_cell %d", i, d.Cell, d.CapacityX, d.BitsPerCell)
		}
		if d.Endurance < 1 {
			return fmt.Errorf("density[%d] (%s): endurance_cycles %d, want >= 1", i, d.Cell, d.Endurance)
		}
		if d.WritesToFirstLoss <= 0 {
			return fmt.Errorf("density[%d] (%s): writes_to_first_loss %d; the workload never survived a write", i, d.Cell, d.WritesToFirstLoss)
		}
		cells[d.Cell] = true
	}
	for _, c := range []string{"SLC", "MLC", "TLC"} {
		if !cells[c] {
			return fmt.Errorf("density sweep missing a %s row", c)
		}
	}
	return nil
}

// ExpLifetime is the registry wrapper: the report as a rendered table.
func ExpLifetime(cfg Config) (*Table, error) {
	rep, err := RunLifetime(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "lifetime",
		Title: "writes to first data loss: unmanaged vs endurance-managed flash",
		Columns: []string{"config", "writes to first loss", "lifetime", "died how",
			"erases", "max wear", "swaps", "retired", "spares used"},
	}
	for _, row := range rep.Rows {
		died := "clean refusal, data intact"
		if row.DataLost {
			died = "DATA LOST"
		}
		t.AddRow(row.Config,
			fmt.Sprintf("%d", row.WritesToFirstLoss),
			fmt.Sprintf("%.1f×", row.LifetimeX),
			died,
			fmt.Sprintf("%d", row.Erases),
			fmt.Sprintf("%d", row.MaxWear),
			fmt.Sprintf("%d", row.Swaps),
			fmt.Sprintf("%d", row.Retirements),
			fmt.Sprintf("%d", row.SparesUsed))
	}
	for _, d := range rep.Density {
		died := "intact"
		if d.DataLost {
			died = "DATA LOST"
		}
		rel := 1.0
		if base := rep.Density[0].WritesToFirstLoss; base > 0 {
			rel = float64(d.WritesToFirstLoss) / float64(base)
		}
		t.AddRow(fmt.Sprintf("density:%s+%s", d.Cell, d.Encoder),
			fmt.Sprintf("%d", d.WritesToFirstLoss),
			fmt.Sprintf("%.2f×", rel),
			died,
			fmt.Sprintf("%d", d.Erases),
			fmt.Sprintf("%d", d.MaxWear),
			"—", "—", "—")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %#x, endurance %d cycles, %d×%dB pages, %d-page spare pool; identical seeded workload per config",
			rep.Seed, rep.Endurance, rep.NumPages, rep.PageSize, rep.Spares),
		"loss = acknowledged bytes destroyed (failed read-back, or a worn erase corrupting the record it rewrote); a health-gate refusal ends life with data intact",
		"the unmanaged row loses data when its hot page wears out; managed rows level and retire until the spare pool is dry, then refuse cleanly")
	for _, d := range rep.Density {
		t.Notes = append(t.Notes,
			fmt.Sprintf("density %s: %d bit(s)/cell (×%.0f capacity), endurance %d cycles, encoder %s, run MAE %.2f",
				d.Cell, d.BitsPerCell, d.CapacityX, d.Endurance, d.Encoder, d.MAE))
	}
	return t, nil
}
