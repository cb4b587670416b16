package main

import (
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/kvs"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// kvchurn is kvscale's 30k-key row (4 KiB pages, 128 B values, compaction
// TriggerFreePages 4 / MaxGarbageRatio 0.45, checkpoints every keys/2
// appends) on the journaled FTL, under hot/cold Put/Get/Delete traffic.
const (
	churnKeys      = 30_000
	churnPageSize  = 4096
	churnValueSize = 128
	churnKeyLen    = 7 // "k%06d"
	churnSpares    = 16
)

func kvchurnShape() kvShape {
	recSize := 5 + churnKeyLen + churnValueSize + 4
	// The store's geometry is kvscale's: a log of 1.6× the live set and two
	// checkpoint slots sized for the blob plus slack.
	dataPages := churnKeys*recSize*8/5/churnPageSize + 1
	slotPages := (30+dataPages*13+churnKeys*(10+churnKeyLen)+4)/churnPageSize + 2
	storePages := dataPages + 2*slotPages
	spec := flash.DefaultSpec()
	spec.PageSize = churnPageSize
	spec.Banks = 1
	// The journaled FTL keeps a spare page, an intent page, two one-page
	// map checkpoints and the spare pool behind the store's pages.
	spec.NumPages = storePages + 4 + churnSpares
	return kvShape{
		name:   "kvchurn",
		spec:   spec,
		spares: churnSpares,
		keys:   churnKeys,
		keyFmt: "k%06d",
		options: func() []kvs.Option {
			return []kvs.Option{
				kvs.WithCompaction(kvs.CompactionConfig{TriggerFreePages: 4, MaxGarbageRatio: 0.45}),
				kvs.WithCheckpoint(kvs.CheckpointConfig{SlotPages: slotPages, Interval: churnKeys / 2}),
			}
		},
		values:   func(rng *xrand.RNG) [][]byte { return randomValues(rng, 1024, churnValueSize) },
		putPct:   47,
		delPct:   3,
		hotKeys:  0.1,
		hotOps:   0.9,
		reboots:  3,
		warmPuts: churnKeys,
	}
}

// kvscan is the BENCH_inflash geometry (256 B pages, 4 banks, raw device)
// holding a 2k-device sensor fleet with the scan index on two bucketed
// fields, under a Put-heavy update stream with Gets and a few Scans.
const (
	scanKeys      = 2000
	scanValueSize = 24
	scanSel       = 100 // buckets of the "sel" field: 1 bucket = 1% of the fleet
	scanZones     = 8   // buckets of the "zone" field
)

func kvscanShape() kvShape {
	spec := flash.DefaultSpec()
	spec.PageSize = 256
	spec.NumPages = 1024
	spec.Banks = 4
	index := kvs.IndexSpec{
		MaxKeys: scanKeys,
		Fields: []kvs.IndexField{
			{Name: "sel", Buckets: scanSel, Extract: func(_ string, v []byte) int { return selOf(v) }},
			{Name: "zone", Buckets: scanZones, Extract: func(_ string, v []byte) int { return zoneOf(v) }},
		},
	}
	return kvShape{
		name:   "kvscan",
		spec:   spec,
		keys:   scanKeys,
		keyFmt: "dev%04d",
		options: func() []kvs.Option {
			return []kvs.Option{kvs.WithScanIndex(index), kvs.WithCompaction(kvs.CompactionConfig{})}
		},
		values: func(rng *xrand.RNG) [][]byte {
			vals := randomValues(rng, 4096, scanValueSize)
			for _, v := range vals {
				v[0] = byte(rng.Intn(scanSel))
				v[1] = byte(rng.Intn(scanZones))
			}
			return vals
		},
		putPct:   70,
		scanPct:  3,
		hotKeys:  0.1,
		hotOps:   0.5,
		reboots:  3,
		warmPuts: 2 * scanKeys,
		genPreds: scanPreds,
	}
}

func selOf(v []byte) int {
	if len(v) < 1 || int(v[0]) >= scanSel {
		return -1
	}
	return int(v[0])
}

func zoneOf(v []byte) int {
	if len(v) < 2 || int(v[1]) >= scanZones {
		return -1
	}
	return int(v[1])
}

// randomValues draws n values of the given size.
func randomValues(rng *xrand.RNG, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		for j := range out[i] {
			out[i][j] = rng.Byte()
		}
	}
	return out
}

// pred is a scan predicate the benchmark can evaluate on its own: the
// model's answer is computed from these fields, never from the library.
// A record matches when its sel bucket is in sel (or sel is nil) and its
// zone equals zone (or zone is negative); not negates the whole.
type pred struct {
	sel  []int
	zone int
	not  bool
	p    isc.Pred // the same predicate, for Store.Scan
}

func (p pred) match(v []byte) bool {
	ok := p.zone < 0 || zoneOf(v) == p.zone
	if ok && p.sel != nil {
		s, in := selOf(v), false
		for _, b := range p.sel {
			in = in || s == b
		}
		ok = in
	}
	return ok != p.not
}

// scanPreds draws predicates rotating through the four shapes: one sel
// bucket (~1%), ten (~10%), half the buckets And one zone (~6%), and Not of
// half the buckets (~50%).
func scanPreds(rng *xrand.RNG) []pred {
	run := func(n int) []int {
		lo := rng.Intn(scanSel)
		out := make([]int, n)
		for i := range out {
			out[i] = (lo + i) % scanSel
		}
		return out
	}
	var out []pred
	for i := 0; i < 64; i++ {
		var p pred
		switch i % 4 {
		case 0:
			p = pred{sel: run(1), zone: -1}
			p.p = isc.Eq("sel", p.sel[0])
		case 1:
			p = pred{sel: run(10), zone: -1}
			p.p = isc.In("sel", p.sel...)
		case 2:
			p = pred{sel: run(scanSel / 2), zone: rng.Intn(scanZones)}
			p.p = isc.And(isc.In("sel", p.sel...), isc.Eq("zone", p.zone))
		case 3:
			p = pred{sel: run(scanSel / 2), zone: -1, not: true}
			p.p = isc.Not(isc.In("sel", p.sel...))
		}
		out = append(out, p)
	}
	return out
}
