package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/kvs"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// kvShape describes one key-value workload: the device, the store's
// mount options, the key set, and the traffic mix. kvchurn and kvscan are
// two shapes of the same closed loop.
type kvShape struct {
	name    string
	spec    flash.Spec
	spares  int // > 0: the store runs on a journaled FTL with this many spares
	keys    int
	keyFmt  string
	options func() []kvs.Option

	// values is the pool Puts draw from; a key's value is an index into it.
	values func(rng *xrand.RNG) [][]byte

	// Traffic: percentages of Put, Delete and Scan (the rest are Gets), the
	// hot-key share and the share of ops aimed at hot keys.
	putPct, delPct, scanPct int
	hotKeys, hotOps         float64
	reboots                 int // reboots per round, evenly spaced
	warmPuts                int // hot/cold Puts of warm-up churn after population

	// genPreds draws the scan predicates the Scans rotate through.
	genPreds func(rng *xrand.RNG) []pred
}

// Op kinds of the generated traffic.
const (
	opPut = iota
	opGet
	opDel
	opScan
)

type kvOp struct {
	kind uint8
	key  int32 // key index (Put/Get/Delete)
	arg  int32 // value index (Put) or predicate index (Scan)
}

// kvBench runs one kvShape. The benchmark keeps a model of every key's
// value and checks each Get and Scan against it, and every key after
// each reboot.
type kvBench struct {
	kvShape
	seed  uint64
	tr    *tracer
	timed int

	keyNames []string
	pool     [][]byte
	preds    []pred
	populate []int32 // value index per key at population
	warm     []kvOp
	ops      []kvOp

	dev   *core.Device
	ftl   *ftl.FTL
	store *kvs.Store
	model []int32 // value index per key, -1 when absent

	// Per-mount stats of the layers rebuilt at each reboot, folded into
	// the fingerprint, and the counters of the timed phase.
	mounts  []string
	storeSt kvs.Stats // store stats at the start of the current timed stretch
	timedKV kvsCounters
}

// kvsCounters sums the store counters the timed phase moved.
type kvsCounters struct {
	scanCandidates, scanFalsePos, scanMatches uint64
	tailPages                                 uint64
}

func newKV(shape kvShape) func(seed uint64, ops int, tr *tracer) bench {
	return func(seed uint64, ops int, tr *tracer) bench {
		return &kvBench{kvShape: shape, seed: seed, tr: tr, timed: max(ops, 1)}
	}
}

func (k *kvBench) setup() error {
	rng := newRNG(k.seed, k.name)
	k.pool = k.values(rng)
	k.keyNames = make([]string, k.keys)
	k.populate = make([]int32, k.keys)
	for i := range k.keyNames {
		k.keyNames[i] = fmt.Sprintf(k.keyFmt, i)
		k.populate[i] = int32(rng.Intn(len(k.pool)))
	}
	if k.genPreds != nil {
		k.preds = k.genPreds(rng)
	}
	hot := max(1, int(float64(k.keys)*k.hotKeys))
	pick := func() int32 {
		if rng.Float64() < k.hotOps {
			return int32(rng.Intn(hot))
		}
		return int32(hot + rng.Intn(max(1, k.keys-hot)))
	}
	k.warm = make([]kvOp, k.warmPuts)
	for i := range k.warm {
		k.warm[i] = kvOp{kind: opPut, key: pick(), arg: int32(rng.Intn(len(k.pool)))}
	}
	k.ops = make([]kvOp, k.timed)
	scans := 0
	for i := range k.ops {
		op := kvOp{key: pick()}
		switch r := rng.Intn(100); {
		case r < k.putPct:
			op.kind, op.arg = opPut, int32(rng.Intn(len(k.pool)))
		case r < k.putPct+k.delPct:
			op.kind = opDel
		case r < k.putPct+k.delPct+k.scanPct:
			op.kind, op.arg = opScan, int32(scans%len(k.preds))
			scans++
		default:
			op.kind = opGet
		}
		k.ops[i] = op
	}

	var opts []core.Option
	if k.tr != nil {
		opts = append(opts, core.WithObserver(k.tr.obs))
	}
	dev, err := core.NewDevice(k.spec, opts...)
	if err != nil {
		return err
	}
	k.dev = dev
	if _, err := k.mount(); err != nil {
		return fmt.Errorf("first mount: %w", err)
	}
	k.model = make([]int32, k.keys)
	for i, v := range k.populate {
		if err := k.store.Put(k.keyNames[i], k.pool[v]); err != nil {
			return fmt.Errorf("populate key %d: %w", i, err)
		}
		k.model[i] = v
	}
	for i, op := range k.warm {
		if err := k.store.Put(k.keyNames[op.key], k.pool[op.arg]); err != nil {
			return fmt.Errorf("warm-up put %d: %w", i, err)
		}
		k.model[op.key] = op.arg
	}
	return nil
}

// mount (re)builds the software stack over the persistent flash array, as
// a reboot would, and returns the time spent opening the FTL.
func (k *kvBench) mount() (time.Duration, error) {
	if k.store != nil {
		k.mounts = append(k.mounts, fmt.Sprintf("%+v", k.store.Stats()))
	}
	if k.ftl != nil {
		k.mounts = append(k.mounts, fmt.Sprintf("%+v", k.ftl.Stats()))
	}
	var b kvs.Backend = rawBackend{k.dev}
	var ftlOpen time.Duration
	layer := "core"
	if k.spares > 0 {
		t := time.Now()
		f, err := ftl.Open(k.dev, ftl.WithSpares(k.spares))
		ftlOpen = time.Since(t)
		if err != nil {
			return 0, err
		}
		k.ftl, b, layer = f, f, "ftl"
	}
	var err error
	switch {
	case k.tr != nil:
		if b, err = wrapBackend(b, layer, k.tr); err != nil {
			return 0, err
		}
		k.store, err = kvs.OpenOn(b, k.options()...)
	case k.spares > 0:
		k.store, err = kvs.OpenOn(b, k.options()...)
	default:
		k.store, err = kvs.Open(k.dev, k.options()...)
	}
	return ftlOpen, err
}

func (k *kvBench) run(r *recorder) error {
	fl := k.dev.Flash()
	k.storeSt = k.store.Stats()
	r.resume()
	done := 0
	for i, op := range k.ops {
		if done < k.reboots && i == (done+1)*len(k.ops)/(k.reboots+1) {
			done++
			if err := k.reboot(r); err != nil {
				return fmt.Errorf("reboot before op %d: %w", i, err)
			}
		}
		k.do(r, fl, op)
	}
	k.foldStore()
	r.pause()
	return nil
}

// do issues one op, records it and checks its result against the model.
func (k *kvBench) do(r *recorder, fl *flash.Device, op kvOp) {
	key := k.keyNames[op.key]
	tr := k.tr
	var ks0 kvs.Stats
	var swaps0 uint64
	if tr != nil {
		tr.beginOp()
		ks0 = k.store.Stats()
		if k.ftl != nil {
			swaps0 = k.ftl.Stats().Swaps
		}
	}
	before := fl.Stats().Busy
	var err error
	var got []byte
	var res []kvs.KV
	t0 := time.Now()
	switch op.kind {
	case opPut:
		err = k.store.Put(key, k.pool[op.arg])
	case opDel:
		err = k.store.Delete(key)
	case opGet:
		got, err = k.store.Get(key)
	case opScan:
		res, err = k.store.Scan(k.preds[op.arg].p)
	}
	d := time.Since(t0)

	wrong := false
	switch op.kind {
	case opPut:
		r.write(d, fl.Stats().Busy-before, len(key)+len(k.pool[op.arg]))
		if err == nil {
			k.model[op.key] = op.arg
		}
	case opDel:
		r.write(d, fl.Stats().Busy-before, len(key))
		if err == nil {
			k.model[op.key] = -1
		}
	case opGet:
		r.op(classRead, d)
		if v := k.model[op.key]; v < 0 {
			wrong = !errors.Is(err, kvs.ErrNotFound)
			err = nil
		} else {
			wrong = err == nil && !bytes.Equal(got, k.pool[v])
		}
	case opScan:
		r.op(classScan, d)
		if err == nil {
			wrong = !k.scanMatches(k.preds[op.arg], res)
			k.timedKV.scanMatches += uint64(len(res))
		}
	}
	if err != nil || wrong {
		r.failed++
	}
	if tr != nil {
		k.traceOp(op, d, ks0, swaps0)
	}
}

// scanMatches checks a scan result against the model's own evaluation of
// the predicate: the same keys in key order, each with its model value.
func (k *kvBench) scanMatches(p pred, res []kvs.KV) bool {
	j := 0
	for i, v := range k.model {
		if v < 0 || !p.match(k.pool[v]) {
			continue
		}
		if j >= len(res) || res[j].Key != k.keyNames[i] || !bytes.Equal(res[j].Val, k.pool[v]) {
			return false
		}
		j++
	}
	return j == len(res)
}

// traceOp books one op's per-layer figures.
func (k *kvBench) traceOp(op kvOp, d time.Duration, ks0 kvs.Stats, swaps0 uint64) {
	tr := k.tr
	ks := k.store.Stats()
	self := d - tr.below
	if k.ftl != nil {
		tr.add("ftl.swaps", float64(k.ftl.Stats().Swaps-swaps0))
	}
	switch op.kind {
	case opPut:
		tr.sample("kvs.put_self_us", self)
		tr.add("kvs.puts", 1)
		tr.add("kvs.backend_writes", float64(tr.calls[callWrite]))
		tr.add("isc.index_programs", float64(tr.calls[callProgram]))
		if ks.Compactions != ks0.Compactions {
			tr.add("kvs.gc_puts", 1)
			tr.sample("kvs.gc_put_us", d)
		}
		if ks.Checkpoints != ks0.Checkpoints {
			tr.sample("kvs.ckpt_put_us", d)
		}
	case opGet:
		tr.sample("kvs.get_self_us", self)
		tr.add("kvs.gets", 1)
		tr.add("kvs.backend_reads", float64(tr.calls[callRead]))
	case opScan:
		tr.sample("kvs.scan_self_us", self)
		tr.add("isc.senses", float64(tr.calls[callSenseMulti]))
		tr.add("isc.sense_pages", float64(tr.pages))
	}
}

// reboot drops the software stack and mounts it again over the same flash
// array, then (with the clock paused) checks every key against the model.
func (k *kvBench) reboot(r *recorder) error {
	k.foldStore()
	fl := k.dev.Flash()
	before := fl.Stats().Busy
	if k.tr != nil {
		k.tr.beginOp()
	}
	t0 := time.Now()
	ftlOpen, err := k.mount()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	r.mount(d, fl.Stats().Busy-before)
	st := k.store.Stats()
	k.timedKV.tailPages += st.TailPagesReplayed
	if k.tr != nil {
		k.tr.sample("kvs.mount_self_us", d-ftlOpen-k.tr.below)
		if k.ftl != nil {
			k.tr.sample("ftl.open_us", ftlOpen)
		}
	}

	r.pause()
	for i, v := range k.model {
		got, err := k.store.Get(k.keyNames[i])
		if v < 0 {
			if !errors.Is(err, kvs.ErrNotFound) {
				r.failed++
			}
		} else if err != nil || !bytes.Equal(got, k.pool[v]) {
			r.failed++
		}
	}
	k.storeSt = k.store.Stats()
	r.resume()
	return nil
}

// foldStore adds the current store's scan counters since the start of the
// timed stretch to the timed totals.
func (k *kvBench) foldStore() {
	st := k.store.Stats()
	k.timedKV.scanCandidates += st.ScanCandidates - k.storeSt.ScanCandidates
	k.timedKV.scanFalsePos += st.ScanFalsePositives - k.storeSt.ScanFalsePositives
	k.storeSt = st
}

func (k *kvBench) report(r *recorder, e2e, layers metrics) {
	e2e.det("space_amp", k.store.SpaceAmplification(), "ratio", 1)
	tr := k.tr
	if tr == nil {
		return
	}
	n := func(name string) int { return len(tr.lat[name]) }
	puts, gets := tr.sum["kvs.puts"], tr.sum["kvs.gets"]
	layers.host("kvs.put_self_us_p50", tr.p("kvs.put_self_us", 0.5), "us", n("kvs.put_self_us"))
	layers.host("kvs.put_self_us_p99", tr.p("kvs.put_self_us", 0.99), "us", n("kvs.put_self_us"))
	layers.host("kvs.get_self_us_p50", tr.p("kvs.get_self_us", 0.5), "us", n("kvs.get_self_us"))
	layers.host("kvs.mount_self_ms", tr.p("kvs.mount_self_us", 0.5)/1000, "ms", n("kvs.mount_self_us"))
	layers.det("kvs.tail_pages_per_mount", ratio(float64(k.timedKV.tailPages), float64(len(r.mountHost))), "count", len(r.mountHost))
	layers.det("kvs.gc_puts_per_kop", 1000*ratio(tr.sum["kvs.gc_puts"], puts), "count", int(puts))
	if n("kvs.gc_put_us") > 0 {
		layers.host("kvs.gc_put_us_p50", tr.p("kvs.gc_put_us", 0.5), "us", n("kvs.gc_put_us"))
	}
	if n("kvs.ckpt_put_us") > 0 {
		layers.host("kvs.ckpt_put_us_p50", tr.p("kvs.ckpt_put_us", 0.5), "us", n("kvs.ckpt_put_us"))
	}
	layers.det("kvs.backend_writes_per_put", ratio(tr.sum["kvs.backend_writes"], puts), "count", int(puts))
	layers.det("kvs.backend_reads_per_get", ratio(tr.sum["kvs.backend_reads"], gets), "count", int(gets))
	if scans := n("kvs.scan_self_us"); scans > 0 {
		c := k.timedKV
		layers.host("kvs.scan_self_us_p50", tr.p("kvs.scan_self_us", 0.5), "us", scans)
		layers.det("kvs.scan_candidates_per_match", ratio(float64(c.scanCandidates), float64(c.scanMatches)), "count", int(c.scanMatches))
		layers.det("kvs.scan_false_pos_frac", ratio(float64(c.scanFalsePos), float64(c.scanCandidates)), "fraction", int(c.scanCandidates))
		layers.det("isc.senses_per_scan", tr.sum["isc.senses"]/float64(scans), "count", scans)
		layers.det("isc.pages_per_sense", ratio(tr.sum["isc.sense_pages"], tr.sum["isc.senses"]), "count", int(tr.sum["isc.senses"]))
		layers.host("isc.sense_us_p50", tr.p("isc.sense_us", 0.5), "us", n("isc.sense_us"))
		layers.det("isc.index_programs_per_put", ratio(tr.sum["isc.index_programs"], puts), "count", int(puts))
	}
	layer := "core"
	if k.ftl != nil {
		layer = "ftl"
		layers.host("ftl.write_us_p99", tr.p("ftl.write_us", 0.99), "us", n("ftl.write_us"))
		layers.host("ftl.read_us_p50", tr.p("ftl.read_us", 0.5), "us", n("ftl.read_us"))
		layers.det("ftl.swaps_per_kop", 1000*tr.sum["ftl.swaps"]/float64(r.ops), "count", r.ops)
		layers.host("ftl.open_ms", tr.p("ftl.open_us", 0.5)/1000, "ms", n("ftl.open_us"))
	}
	layers.host(layer+".write_us_p50", tr.p(layer+".write_us", 0.5), "us", n(layer+".write_us"))
	layers.host(layer+".erase_us_p50", tr.p(layer+".erase_us", 0.5), "us", n(layer+".erase_us"))
}

func (k *kvBench) flash() *flash.Device { return k.dev.Flash() }

func (k *kvBench) fingerprint() string {
	parts := []any{k.dev.Stats(), k.store.Stats()}
	if k.ftl != nil {
		parts = append(parts, k.ftl.Stats())
	}
	for _, m := range k.mounts {
		parts = append(parts, m)
	}
	return fingerprint(k.dev.Flash(), parts...)
}

func (k *kvBench) close() {
	if k.dev != nil {
		k.dev.Close()
	}
}
