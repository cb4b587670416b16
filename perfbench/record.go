package main

import (
	"math"
	"sort"
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// Op classes the recorder keeps host latencies for.
const (
	classWrite = "write"
	classRead  = "read"
	classScan  = "scan"
)

// slices is how many equal, consecutive slices of a round's ops the
// host-timed figures are computed over. Noise from elsewhere on the
// machine comes in bursts; a figure taken per slice and reduced across
// every slice of every round (merge) is not moved by a burst that spoils
// some of them.
const slices = 8

// recorder collects the timed phase of one round: host latency per op
// class and slice, the simulated device cost of the workload's own
// operations (mounts included), and the wall time each slice took. The
// benchmark's own correctness sweeps run between pause and resume, so
// neither their host time nor their device cost is counted.
type recorder struct {
	dev     *flash.Device
	tr      *tracer // nil unless traced
	planned int     // ops the round issues

	ops       int
	attempted int
	failed    int

	cur   int
	slice [slices]struct {
		ops     int
		elapsed time.Duration
		lat     map[string][]float64 // host µs by op class
	}
	mark time.Time

	devWrite  []float64 // device busy µs per write op
	mountHost []float64 // host ms per reboot
	mountDev  []float64 // device busy ms per reboot

	devMark   flash.Stats
	devTotal  flash.Stats
	userBytes int64
}

func newRecorder(dev *flash.Device, tr *tracer, planned int) *recorder {
	r := &recorder{dev: dev, tr: tr, planned: max(planned, 1)}
	for i := range r.slice {
		r.slice[i].lat = map[string][]float64{}
	}
	return r
}

// resume starts (or restarts) the clock and the device accounting.
func (r *recorder) resume() {
	r.devMark = r.dev.Stats()
	if r.tr != nil {
		r.tr.setActive(true)
	}
	r.mark = time.Now()
}

// pause stops the clock and folds the device cost since resume.
func (r *recorder) pause() {
	r.slice[r.cur].elapsed += time.Since(r.mark)
	if r.tr != nil {
		r.tr.setActive(false)
	}
	r.devTotal = r.devTotal.Add(r.dev.Stats().Sub(r.devMark))
}

// op records one completed timed op of the given class and host latency,
// moving to the next slice when this op completes the current one.
func (r *recorder) op(class string, d time.Duration) {
	s := &r.slice[r.cur]
	s.lat[class] = append(s.lat[class], us(d))
	s.ops++
	r.ops++
	r.attempted++
	if c := r.ops * slices / r.planned; c != r.cur && c < slices {
		now := time.Now()
		s.elapsed += now.Sub(r.mark)
		r.mark = now
		r.cur = c
	}
}

// write records a write op: its host latency, the device busy time it
// charged and the user bytes it stored.
func (r *recorder) write(d, busy time.Duration, bytes int) {
	r.op(classWrite, d)
	r.devWrite = append(r.devWrite, us(busy))
	r.userBytes += int64(bytes)
}

// mount records one reboot that has just taken host time. Reboots are
// reported as mount_ms, so their time is kept out of the slice's
// throughput: slices with and without a reboot then compare like for like.
func (r *recorder) mount(host, busy time.Duration) {
	r.mark = r.mark.Add(host)
	r.attempted++
	r.mountHost = append(r.mountHost, ms(host))
	r.mountDev = append(r.mountDev, ms(busy))
}

// sliceMetrics returns the host-timed throughput and latency figures of
// each slice.
func (r *recorder) sliceMetrics() []metrics {
	var out []metrics
	for _, s := range r.slice {
		if s.ops == 0 || s.elapsed <= 0 {
			continue
		}
		m := metrics{}
		m.host("ops_per_s", float64(s.ops)/s.elapsed.Seconds(), "1/s", s.ops)
		for _, c := range []string{classWrite, classRead, classScan} {
			if lat := s.lat[c]; len(lat) > 0 {
				m.host(c+"_p50_us", quantile(lat, 0.50), "us", len(lat))
				m.host(c+"_p99_us", quantile(lat, 0.99), "us", len(lat))
			}
		}
		out = append(out, m)
	}
	return out
}

// roundMetrics fills the figures taken over the whole round: reboots and
// the simulated device cost.
func (r *recorder) roundMetrics(m metrics) {
	ops := float64(r.ops)
	if n := len(r.mountHost); n > 0 {
		m.host("mount_ms", quantile(r.mountHost, 0.5), "ms", n)
		m.det("dev_mount_ms", quantile(r.mountDev, 0.5), "ms", n)
	}
	m.det("dev_write_p999_us", quantile(r.devWrite, 0.999), "us", len(r.devWrite))
	m.det("dev_us_per_op", us(r.devTotal.Busy)/ops, "us", r.ops)
	m.det("energy_uj_per_op", uj(r.devTotal.Energy)/ops, "uJ", r.ops)
	m.det("erases_per_mib", float64(r.devTotal.Erases)/(float64(r.userBytes)/(1<<20)), "count/MiB", r.ops)
	m.det("error_rate", ratio(float64(r.failed), float64(r.attempted)), "fraction", r.attempted)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func uj(e energy.Energy) float64 { return float64(e / energy.Microjoule) }
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported figure. Kind says whether it is host wall-clock
// time ("host") or repeats exactly for a seed ("deterministic": the
// simulator's device model, output error, space use); Samples is how many
// observations it summarises.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Kind    string  `json:"kind"`
	Samples int     `json:"samples"`
}

type metrics map[string]metric

func (m metrics) host(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, Kind: "host", Samples: n}
}

func (m metrics) det(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, Kind: "deterministic", Samples: n}
}

// merge combines the figures of a run's rounds. A deterministic figure is
// the same in every round and is taken from the last. A host-timed figure of
// the whole round (set-up, mounts) is the median across rounds. A
// host-timed figure of a slice is the best across every slice of every
// round: interference from other work on the machine only ever slows a
// slice down, so the least disturbed slice is the steadiest measure of the
// program's own cost.
func merge(wholes, sliced []metrics) metrics {
	out := metrics{}
	reduce := func(parts []metrics, pick func(name string, vals []float64) float64) {
		vals := map[string][]float64{}
		for _, p := range parts {
			for name, m := range p {
				if m.Kind != "host" {
					out[name] = m
					continue
				}
				vals[name] = append(vals[name], m.Value)
				acc := out[name]
				acc.Unit, acc.Kind, acc.Samples = m.Unit, m.Kind, acc.Samples+m.Samples
				out[name] = acc
			}
		}
		for name, v := range vals {
			m := out[name]
			m.Value = pick(name, v)
			out[name] = m
		}
	}
	reduce(wholes, func(_ string, v []float64) float64 { return quantile(v, 0.5) })
	reduce(sliced, func(name string, v []float64) float64 {
		if name == "ops_per_s" {
			return quantile(v, 1)
		}
		return quantile(v, 0)
	})
	return out
}
