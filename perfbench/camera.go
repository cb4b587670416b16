package main

import (
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/video"
)

// The camera workload is the paper's own: sixteen sensor clips, each
// overwriting its own slot of the approximate region frame after frame
// through the async commit pipeline, with every frame read back and scored.
// Clips take slots in a seed-permuted order and each starts at a
// seed-chosen frame. Frames are issued round-robin across the slots.
const (
	cameraThreshold = 2.0 // MAE threshold of the Fig. 10 operating point
	cameraEncoderN  = 2
	cameraDepth     = 8 // async group-commit depth per bank
)

type camera struct {
	seed  uint64
	tr    *tracer
	timed int // frames in the timed phase

	clips [][]video.Frame // by slot, every frame of the slot's clip
	phase []int           // first frame of each slot's clip
	warm  int             // frames in one full pass over the suite
	size  int             // bytes per frame

	dev *core.Device
	buf []byte

	absErr uint64 // Σ|exact − stored| over every timed read-back byte
	scored uint64 // bytes scored
	ctrl0  core.Stats
}

func newCamera(seed uint64, ops int, tr *tracer) bench {
	return &camera{seed: seed, tr: tr, timed: max(ops/2, 1)}
}

func (c *camera) setup() error {
	suite := video.Suite()
	rng := newRNG(c.seed, "camera")
	perm := rng.Perm(len(suite))
	c.clips = make([][]video.Frame, len(suite))
	c.phase = make([]int, len(suite))
	c.warm = 0
	for slot, ci := range perm {
		v := suite[ci]
		for t := 0; t < v.Frames; t++ {
			c.clips[slot] = append(c.clips[slot], v.Frame(t))
		}
		c.phase[slot] = rng.Intn(v.Frames)
		c.size = v.Size()
		c.warm += v.Frames
	}

	opts := []core.Option{core.WithAsyncCommit(cameraDepth)}
	if c.tr != nil {
		opts = append(opts, core.WithObserver(c.tr.obs))
	}
	dev, err := core.NewDevice(flash.DefaultSpec(), opts...)
	if err != nil {
		return err
	}
	c.dev = dev
	dev.SetEncoder(approx.MustNBit(cameraEncoderN))
	if err := dev.SetApproxRegion(0, len(c.clips)*c.size); err != nil {
		return err
	}
	if err := dev.SetWidth(bits.W8); err != nil {
		return err
	}
	dev.SetThreshold(cameraThreshold)
	c.buf = make([]byte, c.size)

	// One full pass: first writes land on erased pages and never erase, so
	// the timed frames start from the steady state of overwritten slots.
	for g := 0; g < c.warm; g++ {
		slot, exact := c.frame(g)
		if err := dev.WriteAsync(slot*c.size, exact).Wait(); err != nil {
			return fmt.Errorf("warm-up frame %d: %w", g, err)
		}
	}
	return nil
}

// frame returns the slot and content of the g-th frame of the schedule.
func (c *camera) frame(g int) (int, video.Frame) {
	slot := g % len(c.clips)
	frames := c.clips[slot]
	return slot, frames[(c.phase[slot]+g/len(c.clips))%len(frames)]
}

func (c *camera) run(r *recorder) error {
	fl := c.dev.Flash()
	c.ctrl0 = c.dev.Stats()
	r.resume()
	for i := 0; i < c.timed; i++ {
		slot, exact := c.frame(c.warm + i)
		addr := slot * c.size

		before := fl.Stats().Busy
		t0 := time.Now()
		commit := c.dev.WriteAsync(addr, exact)
		t1 := time.Now()
		err := commit.Wait()
		d := time.Since(t0)
		r.write(d, fl.Stats().Busy-before, len(exact))
		if err != nil {
			r.failed++
		}
		if c.tr != nil {
			c.tr.sample("core.enqueue_us", t1.Sub(t0))
			c.tr.sample("core.wait_us", d-t1.Sub(t0))
		}

		t0 = time.Now()
		err = c.dev.Read(addr, c.buf)
		d = time.Since(t0)
		r.op(classRead, d)
		if c.tr != nil {
			c.tr.sample("core.read_us", d)
		}
		if err != nil {
			r.failed++
			continue
		}
		if !c.score(exact, c.buf) {
			r.failed++
		}
	}
	r.pause()
	return nil
}

// score adds a read-back frame to the error sum and checks the output
// oracle: every page must be within the MAE threshold of the exact frame.
func (c *camera) score(exact, stored []byte) bool {
	ps := c.dev.Flash().Spec().PageSize
	ok := true
	for off := 0; off < len(exact); off += ps {
		var sum uint64
		for i := off; i < off+ps && i < len(exact); i++ {
			d := int(exact[i]) - int(stored[i])
			if d < 0 {
				d = -d
			}
			sum += uint64(d)
		}
		if float64(sum) > cameraThreshold*float64(min(ps, len(exact)-off)) {
			ok = false
		}
		c.absErr += sum
	}
	c.scored += uint64(len(exact))
	return ok
}

func (c *camera) report(r *recorder, e2e, layers metrics) {
	e2e.det("mae", ratio(float64(c.absErr), float64(c.scored)), "value", int(c.scored))
	if c.tr == nil {
		return
	}
	t := c.tr
	layers.host("core.enqueue_us_p50", t.p("core.enqueue_us", 0.5), "us", len(t.lat["core.enqueue_us"]))
	layers.host("core.wait_us_p50", t.p("core.wait_us", 0.5), "us", len(t.lat["core.wait_us"]))
	layers.host("core.wait_us_p99", t.p("core.wait_us", 0.99), "us", len(t.lat["core.wait_us"]))
	layers.host("core.read_us_p50", t.p("core.read_us", 0.5), "us", len(t.lat["core.read_us"]))
	st := c.dev.Stats()
	pa, pe := st.PagesApprox-c.ctrl0.PagesApprox, st.PagesExact-c.ctrl0.PagesExact
	layers.det("approx.page_approx_frac", ratio(float64(pa), float64(pa+pe)), "fraction", int(pa+pe))
	va, vt := st.ValuesApproximated-c.ctrl0.ValuesApproximated, st.ValuesTotal-c.ctrl0.ValuesTotal
	layers.det("approx.value_approx_frac", ratio(float64(va), float64(vt)), "fraction", int(vt))
}

func (c *camera) flash() *flash.Device { return c.dev.Flash() }

func (c *camera) fingerprint() string {
	return fingerprint(c.dev.Flash(), c.dev.Stats())
}

func (c *camera) close() {
	if c.dev != nil {
		c.dev.Close()
	}
}
