package video

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestFlickerSteps: the auto-exposure gain step must shift whole frames at
// flicker boundaries and leave adjacent frames within a flicker block
// similar.
func TestFlickerSteps(t *testing.T) {
	v := &Video{
		ID: 2001, Name: "flicker", Width: 16, Height: 16, Frames: 40,
		seed: 5, noiseSigma: 0, flickerEvery: 10, flickerAmp: 8,
	}
	within := MSE(v.Frame(3), v.Frame(4))  // same gain block, no noise
	across := MSE(v.Frame(9), v.Frame(10)) // gain steps here
	if within != 0 {
		t.Errorf("noise-free frames within a gain block differ: MSE %v", within)
	}
	if across < 30 { // amp 8 → MSE ≈ 64 on most pixels
		t.Errorf("gain boundary MSE %v too small; flicker inactive", across)
	}
}

// TestWaterline: shimmer must move only pixels below the waterline.
func TestWaterline(t *testing.T) {
	v := &Video{
		ID: 2002, Name: "water", Width: 16, Height: 16, Frames: 10,
		seed: 7, noiseSigma: 0, shimmer: 10, waterline: 0.5,
	}
	a, b := v.Frame(0), v.Frame(1)
	var skyDiff, seaDiff int
	for y := 0; y < v.Height; y++ {
		for x := 0; x < v.Width; x++ {
			d := int(a[y*v.Width+x]) - int(b[y*v.Width+x])
			if d < 0 {
				d = -d
			}
			if y < v.Height/2 {
				skyDiff += d
			} else {
				seaDiff += d
			}
		}
	}
	if skyDiff != 0 {
		t.Errorf("sky above the waterline moved: total diff %d", skyDiff)
	}
	if seaDiff == 0 {
		t.Error("water below the waterline did not shimmer")
	}
}

// TestBackgroundFrameMatchesObjectFreeScene: Frame minus objects and noise
// must equal BackgroundFrame exactly.
func TestBackgroundFrameMatchesObjectFreeScene(t *testing.T) {
	v := &Video{
		ID: 2003, Name: "bg", Width: 16, Height: 16, Frames: 5,
		seed: 9, noiseSigma: 0, flickerEvery: 3, flickerAmp: 6, panSpeed: 0.5,
	}
	for ti := 0; ti < 5; ti++ {
		f := v.Frame(ti)
		bg := v.BackgroundFrame(ti)
		for i := range f {
			if f[i] != bg[i] {
				t.Fatalf("t=%d pixel %d: frame %d != background %d", ti, i, f[i], bg[i])
			}
		}
	}
}

func TestBounceReflects(t *testing.T) {
	cases := []struct {
		x, limit, want float64
	}{
		{5, 10, 5},
		{12, 10, 8}, // reflect off the far edge
		{-3, 10, 3}, // reflect off zero
		{25, 10, 5}, // full period wrap
	}
	for _, c := range cases {
		if got := bounce(c.x, c.limit); got != c.want {
			t.Errorf("bounce(%v, %v) = %v, want %v", c.x, c.limit, got, c.want)
		}
	}
}

func TestClampByte(t *testing.T) {
	if clampByte(-5) != 0 || clampByte(300) != 255 || clampByte(99.6) != 100 {
		t.Error("clampByte wrong")
	}
}

// The reference renderer below evaluates the scene pixel by pixel, exactly
// as the package did before frames were rendered from per-frame tables.
// The table renderer must reproduce it byte for byte.

func referenceFrame(v *Video, t int) Frame {
	f := make(Frame, v.Size())
	// Per-frame noise stream; the background pattern stream is fixed.
	noise := xrand.New(v.seed*1000003 + uint64(t)*7919)
	pan := v.panSpeed * float64(t)
	gain := 0.0
	if v.flickerEvery > 0 {
		// Gain alternates between two steps, so each flicker boundary
		// shifts every pixel by flickerAmp at once.
		if (t/v.flickerEvery)%2 == 1 {
			gain = v.flickerAmp
		}
	}
	for y := 0; y < v.Height; y++ {
		for x := 0; x < v.Width; x++ {
			val := referenceBackground(v, float64(x)+pan, float64(y), t) + gain
			for _, o := range v.objects {
				val = referenceRender(o, val, x, y, t, v.Width, v.Height)
			}
			if v.noiseSigma > 0 {
				val += noise.NormFloat64() * v.noiseSigma
			}
			f[y*v.Width+x] = clampByte(val)
		}
	}
	return f
}

// referenceBackground returns the scene luminance at (fractional) scene
// coordinates.
func referenceBackground(v *Video, x, y float64, t int) float64 {
	// Smooth deterministic texture from a few sinusoids keyed by seed.
	s := float64(v.seed%97) * 0.13
	val := 110 +
		35*math.Sin(0.11*x+s) +
		25*math.Cos(0.07*y+0.5*s) +
		15*math.Sin(0.05*(x+y)+2*s)
	if v.shimmer > 0 && y >= v.waterline*float64(v.Height) {
		// Water-like shimmer: spatial waves drifting every frame,
		// below the waterline only (the sky stays still).
		ph := float64(t) * 0.9
		val += v.shimmer * math.Sin(0.45*x+0.31*y+ph)
		val += 0.6 * v.shimmer * math.Sin(0.23*x-0.51*y-1.7*ph)
	}
	return val
}

// referenceRender draws the object's disc over the pixel value if covered.
func referenceRender(o object, val float64, x, y, t, w, h int) float64 {
	cx, cy := o.pos(t, w, h)
	dx, dy := float64(x)-cx, float64(y)-cy
	d2 := dx*dx + dy*dy
	r2 := o.radius * o.radius
	if d2 < r2 {
		// Soft edge to avoid single-pixel aliasing artifacts.
		edge := 1 - d2/r2
		if edge > 0.25 {
			edge = 1
		} else {
			edge *= 4
		}
		return val*(1-edge) + o.brightness*edge
	}
	return val
}

func referenceBackgroundFrame(v *Video, t int) Frame {
	f := make(Frame, v.Size())
	pan := v.panSpeed * float64(t)
	gain := 0.0
	if v.flickerEvery > 0 && (t/v.flickerEvery)%2 == 1 {
		gain = v.flickerAmp
	}
	for y := 0; y < v.Height; y++ {
		for x := 0; x < v.Width; x++ {
			f[y*v.Width+x] = clampByte(referenceBackground(v, float64(x)+pan, float64(y), t) + gain)
		}
	}
	return f
}

// edgeClips are hand-built clips that reach the renderer's corners: a
// fractional pan with shimmer everywhere, no noise and no flicker, discs
// that bounce off and straddle every edge, and non-square frames.
func edgeClips() []*Video {
	disc := func(cx, cy, vx, vy, r, bright float64) object {
		return object{cx: cx, cy: cy, vx: vx, vy: vy, radius: r, brightness: bright}
	}
	edges := []object{
		disc(0, 8, 0, 0, 5, 240),       // straddles the left edge
		disc(31, 8, 0, 0, 5, 20),       // straddles the right edge
		disc(16, 0, 0, 0, 6, 200),      // straddles the top edge
		disc(16, 15, 0, 0, 6, 60),      // straddles the bottom edge
		disc(2, 3, -2.7, 1.9, 4, 230),  // bounces off every edge
		disc(29, 13, 3.3, -2.3, 7, 10), // larger than the short side
	}
	return []*Video{
		{ID: 3001, Name: "pan-water", Width: 32, Height: 16, Frames: 30,
			seed: 11, noiseSigma: 1.5, shimmer: 9, waterline: 0, panSpeed: 0.37,
			flickerEvery: 4, flickerAmp: 6},
		{ID: 3002, Name: "quiet", Width: 32, Height: 16, Frames: 30,
			seed: 12, noiseSigma: 0, shimmer: 4, waterline: 0.5, panSpeed: -0.21},
		{ID: 3003, Name: "edges", Width: 32, Height: 16, Frames: 30,
			seed: 13, noiseSigma: 1.1, shimmer: 6, waterline: 0.3, objects: edges,
			flickerEvery: 5, flickerAmp: 9},
		{ID: 3004, Name: "edges-pan", Width: 32, Height: 16, Frames: 30,
			seed: 14, noiseSigma: 0, panSpeed: 0.5, objects: edges},
		{ID: 3005, Name: "odd", Width: 17, Height: 9, Frames: 30,
			seed: 15, noiseSigma: 1.3, shimmer: 7, waterline: 0.45, panSpeed: 0.15,
			objects:      []object{disc(3, 4, 1.7, 0.9, 4, 225), disc(14, 2, -1.1, 0.6, 3, 35)},
			flickerEvery: 7, flickerAmp: 7},
		{ID: 3006, Name: "column", Width: 1, Height: 9, Frames: 5,
			seed: 16, noiseSigma: 1, shimmer: 3, objects: []object{disc(0, 4, 0.3, 0.8, 2, 250)}},
		{ID: 3007, Name: "empty", Width: 0, Height: 9, Frames: 2, seed: 17, noiseSigma: 1},
	}
}

// TestFrameMatchesReference: the table renderer reproduces the per-pixel
// reference byte for byte, for every suite frame and every edge clip.
func TestFrameMatchesReference(t *testing.T) {
	clips := append(Suite(), edgeClips()...)
	for _, v := range clips {
		for ti := 0; ti < v.Frames; ti++ {
			for _, c := range []struct {
				kind      string
				got, want Frame
			}{
				{"Frame", v.Frame(ti), referenceFrame(v, ti)},
				{"BackgroundFrame", v.BackgroundFrame(ti), referenceBackgroundFrame(v, ti)},
			} {
				if len(c.got) != len(c.want) {
					t.Fatalf("%s %s(%d): %d bytes, reference %d", v, c.kind, ti, len(c.got), len(c.want))
				}
				for i := range c.got {
					if c.got[i] != c.want[i] {
						t.Fatalf("%s %s(%d) pixel (%d,%d) = %d, reference %d",
							v, c.kind, ti, i%v.Width, i/v.Width, c.got[i], c.want[i])
					}
				}
			}
		}
	}
}

// TestFrameMatchesReferenceAtRoundingEdges: byte equality alone almost
// never sees a one-ulp difference, because a pixel must sit within an ulp
// of a rounding boundary for it to change a byte. So for each pixel, bisect
// the gain step down to the two adjacent gains between which the
// reference pixel rounds up to the next byte. The renderer must round the
// same way at both gains; any reordering of that pixel's arithmetic moves
// its boundary and fails here.
func TestFrameMatchesReferenceAtRoundingEdges(t *testing.T) {
	disc := func(cx, cy, vx, vy, r, bright float64) object {
		return object{cx: cx, cy: cy, vx: vx, vy: vy, radius: r, brightness: bright}
	}
	objs := []object{disc(3, 2, 0.4, 0.3, 3.5, 230), disc(9, 4, -0.6, 0.2, 2.5, 30)}
	probes := []Video{
		{ID: 3101, Name: "probe-still", Width: 12, Height: 6, Frames: 4,
			seed: 21, noiseSigma: 1.2, shimmer: 5.3, waterline: 0.4, objects: objs},
		{ID: 3102, Name: "probe-pan", Width: 12, Height: 6, Frames: 4,
			seed: 22, shimmer: 7.7, panSpeed: 0.37, objects: objs},
	}
	renderers := []struct {
		kind      string
		got, want func(v *Video, t int) Frame
	}{
		{"Frame", (*Video).Frame, referenceFrame},
		{"BackgroundFrame", (*Video).BackgroundFrame, referenceBackgroundFrame},
	}
	probed := 0
	for _, base := range probes {
		for _, r := range renderers {
			for ti := 1; ti < base.Frames; ti += 2 { // gain is on in odd frames
				at := func(render func(v *Video, t int) Frame, gain float64, i int) byte {
					v := base
					v.flickerEvery, v.flickerAmp = 1, gain
					return render(&v, ti)[i]
				}
				for i := 0; i < base.Size(); i++ {
					lo, hi := 0.0, 1.0
					if at(r.want, lo, i) == at(r.want, hi, i) {
						continue // covered by an opaque disc, or clamped
					}
					for {
						mid := lo + (hi-lo)/2
						if mid <= lo || mid >= hi {
							break
						}
						if at(r.want, mid, i) == at(r.want, lo, i) {
							lo = mid
						} else {
							hi = mid
						}
					}
					for _, g := range []float64{lo, hi} {
						if got, want := at(r.got, g, i), at(r.want, g, i); got != want {
							t.Fatalf("%s %s(%d) pixel %d at gain %v: %d, reference %d",
								base.Name, r.kind, ti, i, g, got, want)
						}
					}
					probed++
				}
			}
		}
	}
	if probed < 300 {
		t.Errorf("only %d pixels probed at a rounding edge", probed)
	}
}

// suiteDigest is the FNV-64a of every Frame(t) and BackgroundFrame(t) of
// the suite, in suite and frame order, as rendered per pixel on amd64.
// Every video figure is computed from these bytes: a change to the scene
// model, or a compiler that fuses multiply-adds, moves it.
const suiteDigest uint64 = 0xf60eeeaa228d7710

func TestSuiteDigest(t *testing.T) {
	h := fnv.New64a()
	for _, v := range Suite() {
		for ti := 0; ti < v.Frames; ti++ {
			h.Write(v.Frame(ti))
			h.Write(v.BackgroundFrame(ti))
		}
	}
	if got := h.Sum64(); got != suiteDigest {
		t.Errorf("suite digest %#016x, want %#016x: every video figure would shift", got, suiteDigest)
	}
}

// renderSink keeps the benchmarked frames live.
var renderSink Frame

func benchmarkRender(b *testing.B, render func(v *Video, t int) Frame) {
	// The heaviest clip of each suite family.
	for _, v := range []*Video{ByID(4), ByID(8), ByID(12), ByID(16)} {
		family, _, _ := strings.Cut(v.Name, "-")
		b.Run(family, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(v.Size()))
			for i := 0; i < b.N; i++ {
				renderSink = render(v, i%v.Frames)
			}
		})
	}
}

func BenchmarkFrame(b *testing.B) {
	benchmarkRender(b, (*Video).Frame)
}

func BenchmarkBackgroundFrame(b *testing.B) {
	benchmarkRender(b, (*Video).BackgroundFrame)
}
