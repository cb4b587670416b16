// Package video provides the "sense and send" workload of the paper (§IV):
// an IoT camera writing frames to flash before transmission. Because the
// Xiph.org test videos cannot ship with the repository, a procedural
// generator synthesizes a benchmark suite spanning the same axis that
// matters to FlipBit — temporal similarity between consecutive frames at
// fixed flash addresses — from fully static scenes through talking-head
// style local motion to high-motion scenes over shimmering water.
package video

import (
	"fmt"
	"math"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Frame is an 8-bit grayscale image, row major.
type Frame []byte

// Box is an axis-aligned bounding box (inclusive min, exclusive max).
type Box struct {
	X0, Y0, X1, Y1 int
}

// Area returns the box area in pixels.
func (b Box) Area() int {
	w, h := b.X1-b.X0, b.Y1-b.Y0
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Intersect returns the intersection area of two boxes.
func (b Box) Intersect(o Box) int {
	x0, y0 := maxInt(b.X0, o.X0), maxInt(b.Y0, o.Y0)
	x1, y1 := minInt(b.X1, o.X1), minInt(b.Y1, o.Y1)
	return Box{x0, y0, x1, y1}.Area()
}

// IoU returns the intersection-over-union of two boxes.
func (b Box) IoU(o Box) float64 {
	inter := b.Intersect(o)
	union := b.Area() + o.Area() - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// object is a bright moving disc over the background.
type object struct {
	cx, cy     float64 // initial centre
	vx, vy     float64 // velocity, pixels/frame
	radius     float64
	brightness float64
}

// Video is a procedurally generated clip. Frames are a pure function of the
// frame index, so generation is reproducible and random access.
type Video struct {
	ID     int
	Name   string
	Width  int
	Height int
	Frames int

	seed       uint64
	noiseSigma float64  // per-pixel, per-frame sensor noise
	shimmer    float64  // amplitude of water-like background motion
	waterline  float64  // fraction of height below which shimmer applies (0 = everywhere)
	panSpeed   float64  // global pan, pixels/frame
	objects    []object // moving foreground objects

	// Auto-exposure flicker: every flickerEvery frames the camera's gain
	// steps, shifting the whole frame by flickerAmp. This models the AGC
	// adjustments real sensors make and gives even static scenes
	// occasional frames that no approximation threshold can absorb.
	flickerEvery int
	flickerAmp   float64
}

// Size returns the frame size in bytes.
func (v *Video) Size() int { return v.Width * v.Height }

// Frame renders frame t. Pixels are generated from a static background,
// optional global pan, water shimmer, moving objects, and per-frame sensor
// noise; everything is seeded so two calls agree exactly.
func (v *Video) Frame(t int) Frame { return v.render(t, true) }

// BackgroundFrame renders frame t without objects or sensor noise — the
// background model a deployed detector maintains (pan, shimmer and gain
// steps included, so only objects and noise differ from Frame(t)).
func (v *Video) BackgroundFrame(t int) Frame { return v.render(t, false) }

// placed is an object placed at frame t: its centre, squared radius, and
// the squared vertical distance from the row being filled.
type placed struct {
	cx, cy, r2, brightness, dy2 float64
}

// render fills frame t row by row. The background texture is a sum of
// sinusoids in the column, the row and their sum, so each term is tabled
// once per frame; object centres are placed once per frame. Every pixel
// still sums the same operands in the same order, and draws the same
// noise in raster order, so output is identical to evaluating the scene
// per pixel. The foreground (objects and sensor noise) is drawn only when
// asked for.
func (v *Video) render(t int, foreground bool) Frame {
	w, h := v.Width, v.Height
	f := make(Frame, v.Size())
	if w <= 0 || h <= 0 {
		return f
	}
	pan := v.panSpeed * float64(t)
	gain := 0.0
	if v.flickerEvery > 0 && (t/v.flickerEvery)%2 == 1 {
		// Gain alternates between two steps, so each flicker boundary
		// shifts every pixel by flickerAmp at once.
		gain = v.flickerAmp
	}

	// Smooth deterministic texture from a few sinusoids keyed by seed:
	// 110 + 35·sin(0.11·x+s) + 25·cos(0.07·y+0.5·s) + 15·sin(0.05·(x+y)+2·s)
	// at scene coordinates x = column+pan, y = row.
	s := float64(v.seed%97) * 0.13
	tab := make([]float64, 3*w+2*h-1)
	sx, col, row, diag := tab[:w], tab[w:2*w], tab[2*w:2*w+h], tab[2*w+h:]
	for x := range sx {
		sx[x] = float64(x) + pan
		col[x] = 110 + 35*math.Sin(0.11*sx[x]+s)
	}
	for y := range row {
		row[y] = 25 * math.Cos(0.07*float64(y)+0.5*s)
	}
	if pan == 0 {
		// Unpanned, x+y is an exact small integer: table by it.
		for k := range diag {
			diag[k] = 15 * math.Sin(0.05*float64(k)+2*s)
		}
	}

	// Water-like shimmer: spatial waves drifting every frame, below the
	// waterline only (the sky stays still).
	ph := float64(t) * 0.9
	waterline := v.waterline * float64(h)

	var discs []placed
	var noise *xrand.RNG
	if foreground {
		discs = make([]placed, len(v.objects))
		for i, o := range v.objects {
			cx, cy := o.pos(t, w, h)
			discs[i] = placed{cx: cx, cy: cy, r2: o.radius * o.radius, brightness: o.brightness}
		}
		if v.noiseSigma > 0 {
			// Per-frame noise stream; the background pattern is fixed.
			noise = xrand.New(v.seed*1000003 + uint64(t)*7919)
		}
	}

	for y := 0; y < h; y++ {
		yf := float64(y)
		out := f[y*w : (y+1)*w]
		water := v.shimmer > 0 && yf >= waterline
		for i := range discs {
			dy := yf - discs[i].cy
			discs[i].dy2 = dy * dy
		}
		for x := range out {
			val := col[x] + row[y]
			if pan == 0 {
				val += diag[x+y]
			} else {
				val += 15 * math.Sin(0.05*(sx[x]+yf)+2*s)
			}
			if water {
				val += v.shimmer * math.Sin(0.45*sx[x]+0.31*yf+ph)
				val += 0.6 * v.shimmer * math.Sin(0.23*sx[x]-0.51*yf-1.7*ph)
			}
			val += gain
			for _, d := range discs {
				dx := float64(x) - d.cx
				d2 := dx*dx + d.dy2
				if d2 < d.r2 {
					// Soft edge to avoid single-pixel aliasing artifacts.
					edge := 1 - d2/d.r2
					if edge > 0.25 {
						edge = 1
					} else {
						edge *= 4
					}
					val = val*(1-edge) + d.brightness*edge
				}
			}
			if noise != nil {
				val += noise.NormFloat64() * v.noiseSigma
			}
			out[x] = clampByte(val)
		}
	}
	return f
}

// pos returns the object centre at frame t, bouncing off frame edges.
func (o object) pos(t int, w, h int) (float64, float64) {
	return bounce(o.cx+o.vx*float64(t), float64(w)),
		bounce(o.cy+o.vy*float64(t), float64(h))
}

// bounce reflects x into [0, limit) with mirror wrapping.
func bounce(x, limit float64) float64 {
	if limit <= 0 {
		return 0
	}
	period := 2 * limit
	x = math.Mod(x, period)
	if x < 0 {
		x += period
	}
	if x >= limit {
		x = period - x
	}
	return x
}

// ObjectBoxes returns the ground-truth bounding boxes of all objects at
// frame t, clipped to the frame.
func (v *Video) ObjectBoxes(t int) []Box {
	boxes := make([]Box, 0, len(v.objects))
	for _, o := range v.objects {
		cx, cy := o.pos(t, v.Width, v.Height)
		b := Box{
			X0: int(cx - o.radius), Y0: int(cy - o.radius),
			X1: int(cx + o.radius + 1), Y1: int(cy + o.radius + 1),
		}
		b.X0 = maxInt(b.X0, 0)
		b.Y0 = maxInt(b.Y0, 0)
		b.X1 = minInt(b.X1, v.Width)
		b.Y1 = minInt(b.Y1, v.Height)
		if b.Area() > 0 {
			boxes = append(boxes, b)
		}
	}
	return boxes
}

func clampByte(v float64) byte {
	switch {
	case v <= 0:
		return 0
	case v >= 255:
		return 255
	default:
		return byte(v + 0.5)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (v *Video) String() string {
	return fmt.Sprintf("video %d (%s, %dx%d, %d frames)", v.ID, v.Name, v.Width, v.Height, v.Frames)
}
