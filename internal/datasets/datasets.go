// Package datasets generates the synthetic stand-ins for the paper's ML
// evaluation data (Table III): an MNIST-like image set, a UCI-HAR-like
// accelerometer set and an ECG-heartbeat-like set. Input shapes match the
// real datasets (28×28×1, 128×9, 187×1).
//
// Training splits are independent shuffled samples. Test splits are
// *streams*: runs of consecutive, temporally correlated samples, because
// that is what a deployed IoT device sees — overlapping HAR windows from a
// continuing activity, successive heartbeats of one patient, frames of a
// watched scene. Inter-inference activation similarity is the property
// FlipBit exploits on DNNs (§V-A observes savings coming from activations
// that repeat or return to zero between iterations), so the substitution
// must preserve it.
package datasets

import (
	"math"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// streamRunLen is the number of consecutive correlated samples per test
// stream run before the scene/activity/patient changes.
const streamRunLen = 8

// Set is a labelled dataset split into train and test portions. TestX is
// ordered as a stream; evaluate it in order.
type Set struct {
	Name       string
	InputShape []int // e.g. [28,28,1], [128,9], [187]
	NumClasses int

	TrainX [][]float32
	TrainY []int
	TestX  [][]float32
	TestY  []int
}

// MNISTLike generates a 10-class 28×28 grayscale set. Each class is a
// prototype of random soft strokes; training samples add shifts, amplitude
// jitter and sensor noise. The test stream models a camera watching one
// subject for a few frames before the subject changes.
func MNISTLike(train, test int, seed uint64) *Set {
	rng := xrand.New(seed)
	const h, w = 28, 28
	protos := make([][]float32, 10)
	for c := range protos {
		protos[c] = strokeProto(rng, h, w, 3+rng.Intn(3))
	}
	s := &Set{Name: "mnist-like", InputShape: []int{h, w, 1}, NumClasses: 10}

	renderAt := func(c, dy, dx int, amp float32, noise float64) []float32 {
		x := make([]float32, h*w)
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				sy, sx := y+dy, xx+dx
				var v float32
				if sy >= 0 && sy < h && sx >= 0 && sx < w {
					v = protos[c][sy*w+sx]
				}
				v = v*amp + float32(rng.NormFloat64()*noise)
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				x[y*w+xx] = v
			}
		}
		return x
	}

	for i := 0; i < train; i++ {
		c := rng.Intn(10)
		s.TrainX = append(s.TrainX, renderAt(c, rng.Intn(5)-2, rng.Intn(5)-2,
			float32(0.8+0.4*rng.Float64()), 0.12))
		s.TrainY = append(s.TrainY, c)
	}
	for len(s.TestX) < test {
		// One run: fixed subject and pose, small noise per frame.
		c := rng.Intn(10)
		dy, dx := rng.Intn(5)-2, rng.Intn(5)-2
		amp := float32(0.8 + 0.4*rng.Float64())
		for k := 0; k < streamRunLen && len(s.TestX) < test; k++ {
			s.TestX = append(s.TestX, renderAt(c, dy, dx, amp, 0.11))
			s.TestY = append(s.TestY, c)
		}
	}
	return s
}

func strokeProto(rng *xrand.RNG, h, w, strokes int) []float32 {
	p := make([]float32, h*w)
	for s := 0; s < strokes; s++ {
		// A stroke is a thick line segment rendered as Gaussian falloff.
		x0, y0 := rng.Float64()*float64(w), rng.Float64()*float64(h)
		x1, y1 := rng.Float64()*float64(w), rng.Float64()*float64(h)
		thick := 1.2 + rng.Float64()*1.5
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				d := pointSegDist(float64(x), float64(y), x0, y0, x1, y1)
				v := math.Exp(-d * d / (2 * thick * thick))
				idx := y*w + x
				if f := float32(v); f > p[idx] {
					p[idx] = f
				}
			}
		}
	}
	return p
}

func pointSegDist(px, py, x0, y0, x1, y1 float64) float64 {
	dx, dy := x1-x0, y1-y0
	l2 := dx*dx + dy*dy
	t := 0.0
	if l2 > 0 {
		t = ((px-x0)*dx + (py-y0)*dy) / l2
		t = math.Max(0, math.Min(1, t))
	}
	cx, cy := x0+t*dx, y0+t*dy
	return math.Hypot(px-cx, py-cy)
}

// HARLike generates a 6-class human-activity set: 128 timesteps × 9
// channels, each class a distinct mixture of periodic components. The test
// stream models sliding windows over a continuing activity: within a run
// the phase advances smoothly, as overlapping UCI-HAR windows do.
func HARLike(train, test int, seed uint64) *Set {
	rng := xrand.New(seed)
	const steps, ch, classes = 128, 9, 6
	type comp struct{ freq, amp, phase float64 }
	protos := make([][][]comp, classes) // class -> channel -> components
	for c := range protos {
		protos[c] = make([][]comp, ch)
		for j := range protos[c] {
			k := 1 + rng.Intn(3)
			cs := make([]comp, k)
			for i := range cs {
				cs[i] = comp{
					freq:  0.5 + rng.Float64()*7,
					amp:   0.2 + rng.Float64()*0.8,
					phase: rng.Float64() * 2 * math.Pi,
				}
			}
			protos[c][j] = cs
		}
	}
	window := func(c int, shift, noise float64) []float32 {
		x := make([]float32, steps*ch)
		for j := 0; j < ch; j++ {
			for t := 0; t < steps; t++ {
				var v float64
				for _, cm := range protos[c][j] {
					v += cm.amp * math.Sin(2*math.Pi*cm.freq*float64(t)/steps+cm.phase+shift)
				}
				v += rng.NormFloat64() * noise
				x[t*ch+j] = float32(v)
			}
		}
		return x
	}
	s := &Set{Name: "har-like", InputShape: []int{steps, ch}, NumClasses: classes}
	for i := 0; i < train; i++ {
		c := rng.Intn(classes)
		s.TrainX = append(s.TrainX, window(c, rng.Float64()*2*math.Pi, 0.4))
		s.TrainY = append(s.TrainY, c)
	}
	for len(s.TestX) < test {
		// One run: a continuing activity; overlapping windows advance
		// the phase slightly each step.
		c := rng.Intn(classes)
		shift := rng.Float64() * 2 * math.Pi
		for k := 0; k < streamRunLen && len(s.TestX) < test; k++ {
			s.TestX = append(s.TestX, window(c, shift, 0.14))
			s.TestY = append(s.TestY, c)
			shift += 0.1
		}
	}
	return s
}

// ECGLike generates a binary abnormal-heartbeat set of 187-sample beats
// (the shape of the MIT-BIH derived set): normal beats are a P-QRS-T
// template; abnormal beats carry one of several morphological distortions.
// The test stream models a patient monitor: runs of beats share morphology
// and differ only in beat-to-beat jitter.
func ECGLike(train, test int, seed uint64) *Set {
	rng := xrand.New(seed)
	const samples = 187
	s := &Set{Name: "ecg-like", InputShape: []int{samples}, NumClasses: 2}
	for i := 0; i < train; i++ {
		abnormal := rng.Intn(2) == 1
		kind := rng.Intn(4)
		y := 0
		if abnormal {
			y = 1
		}
		s.TrainX = append(s.TrainX, ecgBeat(rng, samples, abnormal, kind, 1.0, 0.06))
		s.TrainY = append(s.TrainY, y)
	}
	for len(s.TestX) < test {
		abnormal := rng.Intn(2) == 1
		kind := rng.Intn(4)
		y := 0
		if abnormal {
			y = 1
		}
		for k := 0; k < streamRunLen && len(s.TestX) < test; k++ {
			s.TestX = append(s.TestX, ecgBeat(rng, samples, abnormal, kind, 0.35, 0.045))
			s.TestY = append(s.TestY, y)
		}
	}
	return s
}

// ecgBeat renders one beat. jitterScale shrinks the positional/amplitude
// jitter (streams use small values so consecutive beats look alike).
func ecgBeat(rng *xrand.RNG, n int, abnormal bool, kind int, jitterScale, noise float64) []float32 {
	bump := func(x []float32, center, width, amp float64) {
		for t := range x {
			d := (float64(t) - center) / width
			x[t] += float32(amp * math.Exp(-d*d/2))
		}
	}
	x := make([]float32, n)
	jitter := func(v, j float64) float64 { return v + (rng.Float64()*2-1)*j*jitterScale }
	// Normal morphology: P wave, sharp QRS, T wave.
	pAmp, qrsAmp, qrsW, tAmp := 0.18, 1.0, 2.5, 0.32
	tPos := 128.0
	if abnormal {
		switch kind {
		case 0: // wide QRS (bundle branch block)
			qrsW = 7
		case 1: // missing P
			pAmp = 0
		case 2: // inverted T
			tAmp = -0.3
		case 3: // premature beat: QRS shifted with ectopic bump
			tPos = 100
			bump(x, jitter(155, 6), 6, 0.5)
		}
	}
	bump(x, jitter(35, 3), 6, jitter(pAmp, 0.04))
	bump(x, jitter(78, 2), qrsW, jitter(qrsAmp, 0.12))
	bump(x, jitter(tPos, 4), 10, jitter(tAmp, 0.05))
	for t := range x {
		x[t] += float32(rng.NormFloat64() * noise)
	}
	return x
}
