package video

import (
	"math"
	"testing"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 16 {
		t.Fatalf("suite has %d videos, want 16", len(suite))
	}
	seen := map[int]bool{}
	for _, v := range suite {
		if seen[v.ID] {
			t.Errorf("duplicate ID %d", v.ID)
		}
		seen[v.ID] = true
		if v.Width <= 0 || v.Height <= 0 || v.Frames <= 0 {
			t.Errorf("%s: bad geometry", v)
		}
	}
	if ByID(3) == nil || ByID(3).ID != 3 {
		t.Error("ByID(3) lookup failed")
	}
	if ByID(99) != nil {
		t.Error("ByID(99) should be nil")
	}
}

func TestFrameDeterministic(t *testing.T) {
	v := ByID(13)
	a := v.Frame(7)
	b := v.Frame(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame generation not deterministic at pixel %d", i)
		}
	}
}

func TestFramesDiffer(t *testing.T) {
	v := ByID(16) // high motion
	if MSE(v.Frame(0), v.Frame(10)) == 0 {
		t.Error("high-motion frames 0 and 10 identical")
	}
}

// TestMotionOrdering: static clips must have higher frame-to-frame
// similarity than boat clips; this is the axis the suite is built to span.
func TestMotionOrdering(t *testing.T) {
	delta := func(v *Video) float64 {
		var sum float64
		const pairs = 6
		for i := 0; i < pairs; i++ {
			sum += MSE(v.Frame(i), v.Frame(i+1))
		}
		return sum / pairs
	}
	static := delta(ByID(1))
	boat := delta(ByID(15))
	if static >= boat {
		t.Errorf("static Δ %.2f >= boat Δ %.2f; suite motion axis broken", static, boat)
	}
}

func TestPSNRIdentity(t *testing.T) {
	v := ByID(5)
	f := v.Frame(0)
	if got := PSNR(f, f); got != PSNRCap {
		t.Errorf("PSNR(f,f) = %v, want cap %v", got, PSNRCap)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	a := make(Frame, 100)
	b := make(Frame, 100)
	for i := range b {
		b[i] = 5 // MSE 25 → PSNR = 10·log10(255²/25) ≈ 34.15 dB
	}
	got := PSNR(a, b)
	want := 10 * math.Log10(255*255/25.0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PSNR = %v, want %v", got, want)
	}
}

func TestPSNRMismatchedFrames(t *testing.T) {
	if !math.IsNaN(PSNR(make(Frame, 4), make(Frame, 5))) {
		t.Error("mismatched sizes should give NaN")
	}
}

// TestPSNRCases: PSNR caps identical frames, converts the MSE of degraded
// ones, and is NaN when the frames cannot be compared.
func TestPSNRCases(t *testing.T) {
	ramp := make(Frame, 64)
	off := make(Frame, 64)
	for i := range ramp {
		ramp[i] = byte(4 * i)
		off[i] = byte(4*i + i%3)
	}
	cases := []struct {
		name     string
		ref, got Frame
		want     float64
	}{
		{"identical", ramp, ramp, PSNRCap},
		{"degraded", ramp, off, 10 * math.Log10(255*255/(105.0/64))}, // 21 off by 1, 21 by 2
		{"empty", Frame{}, Frame{}, math.NaN()},
		{"mismatched length", ramp, ramp[:63], math.NaN()},
	}
	for _, c := range cases {
		got := PSNR(c.ref, c.got)
		if got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("%s: PSNR = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBoxIoU(t *testing.T) {
	a := Box{0, 0, 10, 10}
	if a.IoU(a) != 1 {
		t.Error("IoU with self should be 1")
	}
	b := Box{5, 0, 15, 10}
	// inter = 50, union = 150 → 1/3.
	if got := a.IoU(b); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("IoU = %v, want 1/3", got)
	}
	if a.IoU(Box{20, 20, 30, 30}) != 0 {
		t.Error("disjoint boxes should have IoU 0")
	}
}

func TestObjectBoxesTrackMotion(t *testing.T) {
	v := ByID(9) // traffic with moving objects
	b0 := v.ObjectBoxes(0)
	b20 := v.ObjectBoxes(20)
	if len(b0) == 0 || len(b20) == 0 {
		t.Fatal("traffic video should have object boxes")
	}
	if b0[0] == b20[0] {
		t.Error("object box did not move over 20 frames")
	}
}

func TestCaptureExactIsLossless(t *testing.T) {
	v := smallClip(1, 0, 0)
	res, err := Capture(v, CaptureConfig{EncoderN: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSNR != PSNRCap {
		t.Errorf("exact capture PSNR = %v, want %v (lossless)", res.MeanPSNR, PSNRCap)
	}
	if res.FramesWritten != v.Frames {
		t.Errorf("wrote %d frames, want %d", res.FramesWritten, v.Frames)
	}
}

func TestCaptureFlipBitSavesEnergyOnStaticScene(t *testing.T) {
	v := smallClip(2, 0, 0) // static + mild noise
	base, err := Capture(v, CaptureConfig{EncoderN: 0})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Capture(v, CaptureConfig{EncoderN: 2, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	red := EnergyReduction(base, fb)
	if red <= 0.2 {
		t.Errorf("static-scene energy reduction = %.2f, expected substantial savings", red)
	}
	if fb.MeanPSNR < 30 {
		t.Errorf("FlipBit PSNR = %.1f dB, too low", fb.MeanPSNR)
	}
	if fb.Flash.Erases >= base.Flash.Erases {
		t.Errorf("erases %d >= baseline %d", fb.Flash.Erases, base.Flash.Erases)
	}
	if li := LifetimeIncrease(base, fb); li <= 0 {
		t.Errorf("lifetime increase = %.2f, want positive", li)
	}
}

func TestCaptureFrameStride(t *testing.T) {
	v := smallClip(3, 0.6, 0)
	full, err := Capture(v, CaptureConfig{EncoderN: 0})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Capture(v, CaptureConfig{EncoderN: 0, FrameStride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if half.FramesWritten*2 != full.FramesWritten && half.FramesWritten*2 != full.FramesWritten+2 {
		t.Errorf("stride 2 wrote %d frames vs %d at stride 1", half.FramesWritten, full.FramesWritten)
	}
	if half.Flash.Energy >= full.Flash.Energy {
		t.Error("halving the frame rate should reduce flash energy")
	}
	if half.MeanPSNR >= full.MeanPSNR {
		t.Error("halving the frame rate of a moving scene must cost PSNR")
	}
}

// TestThresholdMonotonicity: raising the threshold must not increase flash
// energy and must not improve PSNR (Fig. 14's two curves).
func TestThresholdMonotonicity(t *testing.T) {
	v := smallClip(4, 0.3, 4)
	base, err := Capture(v, CaptureConfig{EncoderN: 0})
	if err != nil {
		t.Fatal(err)
	}
	prevRed := -1.0
	prevPSNR := math.Inf(1)
	for _, thr := range []float64{0.5, 2, 8, 32} {
		res, err := Capture(v, CaptureConfig{EncoderN: 2, Threshold: thr})
		if err != nil {
			t.Fatal(err)
		}
		red := EnergyReduction(base, res)
		if red < prevRed-0.02 {
			t.Errorf("threshold %v: energy reduction %.3f dropped below %.3f", thr, red, prevRed)
		}
		if res.MeanPSNR > prevPSNR+0.5 {
			t.Errorf("threshold %v: PSNR %.2f rose above %.2f", thr, res.MeanPSNR, prevPSNR)
		}
		prevRed, prevPSNR = red, res.MeanPSNR
	}
}

// smallClip builds a fast 16x16 test clip.
func smallClip(seed uint64, motion, shimmer float64) *Video {
	v := &Video{
		ID: 1000 + int(seed), Name: "test", Width: 16, Height: 16, Frames: 12,
		seed: seed, noiseSigma: 1.5, shimmer: shimmer,
	}
	if motion > 0 {
		v.objects = []object{{cx: 8, cy: 8, vx: motion, vy: motion / 2, radius: 4, brightness: 220}}
	}
	return v
}
