package video

import "math"

// PSNRCap is the value reported for identical frames (MSE 0 → infinite
// PSNR); 99 dB keeps averages finite while remaining clearly "lossless".
const PSNRCap = 99.0

// MSE returns the mean squared error between two equally sized frames.
func MSE(a, b Frame) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum / float64(len(a))
}

// psnrFromMSE converts a mean squared error to PSNR in dB, capped.
func psnrFromMSE(mse float64) float64 {
	if mse <= 0 {
		return PSNRCap
	}
	p := 10 * math.Log10(255*255/mse)
	if p > PSNRCap {
		return PSNRCap
	}
	return p
}

// PSNR returns the peak signal-to-noise ratio in dB between a reference
// frame and a degraded frame, capped at PSNRCap.
func PSNR(ref, got Frame) float64 {
	mse := MSE(ref, got)
	if math.IsNaN(mse) {
		return math.NaN()
	}
	return psnrFromMSE(mse)
}
