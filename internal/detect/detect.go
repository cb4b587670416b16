// Package detect is the end-to-end consumer of approximated video (paper
// §V, Fig. 13). The paper runs YOLOv3 on approximated frames and compares
// its detections against those on exact frames with IoU matching; here a
// background-difference blob detector plays the same role: any detector fed
// the same two versions of a frame and scored with the same IoU/F1 protocol
// answers "did approximation change what the application sees?".
package detect

import (
	"sort"

	"github.com/flipbit-sim/flipbit/internal/video"
)

// Params tunes the blob detector. Defaults (DefaultParams) suit the
// synthetic suite's 64×64 frames.
type Params struct {
	Threshold float64 // |pixel - background| needed to mark foreground
	MinArea   int     // discard components smaller than this
}

// DefaultParams returns detector settings matched to the video suite.
func DefaultParams() Params {
	return Params{Threshold: 30, MinArea: 8}
}

// Detect returns the bounding boxes of foreground blobs in a frame,
// given the deployment's background model for the same instant (classic
// background subtraction, as surveillance-style IoT pipelines use).
func Detect(f, background video.Frame, w, h int, p Params) []video.Box {
	mask := make([]bool, len(f))
	for i := range f {
		d := float64(f[i]) - float64(background[i])
		if d < 0 {
			d = -d
		}
		mask[i] = d >= p.Threshold
	}
	return components(mask, w, h, p.MinArea)
}

// components labels 4-connected foreground regions and returns their boxes.
func components(mask []bool, w, h, minArea int) []video.Box {
	seen := make([]bool, len(mask))
	var boxes []video.Box
	var stack []int
	for start := range mask {
		if !mask[start] || seen[start] {
			continue
		}
		area := 0
		box := video.Box{X0: w, Y0: h, X1: 0, Y1: 0}
		stack = append(stack[:0], start)
		seen[start] = true
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := idx%w, idx/w
			area++
			box.X0 = min(box.X0, x)
			box.Y0 = min(box.Y0, y)
			box.X1 = max(box.X1, x+1)
			box.Y1 = max(box.Y1, y+1)
			for _, nb := range [4]int{idx - 1, idx + 1, idx - w, idx + w} {
				if nb < 0 || nb >= len(mask) {
					continue
				}
				if (nb == idx-1 && x == 0) || (nb == idx+1 && x == w-1) {
					continue
				}
				if mask[nb] && !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if area >= minArea {
			boxes = append(boxes, box)
		}
	}
	sort.Slice(boxes, func(i, j int) bool {
		if boxes[i].Y0 != boxes[j].Y0 {
			return boxes[i].Y0 < boxes[j].Y0
		}
		return boxes[i].X0 < boxes[j].X0
	})
	return boxes
}

// Counts accumulates detection-matching tallies across frames.
type Counts struct {
	TP, FP, FN int
}

// Match greedily pairs predicted boxes with reference boxes at the given
// IoU threshold (the paper uses 0.5 [50]) and accumulates TP/FP/FN.
func (c *Counts) Match(pred, ref []video.Box, iouThr float64) {
	usedRef := make([]bool, len(ref))
	for _, p := range pred {
		best, bestIoU := -1, iouThr
		for ri, r := range ref {
			if usedRef[ri] {
				continue
			}
			if iou := p.IoU(r); iou >= bestIoU {
				best, bestIoU = ri, iou
			}
		}
		if best >= 0 {
			usedRef[best] = true
			c.TP++
		} else {
			c.FP++
		}
	}
	for _, u := range usedRef {
		if !u {
			c.FN++
		}
	}
}

// Precision returns TP/(TP+FP), or 1 when nothing was predicted.
func (c Counts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 1 when there was nothing to find.
func (c Counts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Counts) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
