// Package stats provides the streaming statistics used by the evaluation
// harness: fixed-bin histograms for the detection-delay density plot
// (paper Fig. 8) and their scalar summaries (mean, max, high
// percentiles) for the delay figures (Figs. 8, 11 and 12).
package stats

import (
	"math"
	"sort"

	"paradet/internal/sim"
)

// Hist is a streaming fixed-bin-width histogram over non-negative
// durations, reported in nanoseconds. Values beyond the binned range are
// counted in an overflow bucket, so Mean, Max and Quantile remain exact
// for the recorded samples while the density view covers the configured
// range (the paper plots 0-5000 ns and notes the >5000 ns tail holds
// <0.1% of samples). Every statistic is independent of the order in
// which samples arrive: the sum is kept in integer femtoseconds.
type Hist struct {
	binWidth float64
	bins     []uint64
	overflow uint64
	count    uint64
	sum      sim.Time
	max      float64
	min      float64
	// tail keeps exact values for the overflow region so that extreme
	// quantiles and the maximum remain exact; the paper's "max detection
	// delay" series (Figs. 11b, 12b) depends on them.
	tail []float64
}

// NewHist creates a histogram with nbins bins of the given width in
// nanoseconds.
func NewHist(binWidth float64, nbins int) *Hist {
	if binWidth <= 0 || nbins <= 0 {
		panic("stats: histogram needs positive bin width and count")
	}
	return &Hist{binWidth: binWidth, bins: make([]uint64, nbins), min: math.Inf(1)}
}

// Add records one duration. Negative samples are clamped to zero; they
// can only arise from timestamp rounding at clock-domain boundaries.
func (h *Hist) Add(d sim.Time) {
	if d < 0 {
		d = 0
	}
	v := d.Nanoseconds()
	h.count++
	h.sum += d
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
	i := int(v / h.binWidth)
	if i >= len(h.bins) {
		h.overflow++
		h.tail = append(h.tail, v)
		return
	}
	h.bins[i]++
}

// Count reports the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean reports the arithmetic mean of recorded samples, or 0 if empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum.Nanoseconds() / float64(h.count)
}

// Max reports the largest recorded sample, or 0 if empty.
func (h *Hist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Min reports the smallest recorded sample, or 0 if empty.
func (h *Hist) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Quantile reports the q-quantile (0 <= q <= 1) using bin midpoints for
// binned samples and exact values for the overflow tail.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, n := range h.bins {
		cum += n
		if cum > target {
			return (float64(i) + 0.5) * h.binWidth
		}
	}
	// Inside the overflow tail.
	t := append([]float64(nil), h.tail...)
	sort.Float64s(t)
	idx := int(target - (h.count - h.overflow))
	if idx >= len(t) {
		idx = len(t) - 1
	}
	return t[idx]
}

// FractionBelow reports the fraction of samples strictly below v.
func (h *Hist) FractionBelow(v float64) float64 {
	if h.count == 0 {
		return 0
	}
	var below uint64
	limit := int(v / h.binWidth)
	for i := 0; i < limit && i < len(h.bins); i++ {
		below += h.bins[i]
	}
	for _, t := range h.tail {
		if t < v {
			below++
		}
	}
	return float64(below) / float64(h.count)
}

// DensityPoint is one (x, density) sample of the normalised histogram.
type DensityPoint struct {
	X       float64 // bin midpoint
	Density float64 // probability density (integrates to <=1 over binned range)
}

// Density returns the normalised probability density over the binned
// range, matching the y-axis of the paper's Fig. 8.
func (h *Hist) Density() []DensityPoint {
	out := make([]DensityPoint, len(h.bins))
	denom := float64(h.count) * h.binWidth
	for i, n := range h.bins {
		var d float64
		if denom > 0 {
			d = float64(n) / denom
		}
		out[i] = DensityPoint{X: (float64(i) + 0.5) * h.binWidth, Density: d}
	}
	return out
}

// Summary is a scalar digest of a histogram.
type Summary struct {
	Count     uint64
	Mean      float64
	Max       float64
	P50       float64
	P99       float64
	P999      float64
	Below5000 float64 // fraction of samples under 5000 units (paper: 99.9% < 5000 ns)
}

// Summarize digests the histogram.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count:     h.count,
		Mean:      h.Mean(),
		Max:       h.Max(),
		P50:       h.Quantile(0.50),
		P99:       h.Quantile(0.99),
		P999:      h.Quantile(0.999),
		Below5000: h.FractionBelow(5000),
	}
}
