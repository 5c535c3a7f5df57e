package main

import (
	"math"
	"math/bits"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hist is a log-linear histogram of nanosecond durations: values below
// 16 ns get a bucket each, larger ones 8 buckets per power of two (about
// 9% wide). It is cheap enough to record every controller call of a
// simulation.
type hist struct {
	n       [histBuckets]uint32
	sum     int64
	samples uint64
}

const histBuckets = 16 + 60*8

func histIndex(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) // >= 5
	sub := int(uint64(ns)>>(e-4)) & 7
	return 16 + (e-5)*8 + sub
}

// histLow is the smallest value that lands in bucket i.
func histLow(i int) float64 {
	if i < 16 {
		return float64(i)
	}
	e := (i-16)/8 + 5
	sub := (i - 16) % 8
	return float64(uint64(8+sub) << (e - 4))
}

func (h *hist) add(ns int64) {
	h.n[histIndex(ns)]++
	h.sum += ns
	h.samples++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.n {
		h.n[i] += c
	}
	h.sum += o.sum
	h.samples += o.samples
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.samples == 0 {
		return 0
	}
	rank := q * float64(h.samples)
	seen := 0.0
	for i, c := range h.n {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return histLow(histBuckets)
}
