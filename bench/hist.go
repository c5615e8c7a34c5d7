package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is the harness's own latency recorder. core.Histogram answers a
// quantile with a bucket midpoint 3 % apart from its neighbours, which
// would make a p50 that sits on a bucket edge flip by 3 % between runs —
// a third of the metric's regression bound. This one keeps 7 sub-bits
// (0.8 % buckets) and interpolates inside the bucket, so the quantile
// moves continuously with the data.
const (
	histSub     = 7
	histLinear  = 1 << histSub
	histBuckets = (64 - histSub + 1) * histLinear
)

type hist struct {
	b [histBuckets]atomic.Uint64
}

func histIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	shift := bits.Len64(v) - (histSub + 1)
	return (shift+1)*histLinear + int(v>>uint(shift)) - histLinear
}

// histBounds returns the lowest value and the width of bucket i.
func histBounds(i int) (lo, width uint64) {
	if i < histLinear {
		return uint64(i), 1
	}
	shift := uint(i/histLinear - 1)
	return uint64(histLinear+i%histLinear) << shift, 1 << shift
}

func (h *hist) record(v uint64) { h.b[histIndex(v)].Add(1) }

// histCounts is a plain copy of the buckets: the unit window deltas and
// quantiles work on.
type histCounts []uint64

func (h *hist) counts() histCounts {
	c := make(histCounts, histBuckets)
	for i := range h.b {
		c[i] = h.b[i].Load()
	}
	return c
}

func (c histCounts) sub(prev histCounts) histCounts {
	d := make(histCounts, len(c))
	for i := range c {
		d[i] = c[i] - prev[i]
	}
	return d
}

func (c histCounts) total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// quantile returns the q-quantile, interpolated linearly inside the bucket
// that holds it; 0 for an empty histogram.
func (c histCounts) quantile(q float64) float64 {
	n := c.total()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, v := range c {
		if v == 0 {
			continue
		}
		if cum+float64(v) >= rank {
			lo, w := histBounds(i)
			return float64(lo) + (rank-cum)/float64(v)*float64(w)
		}
		cum += float64(v)
	}
	return 0
}

// median of a small sample; 0 when empty.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf interpolates the q-quantile of an unsorted sample.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// spread is the interquartile range over the median: the run-to-run (or
// window-to-window) noise figure the benchmark contract is written in.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantileOf(xs, 0.75) - quantileOf(xs, 0.25)) / m
}
