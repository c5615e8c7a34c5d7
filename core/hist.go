package core

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
)

// This file adds the third stat kind to the uniform telemetry capability:
// the histogram. Counters and gauges carried the reflective loop through
// PR 4, but production adaptation keys on tail latency — percentiles, not
// averages — so the stats tree needs a representation that survives the
// same aggregation paths (composites merging constituents, shard lanes
// summing into one element) while answering Quantile(q) cheaply.
//
// The scheme is HDR-style log-linear bucketing: values below histSubCount
// get unit-width buckets (exact); above that, each power-of-two range is
// split into histSubCount linear sub-buckets, so a bucket's width is at
// most 1/histSubCount of its lower bound. With histSubBits = 5 that is a
// guaranteed <= ~3.1% relative bucket width (<= ~1.6% quantile error at
// the midpoint representative), constant across the full uint64 range —
// the precision/footprint trade HdrHistogram and the eBPF log2 maps both
// land on, tightened by the linear sub-split.

// Histogram bucket-scheme constants.
const (
	// histSubBits sets the per-octave resolution: 2^histSubBits linear
	// sub-buckets per power-of-two range.
	histSubBits = 5
	// histSubCount is the linear region bound and the sub-bucket count.
	histSubCount = 1 << histSubBits
	// histMaxBuckets is HistIndex(MaxUint64)+1: the dense recorder size.
	histMaxBuckets = (64-histSubBits-1)*histSubCount + 2*histSubCount
)

// HistIndex maps a value to its bucket index. Indexes are monotone in the
// value: for v < histSubCount the mapping is the identity (unit buckets);
// above, the top histSubBits+1 bits select the bucket.
func HistIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	// n is the bit length of v (>= histSubBits+1 here); shifting by
	// n-(histSubBits+1) lands v's top bits in [histSubCount, 2*histSubCount).
	n := bits.Len64(v)
	shift := n - (histSubBits + 1)
	return (n-(histSubBits+1))*histSubCount + int(v>>shift)
}

// HistBucketBounds returns bucket i's inclusive [lo, hi] value range.
func HistBucketBounds(i int) (lo, hi uint64) {
	if i < histSubCount {
		return uint64(i), uint64(i)
	}
	octave := i/histSubCount - 1 // 0 for [32,64), 1 for [64,128), ...
	m := uint64(i%histSubCount + histSubCount)
	lo = m << octave
	hi = (m+1)<<octave - 1 // wraps to MaxUint64 exactly at the top bucket
	return lo, hi
}

// histRepresentative is the value a bucket answers quantile queries with:
// the bucket midpoint (exact in the unit-width linear region).
func histRepresentative(i int) float64 {
	lo, hi := HistBucketBounds(i)
	return (float64(lo) + float64(hi)) / 2
}

// Histogram is the live recorder: a fixed dense array of atomic bucket
// counters, safe for concurrent Record and Snapshot. Record is wait-free
// (one atomic add on the bucket plus count/sum bookkeeping), so it is
// cheap enough for per-packet hot-path use; with one writer per shard
// lane the adds are uncontended.
type Histogram struct {
	counts [histMaxBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	used   atomic.Int32 // high-water bucket index + 1, bounds Snapshot's scan
}

// NewHistogram returns an empty recorder.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	i := HistIndex(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		u := h.used.Load()
		if int(u) > i {
			return
		}
		if h.used.CompareAndSwap(u, int32(i+1)) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns the serialisable sparse form. It is a consistent-enough
// view for telemetry: buckets are read with atomic loads while recording
// may continue.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	used := int(h.used.Load())
	for i := 0; i < used; i++ {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Index: i, Count: n})
		}
	}
	return s
}

// HistBucket is one occupied bucket of a snapshot.
type HistBucket struct {
	// Index is the HistIndex bucket number (scheme-stable, merge key).
	Index int `json:"i"`
	// Count is the observations in the bucket.
	Count uint64 `json:"n"`
}

// HistSnapshot is the frozen, serialisable form of a histogram: sparse
// occupied buckets in ascending index order plus the observation count and
// value sum. It is what a Stat of KindHistogram carries and what
// MergeStats aggregates.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// histSnapshotJSON is the wire form: the raw buckets (the mergeable
// ground truth) plus derived p50/p99/p999, so human surfaces that print
// the stats tree as JSON — `nkctl stats`, watch samples — show tail
// quantiles directly without knowing the bucket scheme.
type histSnapshotJSON struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	P50     float64      `json:"p50,omitempty"`
	P99     float64      `json:"p99,omitempty"`
	P999    float64      `json:"p999,omitempty"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler, adding the derived quantiles.
func (s *HistSnapshot) MarshalJSON() ([]byte, error) {
	out := histSnapshotJSON{Count: s.Count, Sum: s.Sum, Buckets: s.Buckets}
	if s.Count > 0 {
		out.P50 = s.Quantile(0.5)
		out.P99 = s.Quantile(0.99)
		out.P999 = s.Quantile(0.999)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler; the derived quantile fields
// are ignored (recomputable from the buckets).
func (s *HistSnapshot) UnmarshalJSON(b []byte) error {
	var in histSnapshotJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*s = HistSnapshot{Count: in.Count, Sum: in.Sum, Buckets: in.Buckets}
	return nil
}

// Clone returns an independent copy.
func (s *HistSnapshot) Clone() *HistSnapshot {
	if s == nil {
		return nil
	}
	out := &HistSnapshot{Count: s.Count, Sum: s.Sum}
	out.Buckets = append(out.Buckets, s.Buckets...)
	return out
}

// Quantile returns the q-quantile (q in [0,1]) as the midpoint of the
// bucket holding the ceil(q*Count)-th observation — within half a bucket
// width of the true value, i.e. <= ~1.6% relative error outside the exact
// linear region. Empty snapshots answer 0.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return histRepresentative(b.Index)
		}
	}
	// Unreachable when Count equals the bucket sum; be forgiving if not.
	if n := len(s.Buckets); n > 0 {
		return histRepresentative(s.Buckets[n-1].Index)
	}
	return 0
}

// Merge returns the bucket-wise sum of s and o (either may be nil). The
// receiver is not mutated; the result is freshly allocated. Merging is the
// composite aggregation rule: shard-lane histograms sum into exactly the
// histogram of the union of their observations.
func (s *HistSnapshot) Merge(o *HistSnapshot) *HistSnapshot {
	if s == nil || s.Count == 0 {
		return o.Clone()
	}
	if o == nil || o.Count == 0 {
		return s.Clone()
	}
	out := &HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Index < o.Buckets[j].Index):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Index < s.Buckets[i].Index:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, HistBucket{
				Index: s.Buckets[i].Index, Count: s.Buckets[i].Count + o.Buckets[j].Count,
			})
			i++
			j++
		}
	}
	return out
}

// Sub returns the bucket-wise difference s - prev, clamped at zero: the
// windowed histogram of observations recorded between two cumulative
// snapshots of the SAME recorder. It is how SLO conditions read "p99 over
// the last tick" out of monotone telemetry.
func (s *HistSnapshot) Sub(prev *HistSnapshot) *HistSnapshot {
	if s == nil {
		return nil
	}
	if prev == nil || prev.Count == 0 {
		return s.Clone()
	}
	out := &HistSnapshot{}
	if s.Count > prev.Count {
		out.Count = s.Count - prev.Count
	}
	if s.Sum > prev.Sum {
		out.Sum = s.Sum - prev.Sum
	}
	prevAt := make(map[int]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevAt[b.Index] = b.Count
	}
	for _, b := range s.Buckets {
		if d := b.Count - min64(b.Count, prevAt[b.Index]); d > 0 {
			out.Buckets = append(out.Buckets, HistBucket{Index: b.Index, Count: d})
		}
	}
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// H builds a histogram Stat from a snapshot. Value carries the observation
// count so the scalar projection of a histogram stat stays meaningful to
// readers that only understand counters and gauges.
func H(name, unit string, snap *HistSnapshot) Stat {
	var n uint64
	if snap != nil {
		n = snap.Count
	}
	return Stat{Name: name, Kind: KindHistogram, Unit: unit, Value: float64(n), Hist: snap}
}
