package main

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"netkit/core"
	"netkit/router"
)

// The traced pass records spans from outside the program, through the
// paper's own mechanism: a core.Around installed on a binding sees every
// batch that crosses it. One span is one crossing.
//
// A track is one goroutine of the data path (the generator, a shard lane,
// the scheduler pump, a socket pump, the IPC reader). Go has no goroutine
// identity to read, but every binding of these workloads is crossed by a
// goroutine that follows from the topology (or, at the shard merge, from
// the lane the batch's flow hashes to), so each interceptor is told its
// track. A span's parent is the span open on the same track when it
// started. Work that changes track — ring, kernel, IPC — is linked by the
// batch's stream position, and the time it spent between tracks is the
// root span's wait: its start minus the batch's due time.
//
// One root in sampleEvery, drawn at random, is recorded with everything
// under it; the others pay a clock read and two counter adds.

// Span is one recorded crossing. Times are router.Nanotime nanoseconds.
type Span struct {
	Name   int    `json:"name"`   // index into the span file's names
	Track  int    `json:"track"`  // index into the span file's tracks
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Batch  uint64 `json:"batch"` // stream position of the first packet
	Pkts   int    `json:"pkts"`  // router.PacketCount of the crossing
	// Due is the first packet's due time; Start-Due on a root is how long
	// the batch waited to reach this track.
	Due int64 `json:"due_ns"`
	// Gap, on a root, is the time its track spent outside any span since
	// the previous root ended: the track's own loop (ring dequeue, queue
	// pulls and DRR, socket poll) or idleness.
	Gap int64 `json:"gap_ns"`
}

const (
	maxTracks   = 8
	spanRing    = 1 << 18
	sampleEvery = 64
	maxDepth    = 16
)

type trackState struct {
	stack   [maxDepth]int32
	depth   int
	muted   int // open crossings under an unsampled root
	pick    splitmix64
	lastEnd int64
	_       [64]byte // keep tracks on separate cache lines
}

// pointCount is the all-crossings tally of one span name.
type pointCount struct {
	calls, pkts atomic.Uint64
}

type tracer struct {
	every  uint64 // one root in every is recorded
	names  []string
	tracks []string
	spans  []Span
	n      atomic.Int64
	lost   atomic.Uint64 // sampled crossings that found the ring full
	state  [maxTracks]trackState
	counts []pointCount
}

func newTracer(tracks []string, ring int) *tracer {
	t := &tracer{every: sampleEvery, tracks: tracks, spans: make([]Span, ring)}
	// Touch the ring now, so that recording a span does not take the page
	// fault of a first write.
	for i := range t.spans {
		t.spans[i].Parent = -1
	}
	return t
}

// spanCost measures what recording costs, on empty spans: leaf is the
// duration an empty span reads (the clock reads' own latency), child is
// what one child span adds to its parent's duration. The reducer takes
// both out again, so a layer's self time is not charged for being watched.
func spanCost() (leaf, child float64) {
	t := newTracer([]string{"calibration"}, 3*4096)
	t.every = 1
	outer, inner := t.point("outer"), t.point("inner")
	var leaves, withChild []float64
	for i := 0; i < 4096; i++ {
		a := t.open(0, outer, 0, nil)
		b := t.open(0, inner, 0, nil)
		t.shut(0, b)
		t.shut(0, a)
		c := t.open(0, inner, 0, nil)
		t.shut(0, c)
		leaves = append(leaves, float64(t.spans[c].End-t.spans[c].Start))
		withChild = append(withChild, float64(t.spans[a].End-t.spans[a].Start))
	}
	leaf = median(leaves)
	return leaf, median(withChild) - leaf
}

// point registers a span name and returns its index. Called at set-up only.
func (t *tracer) point(name string) int {
	t.names = append(t.names, name)
	t.counts = append(t.counts, pointCount{})
	return len(t.names) - 1
}

// open starts a crossing on a track. It returns the span's index, or -1
// when the crossing is not recorded.
func (t *tracer) open(track, name, pkts int, first []byte) int32 {
	st := &t.state[track]
	c := &t.counts[name]
	c.calls.Add(1)
	c.pkts.Add(uint64(pkts))
	if st.muted > 0 {
		st.muted++
		return -1
	}
	root := st.depth == 0
	if root {
		// Drawn, not counted: the tracks are periodic (a window of 32
		// batches, a scheduler round of 64 packets) and every 64th root
		// would keep landing on the same phase.
		if st.pick.next()%t.every != 0 {
			st.muted = 1
			return -1
		}
	}
	idx := t.n.Add(1) - 1
	if idx >= int64(len(t.spans)) || st.depth == maxDepth {
		t.lost.Add(1)
		st.muted++
		return -1
	}
	sp := &t.spans[idx]
	*sp = Span{Name: name, Track: track, Parent: -1, Pkts: pkts}
	if len(first) >= minFrame {
		sp.Batch = binary.BigEndian.Uint64(first[offSeq:])
		sp.Due = int64(binary.BigEndian.Uint64(first[offStamp:]))
	}
	if !root {
		sp.Parent = int(st.stack[st.depth-1])
	}
	st.stack[st.depth] = int32(idx)
	st.depth++
	sp.Start = router.Nanotime()
	if root && st.lastEnd > 0 {
		sp.Gap = sp.Start - st.lastEnd
	}
	return int32(idx)
}

// shut ends the crossing open returned idx for.
func (t *tracer) shut(track int, idx int32) {
	st := &t.state[track]
	if idx < 0 {
		st.muted--
		if st.muted == 0 && st.depth == 0 {
			st.lastEnd = router.Nanotime()
		}
		return
	}
	now := router.Nanotime()
	t.spans[idx].End = now
	st.depth--
	if st.depth == 0 {
		st.lastEnd = now
	}
}

// around is the interceptor for one binding. trackOf names the goroutine
// that crosses it, from the batch when the binding is shared by several.
func (t *tracer) around(name int, trackOf func([]*router.Packet) int) core.Around {
	return func(op string, args []any, invoke func([]any) []any) []any {
		if op != "PushBatch" || len(args) != 1 {
			return invoke(args)
		}
		batch, ok := args[0].([]*router.Packet)
		if !ok || len(batch) == 0 {
			return invoke(args)
		}
		track := trackOf(batch)
		idx := t.open(track, name, router.PacketCount(op, args), batch[0].Data)
		res := invoke(args)
		t.shut(track, idx)
		return res
	}
}

func onTrack(k int) func([]*router.Packet) int {
	return func([]*router.Packet) int { return k }
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []Span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// ---------------------------------------------------------------------------
// Reduction

// pointSummary is what the spans of one name reduce to.
type pointSummary struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	Pkts   uint64  `json:"pkts"`
	DurNs  int64   `json:"dur_ns"`  // Σ end-start
	SelfNs int64   `json:"self_ns"` // Σ duration not covered by child spans
	SelfPP float64 `json:"self_ns_per_pkt"`
	DurP50 float64 `json:"dur_p50_ns"`
	// Calls and CallPkts count every crossing, sampled or not.
	Calls    uint64 `json:"calls"`
	CallPkts uint64 `json:"call_pkts"`
}

// trackSummary is what the root spans of one track reduce to.
type trackSummary struct {
	Track  string  `json:"track"`
	Roots  int     `json:"roots"`
	Pkts   uint64  `json:"pkts"`
	BusyNs int64   `json:"busy_ns"` // Σ root durations
	GapNs  int64   `json:"gap_ns"`  // Σ root gaps
	LoopPP float64 `json:"loop_ns_per_pkt"`
	// LoopNs is Σ (duration + gap) over the recorded roots with the
	// recorder's own cost taken out. Times the sampling interval it
	// should come to SpanNs, the time from the track's first recorded
	// root to its last (recording stops when the ring is full); Cover is
	// that ratio.
	LoopNs float64 `json:"loop_ns"`
	SpanNs int64   `json:"span_ns"`
	Cover  float64 `json:"cover"`
	GapPP  float64 `json:"gap_p50_ns_per_pkt"`
	// WaitP50 is the median of start minus due over the track's roots.
	WaitP50 float64 `json:"wait_p50_ns"`
}

// selfTimes returns, per span, its duration minus the part its children
// cover. Children of one parent on one track never overlap, so the part
// covered is the sum of their durations.
func selfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 && sp.Parent < len(spans) {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	return self
}

func (t *tracer) reduce() ([]pointSummary, []trackSummary) {
	// Reduction runs after the drain: every recorded span has ended.
	done := t.recorded()
	self := selfTimes(done)
	// Take the recorder's own cost out: every span reads leaf too long,
	// and every child adds child to its parent.
	leaf, child := spanCost()
	perTrack := make([]int, len(t.tracks))
	for i, sp := range done {
		self[i] -= int64(leaf)
		if sp.Parent >= 0 {
			self[sp.Parent] -= int64(child - leaf)
		}
		perTrack[sp.Track]++
	}

	points := make([]pointSummary, len(t.names))
	durs := make([][]float64, len(t.names))
	for i := range points {
		points[i].Name = t.names[i]
		points[i].Calls = t.counts[i].calls.Load()
		points[i].CallPkts = t.counts[i].pkts.Load()
	}
	tracks := make([]trackSummary, len(t.tracks))
	first := make([]int64, len(t.tracks))
	waits := make([][]float64, len(t.tracks))
	gaps := make([][]float64, len(t.tracks))
	for i := range tracks {
		tracks[i].Track = t.tracks[i]
	}
	for i, sp := range done {
		p := &points[sp.Name]
		p.Spans++
		p.Pkts += uint64(sp.Pkts)
		p.DurNs += sp.End - sp.Start
		p.SelfNs += self[i]
		durs[sp.Name] = append(durs[sp.Name], float64(sp.End-sp.Start))
		if sp.Parent < 0 {
			tr := &tracks[sp.Track]
			tr.Roots++
			tr.Pkts += uint64(sp.Pkts)
			tr.BusyNs += sp.End - sp.Start
			tr.GapNs += sp.Gap
			if tr.Roots == 1 {
				first[sp.Track] = sp.Start - sp.Gap
			}
			tr.SpanNs = sp.End - first[sp.Track]
			if sp.Due > 0 {
				waits[sp.Track] = append(waits[sp.Track], float64(sp.Start-sp.Due))
			}
			if sp.Pkts > 0 {
				gaps[sp.Track] = append(gaps[sp.Track], float64(sp.Gap)/float64(sp.Pkts))
			}
		}
	}
	for i := range points {
		if points[i].Pkts > 0 {
			points[i].SelfPP = float64(points[i].SelfNs) / float64(points[i].Pkts)
		}
		points[i].DurP50 = median(durs[i])
	}
	for i := range tracks {
		if tracks[i].Pkts > 0 {
			tracks[i].LoopNs = float64(tracks[i].BusyNs+tracks[i].GapNs) - child*float64(perTrack[i])
			tracks[i].LoopPP = tracks[i].LoopNs / float64(tracks[i].Pkts)
			tracks[i].Cover = tracks[i].LoopNs * float64(t.every) / float64(tracks[i].SpanNs)
		}
		tracks[i].GapPP = median(gaps[i])
		tracks[i].WaitP50 = median(waits[i])
	}
	sort.SliceStable(points, func(i, j int) bool { return points[i].Name < points[j].Name })
	return points, tracks
}

func findPoint(ps []pointSummary, name string) pointSummary {
	for _, p := range ps {
		if p.Name == name {
			return p
		}
	}
	return pointSummary{}
}

func findTrack(ts []trackSummary, name string) trackSummary {
	for _, t := range ts {
		if t.Track == name {
			return t
		}
	}
	return trackSummary{}
}
