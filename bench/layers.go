package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"netkit"
	"netkit/core"
	"netkit/internal/buffers"
	"netkit/internal/osabs"
	"netkit/router"
)

// metricDef names one metric as BENCHMARK.json does. layerDefs is the
// per-layer list: a traced run prints exactly these, and a metric whose
// layer takes no part in the workload reads 0.
type metricDef struct {
	name, unit, better string
}

var layerDefs = []metricDef{
	{"netkit.build_ms", "ms", "lower"},
	{"netkit.close_ms", "ms", "lower"},
	{"netkit.stats_tree_us", "us", "lower"},
	{"core.hop_ns_per_pkt", "ns/pkt", "lower"},
	{"core.intercept_install_us", "us", "lower"},
	{"core.intercept_remove_us", "us", "lower"},
	{"packet.parse_csum_ns", "ns/pkt", "lower"},
	{"router.fuse.ns_per_pkt", "ns/pkt", "lower"},
	{"router.fuse.fused_hops", "count", "higher"},
	{"router.fuse.fusions", "count", "lower"},
	{"router.fuse.invalidations", "count", "lower"},
	{"filter.lookup_ns", "ns/pkt", "lower"},
	{"filter.compile_ms", "ms", "lower"},
	{"filter.recompile_us", "us", "lower"},
	{"router.flowcache.hit_ratio", "ratio", "higher"},
	{"router.flowcache.hits", "count", "higher"},
	{"router.flowcache.misses", "count", "lower"},
	{"router.flowcache.evictions", "count", "lower"},
	{"router.flowcache.probe_ns", "ns/pkt", "lower"},
	{"router.flowcache.refill_ms", "ms", "lower"},
	{"router.classifier.ns_per_pkt", "ns/pkt", "lower"},
	{"router.queue.drops", "count", "lower"},
	{"router.queue.occupancy_mean", "ratio", "lower"},
	{"router.sched.ns_per_pkt", "ns/pkt", "lower"},
	{"router.sched.pkts_per_run", "pkt", "higher"},
	{"router.hotswap_us", "us", "lower"},
	{"router.shard.dispatch_ns_per_pkt", "ns/pkt", "lower"},
	{"router.shard.ring_stalls", "count", "lower"},
	{"router.shard.pkts_per_ring_batch", "pkt", "higher"},
	{"router.shard.lane_skew", "ratio", "lower"},
	{"router.shard.ring_wait_p50_us", "us", "lower"},
	{"router.shard.lane_p50_us", "us", "lower"},
	{"router.shard.vs_fused", "ratio", "higher"},
	{"osabs.udp.tx_ns_per_frame", "ns/pkt", "lower"},
	{"osabs.udp.rx_ns_per_frame", "ns/pkt", "lower"},
	{"osabs.udp.rx_frames_per_syscall", "pkt", "higher"},
	{"osabs.udp.tx_frames_per_syscall", "pkt", "higher"},
	{"osabs.udp.rx_empty_polls", "count", "lower"},
	{"osabs.udp.batch_fill", "ratio", "higher"},
	{"osabs.udp.sock_drops", "count", "lower"},
	{"osabs.udp.arena_failures", "count", "lower"},
	{"ipc.push_ns_per_frame", "ns/pkt", "lower"},
	{"ipc.frames_per_roundtrip", "pkt", "higher"},
	{"ipc.window_occupancy", "ratio", "lower"},
	{"ipc.tx_bytes_per_frame", "B/pkt", "lower"},
	{"ipc.dropped", "count", "lower"},
	{"ipc.contained", "count", "lower"},
	{"ipc.lost", "count", "lower"},
	{"ipc.flush_us", "us", "lower"},
	{"buffers.pool_miss_ratio", "ratio", "lower"},
	{"bench.gen_ns_per_pkt", "ns/pkt", "lower"},
	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.cpu_util", "ratio", "higher"},
	{"bench.gc_cycles", "count", "lower"},
	{"bench.gc_pause_ms", "ms", "lower"},
	{"bench.window_spread.kpps", "ratio", "lower"},
	{"bench.window_spread.p50_us", "ratio", "lower"},
	{"bench.window_spread.p99_us", "ratio", "lower"},
	{"bench.window_spread.cpu_s_per_mpkt", "ratio", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.span_cover_frac", "ratio", "higher"},
	{"bench.spans_lost", "count", "lower"},
	// End-to-end quantities the contract cannot bound (see README.md);
	// read over the untraced base of the traced run.
	{"p99_us", "us", "lower"},
	{"alloc_b_per_pkt", "B/pkt", "lower"},
	{"reconfig_p50_us", "us", "lower"},
	{"loss_frac", "ratio", "lower"},
}

// layerStats is the program's own view of itself at one instant: the
// public stats tree plus the two devices the capsule does not hold.
type layerStats struct {
	tree  core.StatNode
	tx    osabs.UDPStats
	arena buffers.Stats
}

func (r *runner) layerStats() layerStats {
	ls := layerStats{tree: netkit.Meta(r.tgt.sys.Capsule()).Stats().Tree()}
	if r.tgt.tx != nil {
		ls.tx = r.tgt.tx.Stats()
	}
	if r.tgt.arena != nil {
		ls.arena = r.tgt.arena.Stats()
	}
	return ls
}

// Span names. A crossing is named after the component it enters, so the
// same layer reads the same on every topology.
const (
	spanBatch  = "bench.batch"
	spanInject = "bench.inject"
	hopCnt     = "hop:cnt"
	hopVal     = "hop:val"
	hopSink    = "hop:sink"
	hopCls     = "hop:cls"
	hopQueue   = "hop:queue"
	hopIso     = "hop:iso"
	hopEgress  = "hop:egress"
	traceName  = "bench-trace"
)

// installTrace puts a span-recording interceptor on every binding of the
// workload's data path, through the interception meta-model, while the
// traffic is running.
func (r *runner) installTrace() error {
	tr := newTracer(r.w.tracks, spanRing)
	// Every span name is registered before the first interceptor goes in:
	// an installed interceptor is live at once, on another goroutine.
	pt := map[string]int{}
	for _, name := range []string{spanBatch, spanInject, hopCnt, hopVal, hopSink, hopCls, hopQueue, hopIso, hopEgress} {
		pt[name] = tr.point(name)
	}
	r.ptBatch, r.ptInject = pt[spanBatch], pt[spanInject]
	ic := netkit.Meta(r.tgt.sys.Capsule()).Interception()
	var err error
	add := func(comp, recp, span string, track func([]*router.Packet) int) {
		if err == nil {
			err = ic.Install(comp, recp, traceName, tr.around(pt[span], track))
		}
	}
	lane := func(b []*router.Packet) int { return 1 + router.FlowShard(b[0], lanes) }
	switch r.w.topo {
	case "fwd":
		add("fp", "out", hopCnt, onTrack(0))
		add("cnt", "out", hopVal, onTrack(0))
		add("val", "out", hopSink, onTrack(0))
	case "router":
		add("fp", "out", hopCls, onTrack(0))
		for k := 0; k < numClasses; k++ {
			add("cls", fmt.Sprintf("out%d", k), hopQueue, onTrack(0))
		}
		add("sched", "out", hopCnt, onTrack(1))
		add("cnt", "out", hopSink, onTrack(1))
	case "sharded":
		for _, b := range []struct{ comp, span string }{
			{"ingress", hopCnt}, {"cnt", hopVal}, {"val", hopEgress},
		} {
			if err == nil {
				err = r.tgt.plane.Intercept(b.comp, "out", traceName, tr.around(pt[b.span], lane))
			}
		}
		add("plane", "out", hopSink, lane)
	case "udp":
		add("src", "out", hopCnt, onTrack(1))
		add("cnt", "out", hopVal, onTrack(1))
		add("val", "out", hopSink, onTrack(1))
	case "ipc":
		add("fp", "out", hopCnt, onTrack(0))
		add("cnt", "out", hopIso, onTrack(0))
		add("iso", "out", hopSink, onTrack(1))
	}
	r.tr = tr
	return err
}

// treeDelta is Σ of the named stat over tree b minus tree a, lane nodes
// included (the fuse counters of a sharded plane live there).
func treeDelta(a, b core.StatNode, name string) float64 {
	var sum func(n core.StatNode) float64
	sum = func(n core.StatNode) float64 {
		s, _ := n.Stat(name)
		v := s.Value
		for _, ch := range n.Children {
			v += sum(ch)
		}
		return v
	}
	return sum(b) - sum(a)
}

func treeMax(n core.StatNode, name string) float64 {
	s, _ := n.Stat(name)
	v := s.Value
	for _, ch := range n.Children {
		if c := treeMax(ch, name); c > v {
			v = c
		}
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the metrics of a traced run. S values are deltas of the
// program's own counters over the untraced base window, X values come from
// the spans of the traced windows, T and P values from timed public calls.
func (r *runner) perLayer(res *result, st setupTimes, final core.StatNode) {
	m := map[string]float64{}
	a, b := r.statsA, r.statsB
	nodeDelta := func(path, name string) float64 {
		return statAt(b.tree, path, name) - statAt(a.tree, path, name)
	}
	points, tracks := r.tr.reduce()
	res.points, res.tracks, res.tr = points, tracks, r.tr
	selfPP := func(name string) float64 { return findPoint(points, name).SelfPP }
	inject := findPoint(points, spanInject)
	injectPP := ratio(float64(inject.DurNs), float64(inject.Pkts))

	m["netkit.build_ms"], m["netkit.close_ms"] = st.buildMs, st.closeMs
	m["core.hop_ns_per_pkt"] = selfPP(hopCnt)
	m["router.fuse.fused_hops"] = treeMax(b.tree, "fused")
	m["router.fuse.fusions"] = treeDelta(a.tree, b.tree, "fusions")
	m["router.fuse.invalidations"] = treeDelta(a.tree, b.tree, "fuse_invalidations")

	if r.w.topo == "router" {
		hits, misses := nodeDelta("cls", "flowcache_hits"), nodeDelta("cls", "flowcache_misses")
		m["router.flowcache.hit_ratio"] = ratio(hits, hits+misses)
		m["router.classifier.ns_per_pkt"] = selfPP(hopCls)
		for _, q := range r.tgt.queues {
			m["router.queue.drops"] += statAt(final, q, "packets_dropped")
		}
		m["router.queue.occupancy_mean"] = ratio(r.occSum, r.occN)
		sched := findTrack(tracks, "sched")
		m["router.sched.ns_per_pkt"] = sched.GapPP
		egress := findPoint(points, hopCnt)
		m["router.sched.pkts_per_run"] = ratio(float64(egress.CallPkts), float64(egress.Calls))
	}
	if r.churn != nil {
		med := func(kind string) float64 { return median(r.churn.durations(kind)) }
		m["reconfig_p50_us"] = med("")
		m["core.intercept_install_us"], m["core.intercept_remove_us"] = med(opInstall), med(opRemove)
		m["router.hotswap_us"] = (med(opSwapRED) + med(opSwapFIFO)) / 2
		m["router.flowcache.refill_ms"] = median(r.churn.refills)
	}
	if r.w.topo == "sharded" {
		m["router.shard.dispatch_ns_per_pkt"] = injectPP
		var in []float64
		for i := 0; i < lanes; i++ {
			lane := fmt.Sprintf("plane/shard%d", i)
			m["router.shard.ring_stalls"] += nodeDelta(lane, "ring_stalls")
			in = append(in, nodeDelta(lane, "packets_in"))
		}
		m["router.shard.lane_skew"] = ratio(slices.Max(in)-slices.Min(in), (in[0]+in[1])/lanes)
		head := findPoint(points, hopCnt)
		m["router.shard.pkts_per_ring_batch"] = ratio(float64(head.CallPkts), float64(head.Calls))
		m["router.shard.ring_wait_p50_us"] =
			(findTrack(tracks, "lane0").WaitP50 + findTrack(tracks, "lane1").WaitP50) / lanes / 1e3
		if pa, ok := a.tree.Find("plane"); ok {
			pb, _ := b.tree.Find("plane")
			ha, _ := pa.Stat(router.StatLatency)
			hb, _ := pb.Stat(router.StatLatency)
			m["router.shard.lane_p50_us"] = hb.Hist.Sub(ha.Hist).Quantile(0.5) / 1e3
		}
	}
	if r.w.topo == "udp" {
		m["osabs.udp.tx_ns_per_frame"] = injectPP
		rxf, rxc := nodeDelta("src", "udp_rx_frames"), nodeDelta("src", "udp_rx_syscalls")
		m["osabs.udp.rx_frames_per_syscall"] = ratio(rxf, rxc)
		m["osabs.udp.batch_fill"] = ratio(rxf, rxc) / batchSize
		m["osabs.udp.tx_frames_per_syscall"] =
			ratio(float64(b.tx.TxFrames-a.tx.TxFrames), float64(b.tx.TxSyscalls-a.tx.TxSyscalls))
		m["osabs.udp.rx_empty_polls"] = nodeDelta("src", "udp_rx_empty_polls")
		m["osabs.udp.sock_drops"] = statAt(final, "src", "udp_sock_drops")
		m["osabs.udp.arena_failures"] = statAt(final, "src", "udp_arena_failures")
		m["buffers.pool_miss_ratio"] =
			ratio(float64(b.arena.Misses-a.arena.Misses), float64(b.arena.Gets-a.arena.Gets))
	}
	if r.w.topo == "ipc" {
		m["ipc.push_ns_per_frame"] = injectPP
		m["ipc.frames_per_roundtrip"] = ratio(nodeDelta("iso", "ipc_acked_frames"), nodeDelta("iso", "ipc_roundtrips"))
		m["ipc.window_occupancy"] = statAt(b.tree, "iso", "ipc_window_occupancy")
		m["ipc.tx_bytes_per_frame"] = ratio(nodeDelta("iso", "ipc_tx_bytes"), nodeDelta("iso", "ipc_tx_frames"))
		m["ipc.dropped"] = statAt(final, "iso", "ipc_dropped")
		m["ipc.contained"] = statAt(final, "iso", "ipc_contained_frames")
		m["ipc.lost"] = statAt(final, "iso", "ipc_lost")
	}

	// The harness itself, over the untraced base window.
	base := whole(r.base)
	m["bench.cpu_util"] = (base.to.cpu - base.from.cpu).Seconds() / base.secs() / float64(runtime.GOMAXPROCS(0))
	m["bench.gc_cycles"] = float64(base.to.mem.NumGC - base.from.mem.NumGC)
	m["bench.gc_pause_ms"] = float64(base.to.mem.PauseTotalNs-base.from.mem.PauseTotalNs) / 1e6
	m["alloc_b_per_pkt"] = allocPerPkt(base)
	m["p99_us"] = median(over(r.base, latQ(0.99)))
	m["loss_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	if r.w.intervalNs > 0 {
		m["bench.gen_late_p99_us"] = base.to.late.sub(base.from.late).quantile(0.99) / 1e3
	}
	for name, f := range map[string]func(window) float64{
		"kpps": kpps, "p50_us": latQ(0.5), "p99_us": latQ(0.99), "cpu_s_per_mpkt": cpuPerMpkt,
	} {
		m["bench.window_spread."+name] = spread(over(r.windows, f))
	}
	traced, untraced := median(over(r.windows, kpps)), median(over(r.base, kpps))
	m["bench.trace_overhead_frac"] = 1 - ratio(traced, untraced)
	// Every track's recorded roots and gaps, scaled up by the sampling
	// interval, should add to the time they were recorded over. The metric
	// is the track that is furthest from doing so.
	m["bench.span_cover_frac"] = 1
	for _, t := range tracks {
		if t.Roots > 1 && math.Abs(t.Cover-1) > math.Abs(m["bench.span_cover_frac"]-1) {
			m["bench.span_cover_frac"] = t.Cover
		}
	}
	m["bench.spans_lost"] = float64(r.tr.lost.Load())

	r.probes(m, untraced)

	for _, d := range layerDefs {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	res.Notes["traced_kpps"] = fmt.Sprintf("%.1f", traced)
	res.Notes["untraced_base_kpps"] = fmt.Sprintf("%.1f", untraced)
	res.Notes["trace_install_us"] = fmt.Sprintf("%.1f", float64(r.installNs)/1e3)
	res.Notes["spans"] = fmt.Sprint(len(r.tr.recorded()))
}
