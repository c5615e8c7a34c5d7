package main

import (
	"context"
	"time"

	"netkit"
	"netkit/internal/filter"
	"netkit/internal/osabs"
	"netkit/packet"
	"netkit/router"
)

// Probes time one public function of one layer in isolation, over the
// workload's own frames, after the measured part of a traced run is over.
// Each takes about probeTime.
const probeTime = 150 * time.Millisecond

// timeIt runs f repeatedly for about d and returns nanoseconds per unit,
// where one call of f does units units of work.
func timeIt(d time.Duration, units int, f func()) float64 {
	f() // warm
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		f()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n*units)
}

// probes runs the isolated probes that apply to the workload.
func (r *runner) probes(m map[string]float64, untracedKpps float64) {
	tp := r.tape
	null := newNullSink()
	m["bench.gen_ns_per_pkt"] = timeIt(probeTime, batchSize, func() {
		tp.next(router.Nanotime())
		_ = null.PushBatch(tp.batch)
	})
	m["packet.parse_csum_ns"] = timeIt(probeTime, len(tp.frames), func() {
		for _, f := range tp.frames {
			if _, err := packet.ParseIPv4(f); err != nil {
				fatal("probe: %v", err)
			}
			if err := packet.ValidateIPv4Checksum(f); err != nil {
				fatal("probe: %v", err)
			}
		}
	})
	stats := netkit.Meta(r.tgt.sys.Capsule()).Stats()
	m["netkit.stats_tree_us"] = timeIt(probeTime/3, 1, func() { _ = stats.Tree() }) / 1e3

	if r.churn == nil {
		// Under churn these two are the scheduled operations themselves.
		m["core.intercept_install_us"], m["core.intercept_remove_us"] = r.probeIntercept()
	}
	switch r.w.topo {
	case "fwd":
		m["router.fuse.ns_per_pkt"], _ = probeFused(tp)
	case "sharded":
		var fused float64
		m["router.fuse.ns_per_pkt"], fused = probeFused(tp)
		if r.w.intervalNs == 0 { // a paced plane's rate is its schedule's
			m["router.shard.vs_fused"] = ratio(untracedKpps, fused)
		}
	case "router":
		r.probeClassify(m)
	case "udp":
		m["osabs.udp.rx_ns_per_frame"] = probeUDPRecv(tp)
	case "ipc":
		m["ipc.flush_us"] = r.probeFlush()
	}
}

// probeIntercept times installing and removing a pass-through interceptor
// on the workload's first binding, idle.
func (r *runner) probeIntercept() (installUs, removeUs float64) {
	comp := map[string]string{"fwd": "fp", "sharded": "plane", "udp": "src", "ipc": "fp", "router": "fp"}[r.w.topo]
	ic := netkit.Meta(r.tgt.sys.Capsule()).Interception()
	var ins, rem []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if err := ic.Install(comp, "out", "bench-probe", passThrough); err != nil {
			fatal("probe: %v", err)
		}
		t1 := time.Now()
		if err := ic.Remove(comp, "out", "bench-probe"); err != nil {
			fatal("probe: %v", err)
		}
		ins = append(ins, float64(t1.Sub(t0))/1e3)
		rem = append(rem, float64(time.Since(t1))/1e3)
	}
	return median(ins), median(rem)
}

// probeFused runs the fwd64_sat chain into a null sink: the fused plan's
// cost per packet without the oracle, and the rate it sustains.
func probeFused(tp *tape) (nsPerPkt, kpps float64) {
	sys, err := netkit.NewBlueprint("probe").
		FastPath("fp").
		Insert("cnt", router.NewCounter()).
		Insert("val", router.NewChecksumValidator()).
		Insert("sink", newNullSink()).
		Pipe("fp", "cnt", "val", "sink").
		Build(context.Background())
	if err != nil {
		fatal("probe: %v", err)
	}
	defer sys.Close(context.Background())
	entry, err := entryOf(sys, "fp")
	if err != nil {
		fatal("probe: %v", err)
	}
	ns := timeIt(2*probeTime, batchSize, func() {
		tp.next(router.Nanotime())
		_ = entry.PushBatch(tp.batch)
	})
	return ns, 1e6 / ns
}

// probeClassify times the filter and flow-cache layers over one pass of
// the tape, and counts the flow cache's outcomes over exactly one pass —
// a fixed amount of work, so the counts repeat for a fixed seed.
func (r *runner) probeClassify(m map[string]float64) {
	tp := r.tape
	views := make([]filter.View, len(tp.frames))
	for i, f := range tp.frames {
		views[i] = filter.Extract(f)
	}
	tb, err := ruleTable()
	if err != nil {
		fatal("probe: %v", err)
	}
	t0 := time.Now()
	snap := tb.Snapshot()
	m["filter.compile_ms"] = float64(time.Since(t0)) / 1e6
	m["filter.lookup_ns"] = timeIt(probeTime, len(views), func() {
		for i := range views {
			if _, ok := snap.Lookup(&views[i]); !ok {
				fatal("probe: frame %d matches no rule", i)
			}
		}
	})
	var recompile []float64
	for i := 0; i < 9; i++ {
		id, err := tb.Add("udp and dst port 7", 0, "out0")
		if err != nil {
			fatal("probe: %v", err)
		}
		t0 := time.Now()
		tb.Snapshot()
		recompile = append(recompile, float64(time.Since(t0))/1e3)
		_ = tb.Remove(id)
	}
	m["filter.recompile_us"] = median(recompile)

	fc := router.NewFlowCache(router.DefaultFlowCacheCap)
	hashes := make([]uint32, len(tp.frames))
	for i, f := range tp.frames {
		hashes[i] = router.FlowHashRaw(f)
	}
	m["router.flowcache.probe_ns"] = timeIt(probeTime, len(views), func() {
		for i := range views {
			if _, _, hit := fc.ProbeView(hashes[i], &views[i], 1); !hit {
				fc.InsertView(hashes[i], &views[i], 1, "out0", true)
			}
		}
	})

	// One warm pass, then one counted pass through a classifier of its own.
	cls, err := router.NewClassifier("out0", "out1", "out2", "out3", "out4", "out5", "out6", "out7")
	if err != nil {
		fatal("probe: %v", err)
	}
	for k := 0; k < numRules; k++ {
		spec, out := ruleSpec(k)
		if _, err := cls.RegisterFilter(spec, 10, out); err != nil {
			fatal("probe: %v", err)
		}
	}
	pass := func() {
		for i := 0; i < len(tp.frames)/batchSize; i++ {
			tp.next(0)
			_ = cls.PushBatch(tp.batch) // outputs unbound: classified, then dropped
		}
	}
	pass()
	h0, m0, e0 := cls.FlowCache().Counters()
	pass()
	h1, m1, e1 := cls.FlowCache().Counters()
	m["router.flowcache.hits"] = float64(h1 - h0)
	m["router.flowcache.misses"] = float64(m1 - m0)
	m["router.flowcache.evictions"] = float64(e1 - e0)
}

// probeUDPRecv preloads a loopback socket and times draining it with
// RecvBatchInto: the receive syscall path without pump or pipeline.
func probeUDPRecv(tp *tape) float64 {
	const preload = 1024
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{Name: "probe-rx", Listen: "127.0.0.1:0", Batch: batchSize})
	if err != nil {
		fatal("probe: %v", err)
	}
	defer rx.Close()
	tx, err := osabs.NewUDPDevice(osabs.UDPConfig{Name: "probe-tx", Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: batchSize})
	if err != nil {
		fatal("probe: %v", err)
	}
	defer tx.Close()
	var rounds []float64
	frames := make([][]byte, 0, batchSize)
	for round := 0; round < 7; round++ {
		sent := 0
		for i := 0; i < preload/batchSize; i++ {
			tp.next(0)
			n, _ := tx.SendBatch(tp.raws)
			sent += n
		}
		time.Sleep(2 * time.Millisecond) // let the loopback deliver
		got, t0 := 0, time.Now()
		for got < sent && time.Since(t0) < time.Second {
			out, slab, err := rx.RecvBatchInto(frames[:0], batchSize)
			if err != nil {
				fatal("probe: %v", err)
			}
			got += len(out)
			for range out {
				if slab != nil {
					_ = slab.Release()
				}
			}
		}
		if got > 0 {
			rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(got))
		}
	}
	return median(rounds)
}

// probeFlush times RemoteComponent.Flush with one batch in flight.
func (r *runner) probeFlush() float64 {
	var us []float64
	for i := 0; i < 50; i++ {
		r.tape.next(router.Nanotime())
		_ = r.tgt.entry.PushBatch(r.tape.batch)
		t0 := time.Now()
		if err := r.tgt.remote.Flush(); err != nil {
			fatal("probe: flush: %v", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us)
}
