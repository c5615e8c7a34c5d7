package netkit

// The experiment suite: one BenchmarkE<n>_* family per row of DESIGN.md §3,
// implemented here and nowhere else. Go's benchmark runner is the registry
// and the CLI (go test -run '^$' -bench 'E4_|E11_' -benchmem .); §3 says how
// sweeps, machine-readable output and A/B runs map onto its flags.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"netkit/adapt"
	"netkit/cf"
	"netkit/core"
	"netkit/internal/appsvc"
	"netkit/internal/baseline"
	"netkit/internal/buffers"
	"netkit/internal/coord"
	"netkit/internal/filter"
	"netkit/internal/ipc"
	"netkit/internal/ixp"
	"netkit/internal/netsim"
	"netkit/internal/osabs"
	"netkit/internal/trace"
	"netkit/resources"
	"netkit/router"
)

func benchPacketRaw(b testing.TB) []byte {
	b.Helper()
	gen, err := trace.NewGenerator(trace.Config{Seed: 7, Flows: 1, UDPShare: 100})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := gen.NextFixed(64)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// reportKpps adds throughput to the line of a one-packet-per-op benchmark.
func reportKpps(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "kpps")
}

// ---------------------------------------------------------------------------
// E1 — call overhead: direct vs fused binding vs interception chains

func BenchmarkE1_DirectCall(b *testing.B) {
	sink := router.NewDropper()
	p := router.NewPacket(benchPacketRaw(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sink.Push(p)
	}
}

func BenchmarkE1_FusedBinding(b *testing.B) {
	capsule := core.NewCapsule("e1")
	cnt := router.NewCounter()
	if err := capsule.Insert("cnt", cnt); err != nil {
		b.Fatal(err)
	}
	if err := capsule.Insert("drop", router.NewDropper()); err != nil {
		b.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "cnt", "out", "drop"); err != nil {
		b.Fatal(err)
	}
	p := router.NewPacket(benchPacketRaw(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cnt.Push(p)
	}
}

func BenchmarkE1_Interceptors(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chain-%d", k), func(b *testing.B) {
			capsule := core.NewCapsule("e1i")
			cnt := router.NewCounter()
			if err := capsule.Insert("cnt", cnt); err != nil {
				b.Fatal(err)
			}
			if err := capsule.Insert("drop", router.NewDropper()); err != nil {
				b.Fatal(err)
			}
			bind, err := router.ConnectPush(capsule, "cnt", "out", "drop")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if err := bind.AddInterceptor(core.Interceptor{
					Name: fmt.Sprintf("i%d", i),
					Wrap: core.PrePost(nil, nil),
				}); err != nil {
					b.Fatal(err)
				}
			}
			p := router.NewPacket(benchPacketRaw(b))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = cnt.Push(p)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E2 — configuration footprint: what one built configuration keeps live
// (KiB) beside what building it allocates (B/op)

// e2Footprint builds b.N configurations, holding the last 64 so the heap
// read either side of a collection prices what one of them retains.
func e2Footprint(b *testing.B, build func() any) {
	b.ReportAllocs()
	held := make([]any, min(b.N, 64))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		held[i%len(held)] = build()
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	b.ReportMetric(live/1024/float64(len(held)), "KiB")
	runtime.KeepAlive(held)
}

func BenchmarkE2_FootprintMinimalForwarder(b *testing.B) {
	e2Footprint(b, func() any {
		c := core.NewCapsule("min")
		_ = c.Insert("cnt", router.NewCounter())
		_ = c.Insert("v4", router.NewIPv4Proc(false))
		_ = c.Insert("drop", router.NewDropper())
		_, _ = router.ConnectPush(c, "cnt", "out", "v4")
		_, _ = router.ConnectPush(c, "v4", "out", "drop")
		return c
	})
}

func BenchmarkE2_FootprintFigure3(b *testing.B) {
	e2Footprint(b, func() any {
		c := core.NewCapsule("f3")
		comp, err := router.NewFigure3Composite(c, router.Figure3Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Insert("gw", comp); err != nil {
			b.Fatal(err)
		}
		return c
	})
}

// ---------------------------------------------------------------------------
// E3 — forwarding throughput vs chain length, three systems

func e3Chain(b *testing.B, chainLen int) (router.IPacketPush, *core.Capsule) {
	b.Helper()
	capsule := core.NewCapsule("e3")
	v4 := router.NewIPv4Proc(false)
	if err := capsule.Insert("v4", v4); err != nil {
		b.Fatal(err)
	}
	prev := "v4"
	for i := 0; i < chainLen; i++ {
		name := fmt.Sprintf("c%d", i)
		if err := capsule.Insert(name, router.NewCounter()); err != nil {
			b.Fatal(err)
		}
		if _, err := router.ConnectPush(capsule, prev, "out", name); err != nil {
			b.Fatal(err)
		}
		prev = name
	}
	if err := capsule.Insert("drop", router.NewDropper()); err != nil {
		b.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, prev, "out", "drop"); err != nil {
		b.Fatal(err)
	}
	return v4, capsule
}

func BenchmarkE3_NetkitChain(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("len-%d", k), func(b *testing.B) {
			first, _ := e3Chain(b, k)
			raw := benchPacketRaw(b)
			p := router.NewPacket(raw)
			ttl := raw[8]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw[8] = ttl // rearm TTL so the packet never expires
				_ = first.Push(p)
			}
			reportKpps(b)
		})
	}
}

func BenchmarkE3_ClickChain(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("len-%d", k), func(b *testing.B) {
			click := baseline.NewClickRouter()
			if err := click.Add(baseline.DecTTL()); err != nil {
				b.Fatal(err)
			}
			counters := make([]uint64, k)
			for i := 0; i < k; i++ {
				if err := click.Add(baseline.CountPkts(&counters[i])); err != nil {
					b.Fatal(err)
				}
			}
			if err := click.Build(); err != nil {
				b.Fatal(err)
			}
			raw := benchPacketRaw(b)
			ttl := raw[8]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw[8] = ttl
				_, _ = click.Run(raw)
			}
			reportKpps(b)
		})
	}
}

func BenchmarkE3_Monolith(b *testing.B) {
	mono := baseline.NewMonolith(false)
	raw := benchPacketRaw(b)
	ttl := raw[8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw[8] = ttl
		_ = mono.Run(raw)
	}
	reportKpps(b)
}

// ---------------------------------------------------------------------------
// E4 — reconfiguration latency

func BenchmarkE4_HotSwap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		capsule := core.NewCapsule("e4")
		head := router.NewCounter()
		mid := router.NewCounter()
		if err := capsule.Insert("head", head); err != nil {
			b.Fatal(err)
		}
		if err := capsule.Insert("mid", mid); err != nil {
			b.Fatal(err)
		}
		if err := capsule.Insert("tail", router.NewDropper()); err != nil {
			b.Fatal(err)
		}
		if _, err := router.ConnectPush(capsule, "head", "out", "mid"); err != nil {
			b.Fatal(err)
		}
		if _, err := router.ConnectPush(capsule, "mid", "out", "tail"); err != nil {
			b.Fatal(err)
		}
		repl := router.NewCounter()
		b.StartTimer()
		if err := router.HotSwap(capsule, "mid", "mid2", repl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_ClickRebuild(b *testing.B) {
	var c1 uint64
	click := baseline.NewClickRouter()
	if err := click.Add(baseline.CountPkts(&c1)); err != nil {
		b.Fatal(err)
	}
	if err := click.Add(baseline.DecTTL()); err != nil {
		b.Fatal(err)
	}
	if err := click.Build(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c2 uint64
		if _, err := click.Reconfigure(0, baseline.CountPkts(&c2)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E5 — classification cost vs rule count

func BenchmarkE5_ClassifierLookup(b *testing.B) {
	raw := benchPacketRaw(b)
	view := filter.Extract(raw)
	for _, n := range []int{1, 16, 256, 1024} {
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			tbl := filter.NewTable()
			for i := 0; i < n; i++ {
				spec := fmt.Sprintf("udp and dst port %d", 20000+i)
				if _, err := tbl.Add(spec, i, "out"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = tbl.LookupView(&view)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E6 — in-proc vs out-of-proc binding

func BenchmarkE6_InProcPush(b *testing.B) {
	cnt := router.NewCounter()
	p := router.NewPacket(benchPacketRaw(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cnt.Push(p)
	}
}

func BenchmarkE6_OutOfProcPush(b *testing.B) {
	reg := core.NewComponentRegistry()
	reg.MustRegister(router.TypeCounter, func(map[string]string) (core.Component, error) {
		return router.NewCounter(), nil
	})
	client, _, cleanup := ipc.HostPair(reg)
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		b.Fatal(err)
	}
	raw := benchPacketRaw(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rc.Push(router.NewPacket(raw))
	}
}

// ---------------------------------------------------------------------------
// E18 — batched, pipelined out-of-proc bindings

// e18Remote builds a one-component isolated capsule (a Counter behind an
// ipc.HostPair) and returns its stand-in plus a teardown.
func e18Remote(tb testing.TB) (*ipc.RemoteComponent, func()) {
	tb.Helper()
	reg := core.NewComponentRegistry()
	reg.MustRegister(router.TypeCounter, func(map[string]string) (core.Component, error) {
		return router.NewCounter(), nil
	})
	client, _, cleanup := ipc.HostPair(reg)
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		cleanup()
		tb.Fatal(err)
	}
	return rc, cleanup
}

// e18PushBatchNs measures the pipelined out-of-proc cost per packet:
// iters PushBatch calls of the same batch-sized packet slice stream into
// the credit window, one Flush settles the tail, and the elapsed wall
// time is divided by the packets moved.
func e18PushBatchNs(tb testing.TB, batch, iters int) float64 {
	tb.Helper()
	rc, cleanup := e18Remote(tb)
	defer cleanup()
	raw := benchPacketRaw(tb)
	pkts := make([]*router.Packet, batch)
	for i := range pkts {
		pkts[i] = router.NewPacket(raw)
	}
	// Warm the path (name interning, pool priming) outside the clock.
	if err := rc.PushBatch(pkts); err != nil {
		tb.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := rc.PushBatch(pkts); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rc.Flush(); err != nil {
		tb.Fatal(err)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters*batch)
}

// e18InProcNs is the in-proc reference: the same Counter.PushBatch of one
// packet the remote side runs, called through nothing at all — on a slice
// the caller holds, so the per-packet adapter's cost is not in the
// denominator.
func e18InProcNs(tb testing.TB, iters int) float64 {
	tb.Helper()
	cnt := router.NewCounter()
	one := []*router.Packet{router.NewPacket(benchPacketRaw(tb))}
	start := time.Now()
	for i := 0; i < iters; i++ {
		_ = cnt.PushBatch(one)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// TestE18BatchAmortization is the acceptance gate for the batched ipc
// transport: pushing batch-32 through the pipelined binary framing must
// land within 25x of the in-proc call — against the ~190x a synchronous
// per-packet crossing costs (E6). Best of five attempts is gated: the
// capability is what is asserted, and shared-runner noise only ever
// degrades a measurement, never flatters it.
func TestE18BatchAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate meaningless under the race detector")
	}
	const (
		want  = 25.0
		batch = 32
	)
	best := 0.0
	for attempt := 0; attempt < 5; attempt++ {
		inProc := e18InProcNs(t, 200_000)
		outOfProc := e18PushBatchNs(t, batch, 5_000)
		if ratio := outOfProc / inProc; best == 0 || ratio < best {
			best = ratio
		}
		if best <= want {
			break
		}
	}
	if best > want {
		t.Fatalf("batch-%d out-of-proc push costs x%.1f the in-proc call, want <= x%.1f", batch, best, want)
	}
}

// BenchmarkE18_OutOfProcPushBatch reports the pipelined out-of-proc cost
// per packet by batch size. One op is one packet; compare against
// BenchmarkE6_OutOfProcPush (one synchronous crossing per packet) and
// BenchmarkE6_InProcPush (the floor).
func BenchmarkE18_OutOfProcPushBatch(b *testing.B) {
	for _, k := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			rc, cleanup := e18Remote(b)
			defer cleanup()
			raw := benchPacketRaw(b)
			pkts := make([]*router.Packet, k)
			for i := range pkts {
				pkts[i] = router.NewPacket(raw)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				if err := rc.PushBatch(pkts); err != nil {
					b.Fatal(err)
				}
			}
			if err := rc.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — placement evaluation and rebalancing

// BenchmarkE7_EvaluatePlacement times one evaluation of the analytic chip
// model per placement strategy; model-kpps is the throughput it predicts.
func BenchmarkE7_EvaluatePlacement(b *testing.B) {
	chip := ixp.DefaultIXP1200()
	pipe := ixp.StandardPipeline()
	for _, s := range []struct {
		name string
		asg  ixp.Assignment
	}{
		{"all-on-strongarm", ixp.PlaceAllControl(pipe)},
		{"round-robin", ixp.PlaceRoundRobin(chip, pipe)},
		{"greedy", ixp.PlaceGreedy(chip, pipe)},
	} {
		b.Run(s.name, func(b *testing.B) {
			var rep *ixp.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = ixp.Evaluate(chip, pipe, s.asg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ThroughputPPS/1e3, "model-kpps")
		})
	}
}

func BenchmarkE7_Rebalance(b *testing.B) {
	chip := ixp.DefaultIXP1200()
	pipe := ixp.StandardPipeline()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bad := make(ixp.Assignment)
		for _, s := range pipe {
			bad[s.Name] = ixp.Target{Engine: 0}
		}
		mgr, err := ixp.NewManager(chip, pipe, bad)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := mgr.Rebalance(16); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E8 — reservation signalling vs hops

func BenchmarkE8_Reserve(b *testing.B) {
	for _, hops := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("hops-%d", hops), func(b *testing.B) {
			w := netsim.NewNetwork()
			defer w.Stop()
			names, err := netsim.Line(w, "r", hops+1, netsim.LinkConfig{})
			if err != nil {
				b.Fatal(err)
			}
			agents := make([]*coord.Agent, len(names))
			for i, name := range names {
				node, err := w.Node(name)
				if err != nil {
					b.Fatal(err)
				}
				caps := map[string]int64{}
				for _, nb := range node.Neighbors() {
					caps[nb] = 1 << 40
				}
				agents[i] = coord.NewAgent(node, coord.AgentConfig{Capacity: caps})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				session := fmt.Sprintf("s%d", i)
				if err := agents[0].Reserve(session, names, 1, 10*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — spawning vs member count

func BenchmarkE9_Spawn(b *testing.B) {
	for _, members := range []int{3, 12, 24} {
		b.Run(fmt.Sprintf("members-%d", members), func(b *testing.B) {
			w := netsim.NewNetwork()
			defer w.Stop()
			names, err := netsim.Line(w, "p", members, netsim.LinkConfig{})
			if err != nil {
				b.Fatal(err)
			}
			spawners := make([]*coord.Spawner, members)
			for i, name := range names {
				node, err := w.Node(name)
				if err != nil {
					b.Fatal(err)
				}
				spawners[i] = coord.NewSpawner(node)
			}
			adj := map[string][]string{}
			for i := range names {
				if i > 0 {
					adj[names[i]] = append(adj[names[i]], names[i-1])
				}
				if i < len(names)-1 {
					adj[names[i]] = append(adj[names[i]], names[i+1])
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("v%d", i)
				if err := spawners[0].Spawn(w, coord.SpawnSpec{
					Name: name, Members: names, Adj: adj, Timeout: 10 * time.Second,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E10 — buffers and schedulers

func BenchmarkE10_PooledBuffer(b *testing.B) {
	pool := buffers.MustNewPool(buffers.DefaultClasses, 256, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := pool.Get(1500)
		if err != nil {
			b.Fatal(err)
		}
		if err := buf.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

var benchAllocSink []byte

func BenchmarkE10_HeapAlloc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchAllocSink = make([]byte, 1500)
	}
}

func BenchmarkE10_Schedulers(b *testing.B) {
	mgr := resources.NewManager()
	tasks := make([]*resources.Task, 4)
	for i := range tasks {
		t, err := mgr.CreateTask(resources.TaskSpec{
			Name: fmt.Sprintf("t%d", i), Weight: i + 1, Priority: i,
		})
		if err != nil {
			b.Fatal(err)
		}
		tasks[i] = t
	}
	for _, sc := range []struct {
		name string
		mk   func() resources.Scheduler
	}{
		{"fifo", func() resources.Scheduler { return resources.NewFIFOScheduler() }},
		{"priority", func() resources.Scheduler { return resources.NewPriorityScheduler() }},
		{"wfq", func() resources.Scheduler { return resources.NewWFQScheduler() }},
	} {
		b.Run(sc.name, func(b *testing.B) {
			s := sc.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Push(&resources.WorkItem{Task: tasks[i%4], Run: func() {}})
				if i%2 == 1 {
					s.Pop()
					s.Pop()
				}
			}
		})
	}
}

// BenchmarkE10_WFQShare: one op queues 4000 items each for a weight-3 and
// a weight-1 task and serves half the backlog; heavy/light is the service
// ratio the weights bought.
func BenchmarkE10_WFQShare(b *testing.B) {
	mgr := resources.NewManager()
	heavy, err := mgr.CreateTask(resources.TaskSpec{Name: "heavy", Weight: 3})
	if err != nil {
		b.Fatal(err)
	}
	light, err := mgr.CreateTask(resources.TaskSpec{Name: "light", Weight: 1})
	if err != nil {
		b.Fatal(err)
	}
	const n = 4000
	served := 0
	for i := 0; i < b.N; i++ {
		s := resources.NewWFQScheduler()
		for j := 0; j < n; j++ {
			s.Push(&resources.WorkItem{Task: heavy, Run: func() {}})
			s.Push(&resources.WorkItem{Task: light, Run: func() {}})
		}
		served = 0
		for j := 0; j < n; j++ {
			if s.Pop().Task == heavy {
				served++
			}
		}
	}
	b.ReportMetric(float64(served)/float64(n-served), "heavy/light")
}

// ---------------------------------------------------------------------------
// E11 — batched fast path: per-packet Push vs PushBatch through the
// forwarding chain (DESIGN.md §3/§4). All variants process one packet per
// benchmark op, so ns/op and B/op are directly comparable.

// e11Packets builds k distinct E-series trace packets plus their TTL
// bytes for rearming between iterations.
func e11Packets(b *testing.B, k int) (pkts []*router.Packet, raws [][]byte, ttls []byte) {
	b.Helper()
	gen, err := trace.NewGenerator(trace.Config{Seed: 7, Flows: 32, UDPShare: 100})
	if err != nil {
		b.Fatal(err)
	}
	pkts = make([]*router.Packet, k)
	raws = make([][]byte, k)
	ttls = make([]byte, k)
	for i := 0; i < k; i++ {
		raw, err := gen.NextFixed(64)
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = raw
		ttls[i] = raw[8]
		pkts[i] = router.NewPacket(raw)
	}
	return pkts, raws, ttls
}

func BenchmarkE11_PerPacket(b *testing.B) {
	first, _ := e3Chain(b, 2)
	pkts, raws, ttls := e11Packets(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raws[0][8] = ttls[0]
		_ = first.Push(pkts[0])
	}
	reportKpps(b)
}

func BenchmarkE11_Batched(b *testing.B) {
	for _, k := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch-%d", k), func(b *testing.B) {
			first, _ := e3Chain(b, 2)
			pkts, raws, ttls := e11Packets(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				n := k // process exactly b.N packets so ns/op is per packet
				if rem := b.N - i; rem < n {
					n = rem
				}
				for j := 0; j < n; j++ {
					raws[j][8] = ttls[j] // rearm TTLs so packets never expire
				}
				_ = router.ForwardBatch(first, pkts[:n])
			}
			reportKpps(b)
		})
	}
}

// BenchmarkE11_Intercepted measures the batch dividend under live
// interception: the chain wraps a batch crossing once, so per-packet
// interception overhead (and its []any allocations) shrinks by the batch
// factor.
func BenchmarkE11_Intercepted(b *testing.B) {
	setup := func(b *testing.B) router.IPacketPush {
		b.Helper()
		capsule := core.NewCapsule("e11i")
		cnt := router.NewCounter()
		if err := capsule.Insert("cnt", cnt); err != nil {
			b.Fatal(err)
		}
		if err := capsule.Insert("drop", router.NewDropper()); err != nil {
			b.Fatal(err)
		}
		bind, err := router.ConnectPush(capsule, "cnt", "out", "drop")
		if err != nil {
			b.Fatal(err)
		}
		if err := bind.AddInterceptor(core.Interceptor{
			Name: "audit", Wrap: core.PrePost(nil, nil),
		}); err != nil {
			b.Fatal(err)
		}
		return cnt
	}
	b.Run("perpacket", func(b *testing.B) {
		first := setup(b)
		pkts, _, _ := e11Packets(b, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = first.Push(pkts[0])
		}
	})
	for _, k := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("batch-%d", k), func(b *testing.B) {
			first := setup(b)
			pkts, _, _ := e11Packets(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				n := k
				if rem := b.N - i; rem < n {
					n = rem
				}
				_ = router.ForwardBatch(first, pkts[:n])
			}
		})
	}
}

// ---------------------------------------------------------------------------
// EE — stratum-3 program dispatch (ablation for E1/E5)

func BenchmarkEE_NativeProgram(b *testing.B) {
	capsule := core.NewCapsule("ee")
	ee := appsvc.NewExecEnv()
	if err := capsule.Insert("ee", ee); err != nil {
		b.Fatal(err)
	}
	if err := capsule.Insert("drop", router.NewDropper()); err != nil {
		b.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "ee", "out", "drop"); err != nil {
		b.Fatal(err)
	}
	if err := ee.Attach("udp", appsvc.TTLFloor{Min: 2}, appsvc.Sandbox{}); err != nil {
		b.Fatal(err)
	}
	p := router.NewPacket(benchPacketRaw(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ee.Push(p)
	}
}

func BenchmarkEE_VMProgram(b *testing.B) {
	capsule := core.NewCapsule("eevm")
	ee := appsvc.NewExecEnv()
	if err := capsule.Insert("ee", ee); err != nil {
		b.Fatal(err)
	}
	if err := capsule.Insert("drop", router.NewDropper()); err != nil {
		b.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "ee", "out", "drop"); err != nil {
		b.Fatal(err)
	}
	code := appsvc.MustAssemble(`
		loadf ttl
		push 2
		lt
		jnz kill
		forward
		kill: drop
	`)
	if err := ee.AttachVM("guard", "udp", code, appsvc.Sandbox{}); err != nil {
		b.Fatal(err)
	}
	p := router.NewPacket(benchPacketRaw(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ee.Push(p)
	}
}

// ---------------------------------------------------------------------------
// E12 — sharded multi-core scale-out: the RSS dispatcher fans flows over N
// Router CF replicas (DESIGN.md §4.5). Replica work is read-only per
// packet (two checksum validations + a counter), so packets can recycle
// across iterations while shard workers process concurrently.

// e12Replica builds validator -> validator -> counter -> egress.
func e12Replica(shard int, fw *cf.Framework) (string, error) {
	v1, v2 := router.ShardName(shard, "val1"), router.ShardName(shard, "val2")
	cnt := router.ShardName(shard, "cnt")
	if err := fw.Admit(v1, router.NewChecksumValidator()); err != nil {
		return "", err
	}
	if err := fw.Admit(v2, router.NewChecksumValidator()); err != nil {
		return "", err
	}
	if err := fw.Admit(cnt, router.NewCounter()); err != nil {
		return "", err
	}
	capsule := fw.Capsule()
	if _, err := capsule.Bind(v1, "out", v2, router.IPacketPushID); err != nil {
		return "", err
	}
	if _, err := capsule.Bind(v2, "out", cnt, router.IPacketPushID); err != nil {
		return "", err
	}
	if _, err := capsule.Bind(cnt, "out", router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
		return "", err
	}
	return v1, nil
}

// e12Build returns a started n-shard CF draining into a dropper.
func e12Build(tb testing.TB, n int) *router.ShardedCF {
	tb.Helper()
	capsule := core.NewCapsule("e12")
	s, err := router.NewShardedCF(capsule, router.ShardConfig{Shards: n}, e12Replica)
	if err != nil {
		tb.Fatal(err)
	}
	if err := capsule.Insert("fwd", s); err != nil {
		tb.Fatal(err)
	}
	if err := capsule.Insert("drop", router.NewDropper()); err != nil {
		tb.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "fwd", "out", "drop"); err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = capsule.StopAll(ctx) })
	return s
}

// e12Packets pregenerates a flow-diverse packet set (valid checksums, so
// the validating replicas never drop).
func e12Packets(tb testing.TB, k int) []*router.Packet {
	tb.Helper()
	gen, err := trace.NewGenerator(trace.Config{Seed: 12, Flows: 64, UDPShare: 100})
	if err != nil {
		tb.Fatal(err)
	}
	pkts := make([]*router.Packet, k)
	for i := range pkts {
		raw, err := gen.NextFixed(64)
		if err != nil {
			tb.Fatal(err)
		}
		pkts[i] = router.NewPacket(raw)
	}
	return pkts
}

// e12Drive pushes pkts through s in batches of 32, cycling the set until
// total packets have been dispatched, then quiesces. Returns wall time.
func e12Drive(tb testing.TB, s *router.ShardedCF, pkts []*router.Packet, total int) time.Duration {
	tb.Helper()
	start := time.Now()
	sent := 0
	for sent < total {
		lo := sent % len(pkts)
		hi := lo + 32
		if hi > len(pkts) {
			hi = len(pkts)
		}
		if hi-lo > total-sent {
			hi = lo + (total - sent)
		}
		if err := s.PushBatch(pkts[lo:hi]); err != nil {
			tb.Fatal(err)
		}
		sent += hi - lo
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

func BenchmarkE12_Sharded(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			s := e12Build(b, n)
			pkts := e12Packets(b, 1024)
			b.ResetTimer()
			secs := e12Drive(b, s, pkts, b.N).Seconds()
			b.ReportMetric(float64(b.N)/secs/1e3, "kpps")
			for i := 0; i < n; i++ { // how evenly RSS spread the flows
				b.ReportMetric(float64(s.ShardStats(i).In)/secs/1e3, fmt.Sprintf("lane%d-kpps", i))
			}
		})
	}
}

// TestE12ShardScaling asserts the scale-out claim where the hardware can
// express it: with >=4 CPUs, 4 shards must deliver at least 2x the kpps
// of 1 shard on the same replica work. On smaller hosts the assertion is
// skipped (as it is under -race and -short) — the correctness of
// sharding is covered by the router package's race/fuzz/stress tests,
// which do not need parallel hardware. Because shared CI runners are
// noisy neighbours, the comparison is best-of-3 per point and gets one
// full retry before the test fails.
func TestE12ShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	if raceEnabled {
		t.Skip("throughput bound not meaningful under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling assertion needs >=4 CPUs, have %d", runtime.NumCPU())
	}
	const total = 400_000
	measure := func(shards int) float64 {
		s := e12Build(t, shards)
		pkts := e12Packets(t, 1024)
		e12Drive(t, s, pkts, total/4) // warm-up
		elapsed := e12Drive(t, s, pkts, total)
		return float64(total) / elapsed.Seconds() / 1e3
	}
	// Best-of-3 per point to shrug off scheduler noise.
	best := func(shards int) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if k := measure(shards); k > b {
				b = k
			}
		}
		return b
	}
	const attempts = 2
	var one, four float64
	for attempt := 1; attempt <= attempts; attempt++ {
		one = best(1)
		four = best(4)
		t.Logf("E12 attempt %d: shards=1 %.0f kpps, shards=4 %.0f kpps (x%.2f)",
			attempt, one, four, four/one)
		if four >= 2*one {
			return
		}
	}
	t.Fatalf("shards=4 delivered %.0f kpps, want >= 2x shards=1 (%.0f kpps) in %d attempts",
		four, one, attempts)
}

// ---------------------------------------------------------------------------
// E13 — closed-loop adaptation (DESIGN.md §5)

// BenchmarkE13_StatsTreeSample measures the cost of one stats-tree
// snapshot over a representative capsule — the per-tick observation price
// of the adaptation engine.
func BenchmarkE13_StatsTreeSample(b *testing.B) {
	capsule := core.NewCapsule("e13-sample")
	for i := 0; i < 8; i++ {
		if err := capsule.Insert(fmt.Sprintf("c%d", i), router.NewCounter()); err != nil {
			b.Fatal(err)
		}
	}
	q, err := router.NewFIFOQueue(128)
	if err != nil {
		b.Fatal(err)
	}
	if err := capsule.Insert("q", q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := core.CapsuleStats(capsule)
		if len(tree.Children) != 9 {
			b.Fatal("bad tree")
		}
	}
}

// BenchmarkE13_EngineTick measures a full engine tick — snapshot plus
// rule evaluation — for a small rule set, i.e. the steady-state overhead
// the reflective loop adds while nothing fires.
func BenchmarkE13_EngineTick(b *testing.B) {
	capsule := core.NewCapsule("e13-tick")
	q, err := router.NewFIFOQueue(128)
	if err != nil {
		b.Fatal(err)
	}
	if err := capsule.Insert("q", q); err != nil {
		b.Fatal(err)
	}
	if err := capsule.Insert("in", router.NewCounter()); err != nil {
		b.Fatal(err)
	}
	rules := []adapt.Rule{
		{Name: "r1", When: adapt.GaugeAbove("q", "queue_occupancy", 0.99)},
		{Name: "r2", When: adapt.RateAbove("q", "packets_dropped", 1e12)},
		{Name: "r3", When: adapt.All(
			adapt.GaugeAbove("in", "packets_in", 1e18),
			adapt.GaugeBelow("q", "queue_len", -1))},
	}
	prev := core.CapsuleStats(capsule)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := core.CapsuleStats(capsule)
		v := adapt.View{Now: now, Prev: prev, Elapsed: time.Millisecond}
		for _, r := range rules {
			if r.When(v) {
				b.Fatal("rule fired unexpectedly")
			}
		}
		prev = now
	}
}

// ---------------------------------------------------------------------------
// E15 — compiled classification + megaflow cache: flat lookup 1 → 10k rules

// BenchmarkE15_LookupCurve charts the three classification regimes the
// compiled backend introduces, against the same worst-case (never-matching)
// packet E5 uses: the linear VM oracle, the compiled tuple-space lookup
// (cold: every lookup classifies), and the end-to-end classifier push with
// a warm megaflow cache (the steady state of a real flow). The point of
// the experiment is the SHAPE: vm grows linearly with the rule count,
// compiled and cached stay flat.
func BenchmarkE15_LookupCurve(b *testing.B) {
	raw := benchPacketRaw(b)
	view := filter.Extract(raw)
	for _, n := range []int{1, 64, 1000, 10000} {
		tbl := filter.NewTable()
		for i := 0; i < n; i++ {
			spec := fmt.Sprintf("udp and dst port %d", 20000+i)
			if _, err := tbl.Add(spec, i, "out"); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("vm/rules-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = tbl.LookupViewVM(&view)
			}
		})
		b.Run(fmt.Sprintf("compiled/rules-%d", n), func(b *testing.B) {
			snap := tbl.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = snap.Lookup(&view)
			}
		})
		b.Run(fmt.Sprintf("cached/rules-%d", n), func(b *testing.B) {
			cls, err := router.NewClassifier("out", "default")
			if err != nil {
				b.Fatal(err)
			}
			capsule := core.NewCapsule("e15")
			if err := capsule.Insert("cls", cls); err != nil {
				b.Fatal(err)
			}
			if err := capsule.Insert("sink", router.NewDropper()); err != nil {
				b.Fatal(err)
			}
			if err := capsule.Insert("dsink", router.NewDropper()); err != nil {
				b.Fatal(err)
			}
			if _, err := router.ConnectPush(capsule, "cls", "out", "sink"); err != nil {
				b.Fatal(err)
			}
			if _, err := router.ConnectPush(capsule, "cls", "default", "dsink"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				spec := fmt.Sprintf("udp and dst port %d", 20000+i)
				if _, err := cls.RegisterFilter(spec, i, "out"); err != nil {
					b.Fatal(err)
				}
			}
			p := router.NewPacket(raw)
			if err := cls.Push(p); err != nil { // warm the flow's verdict
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = cls.Push(p)
			}
		})
	}
}

// BenchmarkE15_CacheProbe isolates the megaflow probe itself — the cost a
// repeat flow pays regardless of table size.
func BenchmarkE15_CacheProbe(b *testing.B) {
	fc := router.NewFlowCache(router.DefaultFlowCacheCap)
	raw := benchPacketRaw(b)
	p := router.NewPacket(raw)
	view := filter.Extract(raw)
	h := router.FlowHash(p)
	fc.InsertView(h, &view, 1, "out", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = fc.ProbeView(h, &view, 1)
	}
}

// ---------------------------------------------------------------------------
// E16 — bind-time chain fusion: the flattened fast path vs the hop-by-hop
// chain (E3) and the monolith bound. One packet per op everywhere, so
// ns/op is directly comparable across E3, E11 and E16.

// e16Chain is e3Chain headed by a FastPath: fp -> v4 -> c0..ck-1 -> drop.
// The whole chain is fusible and terminal, so it compiles into a single
// plan of chainLen+2 hops.
func e16Chain(b *testing.B, chainLen int) (*router.FastPath, *core.Capsule) {
	b.Helper()
	capsule := core.NewCapsule("e16")
	fp := router.NewFastPath(capsule)
	if err := capsule.Insert("fp", fp); err != nil {
		b.Fatal(err)
	}
	if err := capsule.Insert("v4", router.NewIPv4Proc(false)); err != nil {
		b.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "fp", "out", "v4"); err != nil {
		b.Fatal(err)
	}
	prev := "v4"
	for i := 0; i < chainLen; i++ {
		name := fmt.Sprintf("c%d", i)
		if err := capsule.Insert(name, router.NewCounter()); err != nil {
			b.Fatal(err)
		}
		if _, err := router.ConnectPush(capsule, prev, "out", name); err != nil {
			b.Fatal(err)
		}
		prev = name
	}
	if err := capsule.Insert("drop", router.NewDropper()); err != nil {
		b.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, prev, "out", "drop"); err != nil {
		b.Fatal(err)
	}
	// Warm the plan and pin that fusion actually happened — the benchmark
	// is meaningless hop-by-hop.
	raw := benchPacketRaw(b)
	ttl := raw[8]
	if err := fp.Push(router.NewPacket(raw)); err != nil {
		b.Fatal(err)
	}
	raw[8] = ttl
	if got, want := fp.Fuser().FusedHops(), chainLen+2; got != want {
		b.Fatalf("fused %d hops, want %d", got, want)
	}
	return fp, capsule
}

// BenchmarkE16_FusedChain is the per-packet drive of the fused chain — the
// direct counterpart of BenchmarkE3_NetkitChain.
func BenchmarkE16_FusedChain(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("len-%d", k), func(b *testing.B) {
			fp, _ := e16Chain(b, k)
			raw := benchPacketRaw(b)
			p := router.NewPacket(raw)
			ttl := raw[8]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw[8] = ttl // rearm TTL so the packet never expires
				_ = fp.Push(p)
			}
			reportKpps(b)
		})
	}
}

// BenchmarkE16_FusedChainBatched is the batched drive — the deployment
// configuration (shard lanes run ring batches through the fused plan), and
// the figure the §8 acceptance ratios are read from.
func BenchmarkE16_FusedChainBatched(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("len-%d", k), func(b *testing.B) {
			fp, _ := e16Chain(b, k)
			const batch = 128
			pkts, raws, ttls := e11Packets(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				n := batch // one packet per op: ns/op comparable to E3/E16 per-packet
				if rem := b.N - i; rem < n {
					n = rem
				}
				for j := 0; j < n; j++ {
					raws[j][8] = ttls[j]
				}
				_ = fp.PushBatch(pkts[:n])
			}
			reportKpps(b)
		})
	}
}

// BenchmarkE16_UnfusedChainBatched is the batched hop-by-hop control: the
// same chain shape driven through ForwardBatch without a FastPath, so the
// fusion dividend can be separated from the batching dividend.
func BenchmarkE16_UnfusedChainBatched(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("len-%d", k), func(b *testing.B) {
			first, _ := e3Chain(b, k)
			const batch = 128
			pkts, raws, ttls := e11Packets(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				n := batch
				if rem := b.N - i; rem < n {
					n = rem
				}
				for j := 0; j < n; j++ {
					raws[j][8] = ttls[j]
				}
				_ = router.ForwardBatch(first, pkts[:n])
			}
			reportKpps(b)
		})
	}
}

// BenchmarkE16_DespecializeRefuse prices one full meta-level round trip on
// the fused path: install an interceptor (synchronous invalidation), cross
// the chain hop by hop, remove it, and re-fuse on the next crossing. This
// is the cost the adaptation engine pays to look inside a fused chain.
func BenchmarkE16_DespecializeRefuse(b *testing.B) {
	fp, capsule := e16Chain(b, 8)
	var mid *core.Binding
	for _, bd := range capsule.BindingsOf("c0") {
		mid = bd
	}
	if mid == nil {
		b.Fatal("mid-chain binding not found")
	}
	raw := benchPacketRaw(b)
	p := router.NewPacket(raw)
	ttl := raw[8]
	noop := core.PrePost(nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mid.AddInterceptor(core.Interceptor{Name: "probe", Wrap: noop}); err != nil {
			b.Fatal(err)
		}
		raw[8] = ttl
		_ = fp.Push(p) // hop-by-hop while intercepted
		if err := mid.RemoveInterceptor("probe"); err != nil {
			b.Fatal(err)
		}
		raw[8] = ttl
		_ = fp.Push(p) // re-fuses on this crossing
	}
	if got := fp.Fuser().FusedHops(); got != 10 {
		b.Fatalf("chain did not re-fuse: %d hops", got)
	}
}

// ---------------------------------------------------------------------------
// E17 — real-socket syscall amortisation (DESIGN.md §9): windowed
// send-then-drain rounds over loopback, the drain clock starting at the
// first productive poll, so the rx number is the per-frame cost of moving
// queued datagrams across the syscall boundary. Nothing the scheduler does
// may reach the reading: both bursts are timed on the driving thread's CPU
// clock (threadCPU), which waiting for a core does not advance, and the
// thread does not park between burst and drain — loopback delivers inside
// the send syscall, so the window is queued when SendBatch returns, and a
// settle sleep only hands the drain a halted core's cold caches (+130 ns
// per frame on both strategies, measured).

// e17Round drives rounds x window frames through a fresh loopback device
// pair and returns the per-frame receive-drain and transmit costs in
// nanoseconds and the receive frames per syscall. portable selects the
// per-datagram fallback strategy.
func e17Round(tb testing.TB, batch, window, rounds int, portable bool) (rxNs, txNs, fps float64) {
	tb.Helper()
	arena, err := osabs.NewFrameArena(osabs.DefaultUDPFrameSize, batch, 8)
	if err != nil {
		tb.Fatal(err)
	}
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Listen: "127.0.0.1:0", Batch: batch, Arena: arena, ForcePortable: portable,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer rx.Close()
	tx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: batch, ForcePortable: portable,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer tx.Close()
	payload := make([]byte, 64)
	out := make([][]byte, batch)
	for i := range out {
		out[i] = payload
	}
	scratch := make([][]byte, 0, batch)
	runtime.LockOSThread() // threadCPU reads this thread's clock
	defer runtime.UnlockOSThread()
	var rxTotal, txTotal time.Duration
	for r := 0; r < rounds; r++ {
		start := threadCPU()
		for sent := 0; sent < window; sent += batch {
			n, err := tx.SendBatch(out)
			if err != nil || n != batch {
				tb.Fatalf("tx %d/%d: %v", n, batch, err)
			}
		}
		txTotal += threadCPU() - start
		got, started := 0, false
		for got < window {
			if !started {
				start = threadCPU()
			}
			var slab *buffers.Buffer
			var err error
			scratch, slab, err = rx.RecvBatchInto(scratch[:0], batch)
			if err != nil {
				tb.Fatal(err)
			}
			if len(scratch) == 0 {
				runtime.Gosched()
				continue
			}
			started = true
			if slab != nil {
				for range scratch {
					_ = slab.Release()
				}
			}
			got += len(scratch)
		}
		rxTotal += threadCPU() - start
	}
	st := rx.Stats()
	if st.SockDrops > 0 {
		tb.Fatalf("lossy round: %d socket drops", st.SockDrops)
	}
	frames := float64(window * rounds)
	return float64(rxTotal) / frames, float64(txTotal) / frames, float64(st.RxFrames) / float64(st.RxSyscalls)
}

// TestE17SyscallAmortization is the acceptance gate for the batched UDP
// backend: draining queued datagrams 32 per recvmmsg must beat the
// per-datagram read path (the portable strategy, one syscall per frame —
// what batch-1 means everywhere the mmsg tables are absent) by >= 3x
// per frame. The comparison is repeated and the best attempt gated: the
// capability is what is asserted, and shared-runner noise only ever
// degrades a measurement, never flatters it.
func TestE17SyscallAmortization(t *testing.T) {
	if !osabs.MmsgSupported() {
		t.Skip("mmsg backend not compiled in; covered by backend-equivalence tests")
	}
	if testing.Short() {
		t.Skip("real-socket measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate meaningless under the race detector")
	}
	const want = 3.0
	best := 0.0
	for attempt := 0; attempt < 5; attempt++ {
		perDatagram, _, _ := e17Round(t, 1, 1024, 16, true)
		batched, _, _ := e17Round(t, 32, 1024, 16, false)
		if ratio := perDatagram / batched; ratio > best {
			best = ratio
		}
		if best >= want {
			break
		}
	}
	if best < want {
		t.Fatalf("batch-32 recvmmsg amortisation x%.2f, want >= x%.1f", best, want)
	}
}

// BenchmarkE17_RxDrain reports the per-frame receive-drain and transmit
// costs and the receive frames per syscall by batch size; one iteration
// is one 1024-frame send-then-drain round. The portable row is the
// per-datagram baseline the gate above divides by.
func BenchmarkE17_RxDrain(b *testing.B) {
	row := func(name string, batch int, portable bool) {
		b.Run(name, func(b *testing.B) {
			rxNs, txNs, fps := e17Round(b, batch, 1024, b.N, portable)
			b.ReportMetric(rxNs, "rx-ns/frame")
			b.ReportMetric(txNs, "tx-ns/frame")
			b.ReportMetric(fps, "rx-frames/syscall")
		})
	}
	row("portable", 1, true)
	for _, k := range []int{1, 8, 32, 128} {
		row(fmt.Sprintf("batch=%d", k), k, !osabs.MmsgSupported())
	}
}
