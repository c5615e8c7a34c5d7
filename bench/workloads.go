package main

import (
	"context"
	"fmt"

	"netkit"
	"netkit/cf"
	"netkit/internal/filter"
	"netkit/internal/ipc"
	"netkit/internal/osabs"
	"netkit/router"
)

const (
	numClasses = 8
	queueCap   = 2048
	// routerWindow is the frames the router workloads keep in flight. It
	// is below every queue's capacity, so a full queue is never the
	// workload's doing.
	routerWindow = 1024
	udpWindow    = 512
	// pacedInterval is one batch per 80 µs: 400 kpps.
	pacedIntervalNs = 80_000
)

// workload is one named set of inputs and the topology they run through.
type workload struct {
	name string
	topo string // which of the five topologies build makes
	why  string // one line, copied into BENCHMARK.json
	loop string // loop type and its rate or window, for the output documents
	traffic
	// window is the frames in flight the generator allows itself (closed
	// loop); 0 leaves back-pressure to the callee, bounded only by the
	// tape guard.
	window int
	// intervalNs > 0 makes the loop open: one batch every intervalNs, due
	// times fixed in advance.
	intervalNs int64
	churn      bool // meta-operations run beside the traffic
	build      func(w *workload) (*target, error)
	// tracks names the data-path goroutines for the traced pass.
	tracks []string
}

// target is a built, running topology plus the handles the harness and
// the per-layer probes need on it.
type target struct {
	sys     *netkit.System
	sink    *Sink
	entry   router.IPacketPushBatch // nil when frames enter through a socket
	tx      *osabs.UDPDevice
	closers []func()

	cls    *router.Classifier
	queues []string // instance name of the queue behind each classifier output
	plane  *router.ShardedCF
	remote *ipc.RemoteComponent
	arena  *osabs.FrameArena
}

// inject offers one generated batch and returns how many frames the
// program refused outright.
func (t *target) inject(tp *tape) int {
	if t.tx != nil {
		sent, _ := t.tx.SendBatch(tp.raws)
		return batchSize - sent
	}
	return router.FailedPackets(t.entry.PushBatch(tp.batch), batchSize)
}

func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func (t *target) closeSys() { _ = t.sys.Close(context.Background()) }

func entryOf(sys *netkit.System, name string) (router.IPacketPushBatch, error) {
	comp, ok := sys.Capsule().Component(name)
	if !ok {
		return nil, fmt.Errorf("no component %q", name)
	}
	e, ok := comp.(router.IPacketPushBatch)
	if !ok {
		return nil, fmt.Errorf("component %q has no batch push", name)
	}
	return e, nil
}

// workloads is the fixed list, in reporting order.
var workloads = []*workload{
	{
		name:    "fwd64_sat",
		topo:    "fwd",
		why:     "bare forwarding at the smallest size: the fused plan, the core hop and packet parsing do all the work",
		loop:    "closed, run-to-completion",
		traffic: traffic{flows: 64, tapeLen: 1024},
		build:   buildFwd,
		tracks:  []string{"gen"},
	},
	{
		name:    "router_imix_sat",
		topo:    "router",
		why:     "the whole Figure-3 router: flow working set above the verdict cache, so hit and miss paths both carry weight",
		loop:    "closed, window 1024 frames in flight",
		traffic: traffic{flows: 65536, tapeLen: 65536, imix: true, zipf: true, routed: true},
		window:  routerWindow,
		build:   buildRouter,
		tracks:  []string{"gen", "sched"},
	},
	{
		name:    "sharded_sat",
		topo:    "sharded",
		why:     "per-lane work equals fwd64_sat, so the difference is the dispatcher, the SPSC ring and the merge hand-off",
		loop:    "closed, ring back-pressure",
		traffic: traffic{flows: 4096, tapeLen: 32768},
		build:   buildSharded,
		tracks:  []string{"gen", "lane0", "lane1"},
	},
	{
		name:       "sharded_paced",
		topo:       "sharded",
		why:        "the same sharded plane below saturation: residence time from the due time instead of rate",
		loop:       "open, 400 kpps fixed schedule (one batch per 80 us), latency from the due time",
		traffic:    traffic{flows: 4096, tapeLen: 32768},
		intervalNs: pacedIntervalNs,
		build:      buildSharded,
		tracks:     []string{"gen", "lane0", "lane1"},
	},
	{
		name:    "udp_window",
		topo:    "udp",
		why:     "real sockets over the host loopback: syscalls, the frame arena and the busy-poll pump dominate",
		loop:    "closed, window 512 frames in flight",
		traffic: traffic{flows: 4096, tapeLen: 8192},
		window:  udpWindow,
		build:   buildUDP,
		tracks:  []string{"gen", "pump"},
	},
	{
		name:    "ipc_sat",
		topo:    "ipc",
		why:     "an isolated component behind the IPC boundary: encode, credit window, ack and emission path dominate",
		loop:    "closed, credit-window back-pressure (window 32 batches)",
		traffic: traffic{flows: 64, tapeLen: 8192},
		build:   buildIPC,
		tracks:  []string{"gen", "reader"},
	},
	{
		name:    "reconfig_churn",
		topo:    "router",
		why:     "router_imix_sat with 50 meta-operations a second beside it: a fast-path gain that slows or breaks reconfiguration pays here",
		loop:    "closed, window 1024 frames in flight, plus 50 meta-ops/s on a fixed schedule",
		traffic: traffic{flows: 65536, tapeLen: 65536, imix: true, zipf: true, routed: true},
		window:  routerWindow,
		churn:   true,
		build:   buildRouter,
		tracks:  []string{"gen", "sched"},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildFwd: FastPath -> Counter -> ChecksumValidator -> sink.
func buildFwd(w *workload) (*target, error) {
	sink := newSink(w.flows)
	sys, err := netkit.NewBlueprint(w.name).
		FastPath("fp").
		Insert("cnt", router.NewCounter()).
		Insert("val", router.NewChecksumValidator()).
		Insert("sink", sink).
		Pipe("fp", "cnt", "val", "sink").
		Build(context.Background())
	if err != nil {
		return nil, err
	}
	t := &target{sys: sys, sink: sink}
	t.closers = append(t.closers, t.closeSys)
	if t.entry, err = entryOf(sys, "fp"); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func queueName(k int) string { return fmt.Sprintf("q%d", k) }

// buildRouter: FastPath -> Classifier (1024 rules, 8 outputs) -> 8 FIFO
// queues -> DRR link scheduler -> Counter -> sink.
func buildRouter(w *workload) (*target, error) {
	outs := make([]string, numClasses)
	for k := range outs {
		outs[k] = fmt.Sprintf("out%d", k)
	}
	cls, err := router.NewClassifier(outs...)
	if err != nil {
		return nil, err
	}
	sched, err := router.NewLinkScheduler(router.PolicyDRR)
	if err != nil {
		return nil, err
	}
	sink := newSink(w.flows)
	bp := netkit.NewBlueprint(w.name).
		FastPath("fp").
		Insert("cls", cls).
		Insert("sched", sched).
		Insert("cnt", router.NewCounter()).
		Insert("sink", sink).
		Connect("fp", "out", "cls")
	t := &target{sink: sink, cls: cls}
	for k := 0; k < numClasses; k++ {
		q, err := router.NewFIFOQueue(queueCap)
		if err != nil {
			return nil, err
		}
		in := fmt.Sprintf("in%d", k)
		if err := sched.AddInput(in, 1500, 0); err != nil {
			return nil, err
		}
		bp.Insert(queueName(k), q).
			Connect("cls", outs[k], queueName(k)).
			Connect("sched", in, queueName(k))
		t.queues = append(t.queues, queueName(k))
	}
	t.sys, err = bp.Pipe("sched", "cnt", "sink").Build(context.Background())
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, t.closeSys)
	for r := 0; r < numRules; r++ {
		spec, out := ruleSpec(r)
		if _, err := cls.RegisterFilter(spec, 10, out); err != nil {
			t.close()
			return nil, err
		}
	}
	if t.entry, err = entryOf(t.sys, "fp"); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// ruleTable is the harness's own copy of the router workload's rules, for
// the VM oracle and the filter probes; the classifier keeps its table
// private.
func ruleTable() (*filter.Table, error) {
	tb := filter.NewTable()
	for r := 0; r < numRules; r++ {
		spec, out := ruleSpec(r)
		if _, err := tb.Add(spec, 10, out); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// fwdReplica is the per-lane pipeline of the sharded workloads: the same
// Counter -> ChecksumValidator as fwd64_sat.
func fwdReplica(shard int, fw *cf.Framework) (string, error) {
	cnt, val := router.ShardName(shard, "cnt"), router.ShardName(shard, "val")
	if err := fw.Admit(cnt, router.NewCounter()); err != nil {
		return "", err
	}
	if err := fw.Admit(val, router.NewChecksumValidator()); err != nil {
		return "", err
	}
	if _, err := fw.Capsule().Bind(cnt, "out", val, router.IPacketPushID); err != nil {
		return "", err
	}
	_, err := fw.Capsule().Bind(val, "out", router.ShardName(shard, "egress"), router.IPacketPushID)
	return cnt, err
}

const lanes = 2

// buildSharded: ShardedCF with 2 lanes of fwdReplica, merge egress -> sink.
// The paced workload turns the lane latency histograms on, as a deployment
// watching residence time would; the saturating one leaves them off so its
// per-lane work stays that of fwd64_sat.
func buildSharded(w *workload) (*target, error) {
	sink := newSink(w.flows)
	sys, err := netkit.NewBlueprint(w.name).
		ShardsCfg("plane", router.ShardConfig{Shards: lanes, LatencyHistogram: w.intervalNs > 0}, fwdReplica).
		Insert("sink", sink).
		Pipe("plane", "sink").
		Build(context.Background())
	if err != nil {
		return nil, err
	}
	t := &target{sys: sys, sink: sink}
	t.closers = append(t.closers, t.closeSys)
	if t.entry, err = entryOf(sys, "plane"); err != nil {
		t.close()
		return nil, err
	}
	comp, _ := sys.Capsule().Component("plane")
	t.plane = comp.(*router.ShardedCF)
	return t, nil
}

// buildUDP: tx UDPDevice -> loopback -> rx UDPDevice (arena, batch 32) ->
// busy-poll NICSource -> Counter -> ChecksumValidator -> sink.
func buildUDP(w *workload) (*target, error) {
	arena, err := osabs.NewFrameArena(osabs.DefaultUDPFrameSize, batchSize, 16)
	if err != nil {
		return nil, err
	}
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "udp-rx", Listen: "127.0.0.1:0", Batch: batchSize, Arena: arena,
	})
	if err != nil {
		return nil, err
	}
	tx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "udp-tx", Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: batchSize,
	})
	if err != nil {
		_ = rx.Close()
		return nil, err
	}
	sink := newSink(w.flows)
	t := &target{sink: sink, tx: tx, arena: arena}
	// Devices close first, so the pump sees ErrClosed and drains its tail
	// before the capsule joins it.
	t.closers = append(t.closers, func() { _ = tx.Close() }, func() { _ = rx.Close() })
	t.sys, err = netkit.NewBlueprint(w.name).
		DeviceSource("src", rx, nil, router.PumpConfig{Batch: batchSize, Spin: 256}).
		Insert("cnt", router.NewCounter()).
		Insert("val", router.NewChecksumValidator()).
		Insert("sink", sink).
		Pipe("src", "cnt", "val", "sink").
		Build(context.Background())
	if err != nil {
		t.close()
		return nil, err
	}
	t.closers = append([]func(){t.closeSys}, t.closers...)
	return t, nil
}

// buildIPC: FastPath -> Counter -> isolated Counter (in-process host
// pair) -> emissions return -> sink.
func buildIPC(w *workload) (*target, error) {
	sink := newSink(w.flows)
	sys, err := netkit.NewBlueprint(w.name).
		FastPath("fp").
		Insert("cnt", router.NewCounter()).
		Isolate("iso", router.TypeCounter, nil).
		Insert("sink", sink).
		Pipe("fp", "cnt", "iso", "sink").
		Build(context.Background())
	if err != nil {
		return nil, err
	}
	t := &target{sys: sys, sink: sink}
	t.closers = append(t.closers, t.closeSys)
	if t.entry, err = entryOf(sys, "fp"); err != nil {
		t.close()
		return nil, err
	}
	comp, _ := sys.Capsule().Component("iso")
	t.remote = comp.(*ipc.RemoteComponent)
	return t, nil
}
