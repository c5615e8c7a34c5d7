package netkit_test

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"netkit"
	"netkit/adapt"
	"netkit/cf"
	"netkit/core"
	"netkit/internal/ipc"
	"netkit/packet"
	"netkit/router"
)

// TestBlueprintBuildsAndStarts: Build instantiates, wires and starts the
// declared architecture; the result validates.
func TestBlueprintBuildsAndStarts(t *testing.T) {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("ok").
		Add("a", router.TypeCounter, nil).
		Add("b", router.TypeDropper, nil).
		Pipe("a", "b").
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close(ctx) }()
	capsule := sys.Capsule()
	for _, name := range []string{"a", "b"} {
		if !capsule.Started(name) {
			t.Fatalf("component %q not started by Build", name)
		}
	}
	if err := sys.Meta().Architecture().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pump(capsule, "a", 3); err != nil {
		t.Fatal(err)
	}
}

// TestBlueprintConnectInfersInterface: Connect binds through the client
// receptacle's declared interface without the caller naming it.
func TestBlueprintConnectInfersInterface(t *testing.T) {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("infer").
		Add("a", router.TypeCounter, nil).
		Add("b", router.TypeDropper, nil).
		Connect("a", "out", "b").
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close(ctx) }()
	edges := sys.Capsule().Snapshot().Edges
	if len(edges) != 1 || edges[0].Iface != router.IPacketPushID {
		t.Fatalf("edges = %+v, want one %q binding", edges, router.IPacketPushID)
	}
}

// TestBlueprintIsolate: Isolate hosts a component behind an ipc boundary;
// the stand-in binds and pushes batches like an in-proc component, its
// emissions flow back into the local pipeline, the IPC lane shows its
// transport counters in the stats tree, and closing the system tears the
// transport down with it.
func TestBlueprintIsolate(t *testing.T) {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("iso-bp").
		Isolate("iso", router.TypeCounter, nil).
		Add("sink", router.TypeCounter, nil).
		Connect("iso", "out", "sink").
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	capsule := sys.Capsule()
	comp, ok := capsule.Component("iso")
	if !ok {
		t.Fatal("isolated component missing")
	}
	rc, ok := comp.(*ipc.RemoteComponent)
	if !ok {
		t.Fatalf("component is %T, want *ipc.RemoteComponent", comp)
	}
	raw, err := packet.BuildUDP4(netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("192.168.1.1"), 1000, 53, 64, []byte("isolated"))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*router.Packet, 8)
	for i := range batch {
		batch[i] = router.NewPacket(raw)
	}
	if err := rc.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rc.Emitted(); got != 8 {
		t.Fatalf("emitted = %d, want 8", got)
	}
	tree := core.CapsuleStats(capsule)
	node, ok := tree.Find("iso")
	if !ok {
		t.Fatal("IPC lane missing from stats tree")
	}
	if s, _ := node.Stat("ipc_tx_frames"); s.Value != 8 {
		t.Fatalf("ipc_tx_frames = %v, want 8", s.Value)
	}
	if err := sys.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rc.PushBatch([]*router.Packet{router.NewPacket(raw)}); !errors.Is(err, ipc.ErrClosed) {
		t.Fatalf("transport survived Close: %v", err)
	}
}

// TestBlueprintErrorsNameFailingStep: a failing step aborts Build, names
// the step, and leaves no half-built running system behind.
func TestBlueprintErrorsNameFailingStep(t *testing.T) {
	ctx := context.Background()
	_, err := netkit.NewBlueprint("bad").
		Add("a", router.TypeCounter, nil).
		Pipe("a", "ghost").
		Build(ctx)
	if err == nil {
		t.Fatal("Build succeeded with a dangling pipe")
	}
	if !strings.Contains(err.Error(), "connect a.out -> ghost") {
		t.Fatalf("error does not name the failing step: %v", err)
	}
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("error lost its cause: %v", err)
	}

	if _, err := netkit.NewBlueprint("short").Pipe("only").Build(ctx); err == nil {
		t.Fatal("Pipe with one component must fail Build")
	}
	if _, err := netkit.NewBlueprint("unknown").
		Add("a", "no.such.type", nil).Build(ctx); err == nil {
		t.Fatal("Add of unknown type must fail Build")
	}
}

// TestBlueprintConstraintOrder: a constraint polices only the binds
// declared after it, matching declaration-order replay.
func TestBlueprintConstraintOrder(t *testing.T) {
	ctx := context.Background()
	deny := func(c *core.Capsule, req core.BindRequest) error {
		if req.To == "sink" {
			return fmt.Errorf("sink is off limits")
		}
		return nil
	}
	// Pipe before the constraint: allowed.
	sys, err := netkit.NewBlueprint("order").
		Add("a", router.TypeCounter, nil).
		Add("sink", router.TypeDropper, nil).
		Pipe("a", "sink").
		Constrain("no-sink", deny).
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_ = sys.Close(ctx)

	// Pipe after the constraint: vetoed.
	_, err = netkit.NewBlueprint("order2").
		Add("a", router.TypeCounter, nil).
		Add("sink", router.TypeDropper, nil).
		Constrain("no-sink", deny).
		Pipe("a", "sink").
		Build(ctx)
	if !errors.Is(err, core.ErrVetoed) {
		t.Fatalf("bind after constraint: err = %v, want ErrVetoed", err)
	}
}

// TestBlueprintIntercept: an interceptor declared in the blueprint is
// installed on the built system's binding.
func TestBlueprintIntercept(t *testing.T) {
	ctx := context.Background()
	var seen int
	sys, err := netkit.NewBlueprint("icept").
		Add("a", router.TypeCounter, nil).
		Add("b", router.TypeDropper, nil).
		Pipe("a", "b").
		Intercept("a", "out", "tap", netkit.PrePost(func(string, []any) { seen++ }, nil)).
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close(ctx) }()
	if err := pump(sys.Capsule(), "a", 4); err != nil {
		t.Fatal(err)
	}
	if seen != 4 {
		t.Fatalf("declared interceptor observed %d calls, want 4", seen)
	}
}

// TestBlueprintShards: the ShardsCfg verb declares a sharded data plane
// that composes with Pipe like any single-lane component — Build starts
// its workers, traffic flows through the replicas to the downstream sink,
// and the replicas are enumerable through the composite. LatencyHistogram
// adds per-lane and merged StatLatency histograms to the stats tree that
// nkctl stats renders.
func TestBlueprintShards(t *testing.T) {
	ctx := context.Background()
	replica := func(shard int, fw *cf.Framework) (string, error) {
		name := router.ShardName(shard, "cnt")
		if err := fw.Admit(name, router.NewCounter()); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(name, "out",
			router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
			return "", err
		}
		return name, nil
	}
	quiesce := func(t *testing.T, sys *netkit.System, name string) *router.ShardedCF {
		t.Helper()
		comp, ok := sys.Capsule().Component(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		sc := comp.(*router.ShardedCF)
		qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := sc.Quiesce(qctx); err != nil {
			t.Fatal(err)
		}
		return sc
	}

	t.Run("Shards", func(t *testing.T) {
		sys, err := netkit.NewBlueprint("sharded-bp").
			ShardsCfg("fwd", router.ShardConfig{Shards: 2}, replica).
			Add("sink", router.TypeCounter, nil).
			Pipe("fwd", "sink").
			Build(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sys.Close(ctx) }()
		if err := pump(sys.Capsule(), "fwd", 40); err != nil {
			t.Fatal(err)
		}
		sc := quiesce(t, sys, "fwd")
		if sc.Shards() != 2 || len(sc.Replicas()) != 2 {
			t.Fatalf("shards %d, replicas %v", sc.Shards(), sc.Replicas())
		}
		sink, err := netkit.Service[*router.Counter](sys.Capsule(), "sink", router.IPacketPushID)
		if err != nil {
			t.Fatal(err)
		}
		if got := sink.ElemStats().In; got != 40 {
			t.Fatalf("sink saw %d of 40", got)
		}
	})

	t.Run("ShardsCfg_latency", func(t *testing.T) {
		const lanes, total = 2, 96
		sys, err := netkit.NewBlueprint("sharded-latency").
			ShardsCfg("plane", router.ShardConfig{Shards: lanes, LatencyHistogram: true}, replica).
			Insert("sink", router.NewDropper()).
			Pipe("plane", "sink").
			Build(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sys.Close(ctx) }()
		push, err := netkit.Service[router.IPacketPush](sys.Capsule(), "plane", router.IPacketPushID)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < total; i++ {
			b, err := packet.BuildUDP4(netip.MustParseAddr("10.0.0.7"),
				netip.MustParseAddr("10.8.0.9"), uint16(1000+i%8), 99, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := push.Push(router.NewPacket(b)); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(t, sys, "plane")

		tree := netkit.Meta(sys.Capsule()).Stats().Tree()
		var laneSum uint64
		for i := 0; i < lanes; i++ {
			lane, ok := tree.Find(fmt.Sprintf("plane/shard%d", i))
			if !ok {
				t.Fatalf("lane %d missing", i)
			}
			st, ok := lane.Stat(router.StatLatency)
			if !ok || st.Kind != core.KindHistogram || st.Hist == nil {
				t.Fatalf("lane %d latency stat %+v, want a histogram", i, st)
			}
			laneSum += st.Hist.Count
		}
		if laneSum != total {
			t.Fatalf("lane histograms count %d, want %d", laneSum, total)
		}
		plane, ok := tree.Find("plane")
		if !ok {
			t.Fatal("plane missing from the stats tree")
		}
		if st, ok := plane.Stat(router.StatLatency); !ok || st.Hist == nil || st.Hist.Count != total {
			t.Fatalf("merged latency stat %+v, want a histogram of %d", st, total)
		}
	})
}

// TestBlueprintShardsFailureNamesStep: a failing replica factory surfaces
// through Build with the shards step named.
func TestBlueprintShardsFailureNamesStep(t *testing.T) {
	ctx := context.Background()
	bad := func(shard int, fw *cf.Framework) (string, error) {
		return "", errors.New("replica refused")
	}
	_, err := netkit.NewBlueprint("sharded-bad").ShardsCfg("fwd", router.ShardConfig{Shards: 2}, bad).Build(ctx)
	if err == nil {
		t.Fatal("build succeeded with failing replica factory")
	}
	if !strings.Contains(err.Error(), "shards fwd x2") {
		t.Fatalf("error does not name the shards step: %v", err)
	}
}

// TestBlueprintAdapt proves the declarative route into the reflective
// loop: a Blueprint declares a pipeline plus an adaptation rule, Build
// starts the engine with everything else, and the rule reconfigures the
// architecture with no manual meta-space call.
func TestBlueprintAdapt(t *testing.T) {
	fired := make(chan adapt.Firing, 4)
	sys, err := netkit.NewBlueprint("bp-adapt").
		Add("in", router.TypeCounter, nil).
		Add("q", router.TypeFIFOQueue, map[string]string{"capacity": "64"}).
		Pipe("in", "q").
		Adapt(adapt.Options{Interval: time.Millisecond, OnFire: func(f adapt.Firing) { fired <- f }},
			adapt.Rule{
				Name: "swap-on-pressure",
				When: adapt.GaugeAbove("q", "queue_occupancy", 0.5),
				Once: true,
				Then: adapt.Swap("q", "q2", func() (core.Component, error) {
					return router.NewFIFOQueue(256)
				}),
			}).
		Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close(context.Background()) }()

	// The engine is an ordinary, meta-space-visible component.
	if _, ok := sys.Capsule().Component(netkit.AdaptName); !ok {
		t.Fatal("engine not inserted")
	}
	if !sys.Capsule().Started(netkit.AdaptName) {
		t.Fatal("engine not started by Build")
	}

	in, err := netkit.Service[router.IPacketPush](sys.Capsule(), "in", router.IPacketPushID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := packet.BuildUDP4(netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"), 5, 6, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 48 // 75% of the small queue
	for i := 0; i < sent; i++ {
		if err := in.Push(router.NewPacket(raw)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case f := <-fired:
		if f.Err != "" {
			t.Fatalf("rule failed: %s", f.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blueprint-declared rule never fired")
	}
	comp, ok := sys.Capsule().Component("q2")
	if !ok {
		t.Fatal("swap did not run")
	}
	q2 := comp.(*router.FIFOQueue)
	if got := q2.Len(); got != sent {
		t.Fatalf("replacement holds %d packets, want %d", got, sent)
	}
}
