package netkit_test

// Round-trip tests for the unified meta-space: each meta-model reached
// through the netkit.Meta facade must observe and mutate the very same
// state as the underlying capsule — the causal connection the paper
// requires of a reflective runtime.

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"netkit"
	"netkit/cf"
	"netkit/core"
	"netkit/packet"
	"netkit/resources"
	"netkit/router"
)

// testPacket builds one minimal UDP/IPv4 packet.
func testPacket() *router.Packet {
	raw, err := packet.BuildUDP4(netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"), 4000, 53, 64, []byte("x"))
	if err != nil {
		panic(err)
	}
	return router.NewPacket(raw)
}

// buildPipeline returns a started a->b->sink system.
func buildPipeline(t *testing.T) *netkit.System {
	t.Helper()
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("rt").
		Add("a", router.TypeCounter, nil).
		Add("b", router.TypeCounter, nil).
		Add("sink", router.TypeDropper, nil).
		Pipe("a", "b", "sink").
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close(ctx) })
	return sys
}

// TestMetaArchitectureRoundTrip: a snapshot taken through the facade
// after Blueprint.Pipe reflects exactly the bindings the capsule holds,
// and a constraint installed through the facade vetoes a direct capsule
// bind (mutation flows facade -> capsule).
func TestMetaArchitectureRoundTrip(t *testing.T) {
	sys := buildPipeline(t)
	capsule := sys.Capsule()
	arch := netkit.Meta(capsule).Architecture()

	g := arch.Snapshot()
	if len(g.Nodes) != 3 || len(g.Edges) != 2 {
		t.Fatalf("facade snapshot: %d nodes %d edges, want 3/2", len(g.Nodes), len(g.Edges))
	}
	direct := capsule.Snapshot()
	if len(direct.Edges) != len(g.Edges) {
		t.Fatalf("facade sees %d edges, capsule %d", len(g.Edges), len(direct.Edges))
	}
	for i, e := range g.Edges {
		d := direct.Edges[i]
		if e.ID != d.ID || e.From != d.From || e.To != d.To || e.Iface != d.Iface {
			t.Fatalf("edge %d: facade %+v != capsule %+v", i, e, d)
		}
	}
	if err := arch.Validate(); err != nil {
		t.Fatalf("facade validate: %v", err)
	}

	// Facade-installed constraint must police capsule-level binds.
	veto := func(*core.Capsule, core.BindRequest) error { return core.ErrVetoed }
	if err := arch.Constrain("no-more", veto); err != nil {
		t.Fatal(err)
	}
	if got := capsule.Constraints(); len(got) != 1 || got[0] != "no-more" {
		t.Fatalf("capsule constraints = %v, want [no-more]", got)
	}
	if _, err := capsule.Instantiate("c", router.TypeDropper, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("b", "out", "c", router.IPacketPushID); err == nil {
		t.Fatal("bind succeeded despite facade-installed constraint")
	}
	if err := arch.Unconstrain("no-more"); err != nil {
		t.Fatal(err)
	}
	if got := capsule.Constraints(); len(got) != 0 {
		t.Fatalf("capsule constraints after Unconstrain = %v", got)
	}
}

// TestMetaArchitectureEvents: mutations performed on the capsule surface
// as events on a facade subscription, and event loss is visible through
// both the Subscription and Capsule.DroppedEvents.
func TestMetaArchitectureEvents(t *testing.T) {
	sys := buildPipeline(t)
	capsule := sys.Capsule()
	arch := netkit.Meta(capsule).Architecture()

	sub := arch.Subscribe(4)
	defer sub.Cancel()
	if _, err := capsule.Instantiate("x", router.TypeDropper, nil); err != nil {
		t.Fatal(err)
	}
	ev := <-sub.Events()
	if ev.Kind != core.EventInsert || ev.Component != "x" {
		t.Fatalf("facade subscription got %+v, want insert of x", ev)
	}

	// Overflow the buffer without draining: loss must be counted.
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("p%d", i)
		if _, err := capsule.Instantiate(name, router.TypeDropper, nil); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Dropped() == 0 {
		t.Fatal("subscription overflowed but Dropped() == 0")
	}
	if capsule.DroppedEvents() == 0 {
		t.Fatal("capsule overflowed but DroppedEvents() == 0")
	}
	if arch.DroppedEvents() != capsule.DroppedEvents() {
		t.Fatalf("facade dropped %d != capsule dropped %d",
			arch.DroppedEvents(), capsule.DroppedEvents())
	}
}

// TestMetaInterfaceRoundTrip: the facade's interface meta-model is the
// registry in force for the capsule, not a copy.
func TestMetaInterfaceRoundTrip(t *testing.T) {
	sys := buildPipeline(t)
	capsule := sys.Capsule()
	im := netkit.Meta(capsule).Interface()

	if im.Registry() != capsule.InterfaceRegistry() {
		t.Fatal("facade registry is not the capsule's registry")
	}
	d, ok := im.Lookup(router.IPacketPushID)
	if !ok {
		t.Fatalf("facade cannot find %q", router.IPacketPushID)
	}
	if !im.Conforms(router.IPacketPushID, router.NewCounter()) {
		t.Fatal("facade conformance check rejects a Counter")
	}
	if _, ok := d.Op("PushBatch"); !ok || len(d.Ops) != 1 {
		t.Fatalf("descriptor ops %v through the facade, want PushBatch alone", d.Ops)
	}
	ids, err := im.ProvidedBy("a")
	if err != nil || len(ids) == 0 {
		t.Fatalf("ProvidedBy(a) = %v, %v", ids, err)
	}
}

// TestMetaInterceptionUnderTraffic: an interceptor installed through the
// facade observes live traffic, shows up on the underlying binding's
// chain, and removal re-fuses the path — all while packets keep flowing
// from a concurrent pusher and none are lost.
func TestMetaInterceptionUnderTraffic(t *testing.T) {
	sys := buildPipeline(t)
	capsule := sys.Capsule()
	ic := netkit.Meta(capsule).Interception()

	push, err := netkit.Service[router.IPacketPush](capsule, "a", router.IPacketPushID)
	if err != nil {
		t.Fatal(err)
	}
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := push.PushBatch([]*router.Packet{testPacket()}); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
	}()

	// Repeatedly install/remove a counting interceptor mid-traffic. The
	// main goroutine pushes one packet of its own per cycle while the
	// interceptor is installed, so observation is guaranteed even when
	// the concurrent pusher is starved.
	const cycles = 50
	var seen int
	var mu sync.Mutex
	wrap := netkit.PrePost(func(string, []any) { mu.Lock(); seen++; mu.Unlock() }, nil)
	for i := 0; i < cycles; i++ {
		if err := ic.Install("a", "out", "audit", wrap); err != nil {
			t.Fatal(err)
		}
		// The capsule's own binding must show the facade-installed chain.
		b, err := ic.Binding("a", "out")
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Interceptors(); len(got) != 1 || got[0] != "audit" {
			t.Fatalf("binding chain = %v, want [audit]", got)
		}
		if err := push.PushBatch([]*router.Packet{testPacket()}); err != nil {
			t.Fatal(err)
		}
		if err := ic.Remove("a", "out", "audit"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	chain, err := ic.Chain("a", "out")
	if err != nil || len(chain) != 0 {
		t.Fatalf("chain after removal = %v, %v", chain, err)
	}
	mu.Lock()
	observed := seen
	mu.Unlock()
	if observed < cycles {
		t.Fatalf("interceptor observed %d calls, want at least %d", observed, cycles)
	}
	// Atomic reroute: every packet pushed was delivered downstream.
	bStats, _ := netkit.Service[*router.Counter](capsule, "b", router.IPacketPushID)
	if got := bStats.ElemStats().In; got != total+cycles {
		t.Fatalf("downstream saw %d packets, want %d (lost during reroute)", got, total+cycles)
	}
}

// TestMetaResourcesRoundTrip: every Meta handle onto the same capsule
// shares one resources meta-model; distinct capsules get distinct ones.
func TestMetaResourcesRoundTrip(t *testing.T) {
	sys := buildPipeline(t)
	capsule := sys.Capsule()

	m1 := netkit.Meta(capsule).Resources()
	if _, err := m1.CreateTask(resources.TaskSpec{Name: "t1"}); err != nil {
		t.Fatal(err)
	}
	m2 := netkit.Meta(capsule).Resources()
	if m1 != m2 {
		t.Fatal("two Meta handles returned distinct resource managers")
	}
	if tasks := m2.Tasks(); len(tasks) != 1 || tasks[0] != "t1" {
		t.Fatalf("second handle sees tasks %v, want [t1]", tasks)
	}

	other := core.NewCapsule("other")
	if got := netkit.Meta(other).Resources().Tasks(); len(got) != 0 {
		t.Fatalf("fresh capsule's resource manager already has tasks %v", got)
	}

	// Closing a capsule drops the facade's association (no leak): a
	// later Meta call yields a fresh manager without the old tasks.
	tmp := core.NewCapsule("tmp")
	mgrA := netkit.Meta(tmp).Resources()
	if _, err := mgrA.CreateTask(resources.TaskSpec{Name: "gone"}); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	mgrB := netkit.Meta(tmp).Resources()
	if mgrA == mgrB {
		t.Fatal("closed capsule still pinned its resource manager")
	}
	if got := mgrB.Tasks(); len(got) != 0 {
		t.Fatalf("manager for closed capsule carries tasks %v", got)
	}
}

// shardedPipeline builds a started 3-shard system "fwd" -> "sink" via
// Blueprint.ShardsCfg and returns the system plus the ShardedCF.
func shardedPipeline(t *testing.T) (*netkit.System, *router.ShardedCF) {
	t.Helper()
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
	sys, err := netkit.NewBlueprint("sharded").
		ShardsCfg("fwd", router.ShardConfig{Shards: 3}, replica).
		Add("sink", router.TypeDropper, nil).
		Pipe("fwd", "sink").
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close(ctx) })
	comp, ok := sys.Capsule().Component("fwd")
	if !ok {
		t.Fatal("fwd missing")
	}
	sharded, ok := comp.(*router.ShardedCF)
	if !ok {
		t.Fatalf("fwd has type %T", comp)
	}
	return sys, sharded
}

// shardedFlowPacket builds a packet in one of several distinct flows so
// the dispatcher exercises every shard.
func shardedFlowPacket(flow uint32) *router.Packet {
	raw, err := packet.BuildUDP4(
		netip.AddrFrom4([4]byte{10, 0, byte(flow >> 8), byte(flow)}),
		netip.MustParseAddr("10.9.9.9"), 4000, 53, 64, []byte("x"))
	if err != nil {
		panic(err)
	}
	return router.NewPacket(raw)
}

// TestMetaShardedInterceptionAggregates is the meta-space consistency
// check for the sharded data plane: per-shard audits installed through
// netkit.Meta on each replica's ingress binding, plus ONE aggregate audit
// installed on all replicas with InstallAll, must satisfy
// aggregate == sum(per-shard) == packets pushed — the round-trip proof
// that the meta-space observes a sharded CF as one causally connected
// component.
func TestMetaShardedInterceptionAggregates(t *testing.T) {
	sys, sharded := shardedPipeline(t)
	inner := sharded.Inner()
	im := netkit.Meta(inner).Interception()

	const shards = 3
	endpoints := make([]netkit.Endpoint, shards)
	perShard := make([]uint64, shards)
	var perMu sync.Mutex
	for i := 0; i < shards; i++ {
		endpoints[i] = netkit.Endpoint{
			Component: router.ShardName(i, "ingress"), Receptacle: "out",
		}
		i := i
		wrap := netkit.PrePost(func(op string, args []any) {
			perMu.Lock()
			perShard[i] += uint64(router.PacketCount(op, args))
			perMu.Unlock()
		}, nil)
		if err := im.Install(endpoints[i].Component, "out", "per-shard", wrap); err != nil {
			t.Fatal(err)
		}
	}
	var agg uint64
	var aggMu sync.Mutex
	if err := im.InstallAll(endpoints, "aggregate", netkit.PrePost(func(op string, args []any) {
		aggMu.Lock()
		agg += uint64(router.PacketCount(op, args))
		aggMu.Unlock()
	}, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		chain, err := im.Chain(endpoints[i].Component, "out")
		if err != nil || len(chain) != 2 || chain[0] != "per-shard" || chain[1] != "aggregate" {
			t.Fatalf("shard %d chain %v, %v", i, chain, err)
		}
	}

	push, err := netkit.Service[router.IPacketPush](sys.Capsule(), "fwd", router.IPacketPushID)
	if err != nil {
		t.Fatal(err)
	}
	const total = 900
	for i := 0; i < total; i++ {
		if err := push.PushBatch([]*router.Packet{shardedFlowPacket(uint32(i % 64))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sharded.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	perMu.Lock()
	var sum uint64
	busy := 0
	for _, c := range perShard {
		sum += c
		if c > 0 {
			busy++
		}
	}
	perMu.Unlock()
	aggMu.Lock()
	aggTotal := agg
	aggMu.Unlock()
	if aggTotal != total || sum != total {
		t.Fatalf("aggregate %d, per-shard sum %d, want both %d", aggTotal, sum, total)
	}
	if busy < 2 {
		t.Fatalf("only %d shards saw traffic across 64 flows", busy)
	}
	// The CF's own shard stats agree with the meta-level audits.
	var statSum uint64
	for i := 0; i < shards; i++ {
		statSum += sharded.ShardStats(i).In
	}
	if statSum != total {
		t.Fatalf("ShardStats sum %d != %d", statSum, total)
	}

	// Round-trip removal: RemoveAll + per-shard Remove empty every chain.
	if err := im.RemoveAll(endpoints, "aggregate"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		if err := im.Remove(endpoints[i].Component, "out", "per-shard"); err != nil {
			t.Fatal(err)
		}
		chain, err := im.Chain(endpoints[i].Component, "out")
		if err != nil || len(chain) != 0 {
			t.Fatalf("shard %d chain %v after removal, %v", i, chain, err)
		}
	}
}

// TestMetaShardedInstallAllAtomic: InstallAll against endpoints where one
// chain already holds the name must fail and leave every chain unchanged
// (the all-or-nothing contract, observed through the facade).
func TestMetaShardedInstallAllAtomic(t *testing.T) {
	_, sharded := shardedPipeline(t)
	im := netkit.Meta(sharded.Inner()).Interception()
	endpoints := []netkit.Endpoint{
		{Component: router.ShardName(0, "ingress"), Receptacle: "out"},
		{Component: router.ShardName(1, "ingress"), Receptacle: "out"},
		{Component: router.ShardName(2, "ingress"), Receptacle: "out"},
	}
	noop := netkit.PrePost(nil, nil)
	if err := im.Install(endpoints[1].Component, "out", "clash", noop); err != nil {
		t.Fatal(err)
	}
	if err := im.InstallAll(endpoints, "clash", noop); !errors.Is(err, core.ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	for i, ep := range endpoints {
		chain, err := im.Chain(ep.Component, "out")
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if i == 1 {
			want = 1
		}
		if len(chain) != want {
			t.Fatalf("endpoint %d chain %v after failed InstallAll", i, chain)
		}
	}
	bad := append(endpoints, netkit.Endpoint{Component: "nosuch", Receptacle: "out"})
	if err := im.InstallAll(bad, "x", noop); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unknown endpoint: %v", err)
	}
}

// TestStatsMetaTree exercises the stats meta-view over a sharded capsule:
// the full tree resolves per-replica lanes, component addressing works,
// and Watch delivers successive snapshots.
func TestStatsMetaTree(t *testing.T) {
	capsule := core.NewCapsule("statsmeta")
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
	sharded, err := router.NewShardedCF(capsule, router.ShardConfig{Shards: 2}, replica)
	if err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("fwd", sharded); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("sink", router.NewDropper()); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("fwd", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.Close(ctx) }()

	const total = 96
	for i := 0; i < total; i++ {
		b, err := packet.BuildUDP4(netip.MustParseAddr("10.0.0.7"),
			netip.MustParseAddr("10.8.0.9"), uint16(1000+i%8), 99, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sharded.PushBatch([]*router.Packet{router.NewPacket(b)}); err != nil {
			t.Fatal(err)
		}
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := sharded.Quiesce(qctx); err != nil {
		t.Fatal(err)
	}

	sm := netkit.Meta(capsule).Stats()
	tree := sm.Tree()
	fwd, ok := tree.Find("fwd")
	if !ok {
		t.Fatalf("no fwd in tree: %+v", tree)
	}
	if in, ok := fwd.Stat("packets_in"); !ok || in.Value != total {
		t.Fatalf("fwd packets_in = %+v", fwd.Stats)
	}
	// Per-replica lanes are addressable, and their arrivals sum to the
	// dispatcher's count.
	var laneSum float64
	for i := 0; i < 2; i++ {
		lane, ok := tree.Find(fmt.Sprintf("fwd/shard%d", i))
		if !ok {
			t.Fatalf("lane %d missing", i)
		}
		in, ok := lane.Stat("packets_in")
		if !ok {
			t.Fatalf("lane %d has no packets_in", i)
		}
		laneSum += in.Value
		// The replica's inner constituents hang off the lane.
		if _, ok := tree.Find(fmt.Sprintf("fwd/shard%d/s%d/cnt", i, i)); !ok {
			t.Fatalf("lane %d constituents missing", i)
		}
	}
	if laneSum != total {
		t.Fatalf("lane sum %v != %d", laneSum, total)
	}
	// Component addressing matches the tree's subtree.
	node, err := sm.Component("fwd")
	if err != nil {
		t.Fatal(err)
	}
	if len(node.Children) != 2 {
		t.Fatalf("fwd subtree has %d lanes", len(node.Children))
	}
	if _, err := sm.Component("ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("ghost lookup: %v", err)
	}
	// Merged aggregation follows the composite rule.
	merged := sm.Merged()
	found := false
	for _, s := range merged {
		if s.Name == "packets_in" {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged stats lack packets_in: %+v", merged)
	}
	// Watch streams snapshots until cancelled.
	wctx, wcancel := context.WithCancel(ctx)
	ch := sm.Watch(wctx, time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, ok := <-ch; !ok {
			t.Fatal("watch closed early")
		}
	}
	wcancel()
	for range ch {
	}
}
