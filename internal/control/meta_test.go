package control

// Tests for the control verbs that dispatch onto the unified meta-space.

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"netkit/cf"
	"netkit/core"
	"netkit/packet"
	"netkit/router"
)

func pushInto(t *testing.T, capsule *core.Capsule, component string, n int) {
	t.Helper()
	comp, ok := capsule.Component(component)
	if !ok {
		t.Fatalf("component %q missing", component)
	}
	impl, _ := comp.Provided(router.IPacketPushID)
	push := impl.(router.IPacketPush)
	raw, err := packet.BuildUDP4(netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"), 9000, 53, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := push.PushBatch([]*router.Packet{router.NewPacket(raw)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMetaArchitectureVerbs(t *testing.T) {
	client, _ := fixture(t)
	var verdict string
	if err := client.Do(&Request{Op: "validate"}, &verdict); err != nil {
		t.Fatal(err)
	}
	if verdict != "valid" {
		t.Fatalf("validate = %q", verdict)
	}
	var constraints []string
	if err := client.Do(&Request{Op: "constraints"}, &constraints); err != nil {
		t.Fatal(err)
	}
	var dropped uint64
	if err := client.Do(&Request{Op: "dropped"}, &dropped); err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d on an unsubscribed capsule", dropped)
	}
}

func TestMetaInterfaceVerbs(t *testing.T) {
	client, _ := fixture(t)
	var ids []string
	if err := client.Do(&Request{Op: "ifaces"}, &ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no interfaces registered")
	}
	var d IfaceData
	if err := client.Do(&Request{Op: "iface", Iface: string(router.IPacketPushID)}, &d); err != nil {
		t.Fatal(err)
	}
	if d.ID != router.IPacketPushID || len(d.Ops) == 0 {
		t.Fatalf("iface data = %+v", d)
	}
	if err := client.Do(&Request{Op: "iface", Iface: "no.such/1"}, nil); err == nil {
		t.Fatal("lookup of unknown interface succeeded")
	}
	var provided []string
	if err := client.Do(&Request{Op: "provided", Component: "cnt"}, &provided); err != nil {
		t.Fatal(err)
	}
	if len(provided) == 0 {
		t.Fatal("cnt provides nothing")
	}
}

func TestMetaInterceptionVerbs(t *testing.T) {
	client, capsule := fixture(t)
	if err := client.Do(&Request{
		Op: "intercept", Component: "cnt", Receptacle: "out",
	}, nil); err != nil {
		t.Fatal(err)
	}
	var chain []string
	if err := client.Do(&Request{
		Op: "chain", Component: "cnt", Receptacle: "out",
	}, &chain); err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0] != auditName {
		t.Fatalf("chain = %v", chain)
	}

	pushInto(t, capsule, "cnt", 7)
	var ad AuditData
	if err := client.Do(&Request{
		Op: "audit", Component: "cnt", Receptacle: "out",
	}, &ad); err != nil {
		t.Fatal(err)
	}
	if ad.Calls != 7 {
		t.Fatalf("audit counted %d calls, want 7", ad.Calls)
	}

	if err := client.Do(&Request{
		Op: "unintercept", Component: "cnt", Receptacle: "out",
	}, &ad); err != nil {
		t.Fatal(err)
	}
	if ad.Calls != 7 {
		t.Fatalf("unintercept reported %d calls, want 7", ad.Calls)
	}
	if err := client.Do(&Request{
		Op: "chain", Component: "cnt", Receptacle: "out",
	}, &chain); err != nil {
		t.Fatal(err)
	}
	if len(chain) != 0 {
		t.Fatalf("chain after unintercept = %v", chain)
	}
	// The audit is gone: a further audit query must fail.
	if err := client.Do(&Request{
		Op: "audit", Component: "cnt", Receptacle: "out",
	}, nil); err == nil {
		t.Fatal("audit of removed interceptor succeeded")
	}
}

// TestMetaAuditCountsPulledPackets: an audit on a queue→scheduler pull
// binding counts the packets the scheduler took, not its pulls: 64 packets
// drained and then ten idle rounds audit exactly 64.
func TestMetaAuditCountsPulledPackets(t *testing.T) {
	client, capsule := fixture(t)
	q, err := router.NewFIFOQueue(128)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := router.NewLinkScheduler(router.PolicyDRR)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.AddInput("in", 1500, 0); err != nil {
		t.Fatal(err)
	}
	for name, comp := range map[string]core.Component{"q": q, "sched": sched, "sink": router.NewDropper()} {
		if err := capsule.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := router.ConnectPull(capsule, "sched", "in", "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "sched", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	if err := client.Do(&Request{Op: "intercept", Component: "sched", Receptacle: "in"}, nil); err != nil {
		t.Fatal(err)
	}
	pushInto(t, capsule, "q", 64)
	served := 0
	for i := 0; i < 11; i++ { // the draining round, then ten idle ones
		served += sched.RunOnce(64)
	}
	if served != 64 {
		t.Fatalf("scheduler served %d of 64", served)
	}
	var ad AuditData
	if err := client.Do(&Request{Op: "audit", Component: "sched", Receptacle: "in"}, &ad); err != nil {
		t.Fatal(err)
	}
	if ad.Calls != 64 {
		t.Fatalf("audit counted %d, want the 64 packets pulled", ad.Calls)
	}
}

func TestMetaTasksVerb(t *testing.T) {
	client, _ := fixture(t)
	var tasks []any
	if err := client.Do(&Request{Op: "tasks"}, &tasks); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Fatalf("tasks = %v on a fresh capsule", tasks)
	}
}

// TestMetaShardedAuditVerbs runs the control protocol against a sharded
// data plane: the server wraps the ShardedCF's inner framework, the
// intercept/audit/unintercept verbs address each replica's ingress
// binding, and the per-shard audit counts must sum to exactly the packets
// pushed through the sharded dispatcher (batched or not, via PacketCount).
func TestMetaShardedAuditVerbs(t *testing.T) {
	outer := core.NewCapsule("sharded-ctl")
	const shards = 3
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
	sharded, err := router.NewShardedCF(outer, router.ShardConfig{Shards: shards}, replica)
	if err != nil {
		t.Fatal(err)
	}
	sink := router.NewDropper()
	if err := outer.Insert("fwd", sharded); err != nil {
		t.Fatal(err)
	}
	if err := outer.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(outer, "fwd", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := outer.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = outer.StopAll(ctx) })

	srv := NewServer(sharded.Framework())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
	})

	// intercept every replica's ingress binding.
	for i := 0; i < shards; i++ {
		if err := client.Do(&Request{Op: "intercept",
			Component: router.ShardName(i, "ingress"), Receptacle: "out"}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Drive traffic across many flows through the sharded dispatcher, in
	// batches so the audits count through PushBatch crossings.
	const total = 640
	batch := make([]*router.Packet, 0, 16)
	for i := 0; i < total; i++ {
		raw, err := packet.BuildUDP4(
			netip.AddrFrom4([4]byte{10, 1, 0, byte(i % 32)}),
			netip.MustParseAddr("10.0.0.2"), 9000, 53, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, router.NewPacket(raw))
		if len(batch) == 16 {
			if err := sharded.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := sharded.Quiesce(qctx); err != nil {
		t.Fatal(err)
	}

	// audit: the per-shard counts must sum to the dispatched total.
	var sum, busy uint64
	for i := 0; i < shards; i++ {
		var data AuditData
		if err := client.Do(&Request{Op: "audit",
			Component: router.ShardName(i, "ingress"), Receptacle: "out"}, &data); err != nil {
			t.Fatal(err)
		}
		if data.Calls != sharded.ShardStats(i).In {
			t.Fatalf("shard %d: audit %d != ShardStats.In %d",
				i, data.Calls, sharded.ShardStats(i).In)
		}
		sum += data.Calls
		if data.Calls > 0 {
			busy++
		}
	}
	if sum != total {
		t.Fatalf("per-shard audit sum %d, want %d", sum, total)
	}
	if busy < 2 {
		t.Fatalf("only %d shards audited traffic across 32 flows", busy)
	}

	// unintercept returns each final count; the sum must still conserve.
	var final uint64
	for i := 0; i < shards; i++ {
		var data AuditData
		if err := client.Do(&Request{Op: "unintercept",
			Component: router.ShardName(i, "ingress"), Receptacle: "out"}, &data); err != nil {
			t.Fatal(err)
		}
		final += data.Calls
	}
	if final != total {
		t.Fatalf("unintercept counts sum %d, want %d", final, total)
	}
	// Chains are re-fused: the chain verb reports empty on every replica.
	for i := 0; i < shards; i++ {
		var chain []string
		if err := client.Do(&Request{Op: "chain",
			Component: router.ShardName(i, "ingress"), Receptacle: "out"}, &chain); err != nil {
			t.Fatal(err)
		}
		if len(chain) != 0 {
			t.Fatalf("shard %d chain %v after unintercept", i, chain)
		}
	}
}

// TestStatsTreeShardedCapsule is the control-protocol half of the
// reflective loop's observation surface: for a capsule containing a
// sharded CF, the parameterless "stats" verb (what `nkctl stats` sends)
// returns the full aggregated tree — the CF's merged element stats at
// its node, one lane child per replica whose arrival counters sum to
// the dispatched total, and the replicas' inner constituents under the
// lanes.
func TestStatsTreeShardedCapsule(t *testing.T) {
	outer := core.NewCapsule("sharded-stats")
	fw, err := router.NewFramework(outer, false)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	replica := func(shard int, rfw *cf.Framework) (string, error) {
		name := router.ShardName(shard, "cnt")
		if err := rfw.Admit(name, router.NewCounter()); err != nil {
			return "", err
		}
		if _, err := rfw.Capsule().Bind(name, "out",
			router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
			return "", err
		}
		return name, nil
	}
	sharded, err := router.NewShardedCF(outer, router.ShardConfig{Shards: shards}, replica)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("fwd", sharded); err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("sink", router.NewDropper()); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(outer, "fwd", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := outer.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = outer.StopAll(ctx) })

	const total = 480
	batch := make([]*router.Packet, 0, 16)
	for i := 0; i < total; i++ {
		raw, err := packet.BuildUDP4(
			netip.AddrFrom4([4]byte{10, 2, 0, byte(i % 24)}),
			netip.MustParseAddr("10.0.0.9"), 7000, 53, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, router.NewPacket(raw))
		if len(batch) == 16 {
			if err := sharded.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := sharded.Quiesce(qctx); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(fw)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
	})

	var sd StatsData
	if err := client.Do(&Request{Op: "stats"}, &sd); err != nil {
		t.Fatal(err)
	}
	fwd, ok := sd.Tree.Find("fwd")
	if !ok {
		t.Fatalf("no fwd node in tree: %+v", sd.Tree)
	}
	if in, ok := fwd.Stat("packets_in"); !ok || in.Value != total {
		t.Fatalf("fwd packets_in = %+v", fwd.Stats)
	}
	if out, ok := fwd.Stat("packets_out"); !ok || out.Value != total {
		t.Fatalf("fwd packets_out = %+v", fwd.Stats)
	}
	if len(fwd.Children) != shards {
		t.Fatalf("fwd has %d lanes, want %d", len(fwd.Children), shards)
	}
	var laneSum float64
	for _, lane := range fwd.Children {
		in, ok := lane.Stat("packets_in")
		if !ok {
			t.Fatalf("lane %s lacks packets_in", lane.Name)
		}
		laneSum += in.Value
		if len(lane.Children) == 0 {
			t.Fatalf("lane %s has no inner constituents", lane.Name)
		}
	}
	if laneSum != total {
		t.Fatalf("lane sum %v != dispatched %d", laneSum, total)
	}
	// The sink's uniform stats ride the same tree.
	if sink, ok := sd.Tree.Find("sink"); !ok {
		t.Fatal("no sink node")
	} else if in, ok := sink.Stat("packets_in"); !ok || in.Value != total {
		t.Fatalf("sink packets_in = %+v", sink.Stats)
	}
}
