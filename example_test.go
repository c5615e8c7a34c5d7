package netkit_test

// Example-based documentation for the public SDK surface: the Blueprint
// builder and each of the four meta-models reached through netkit.Meta.

import (
	"context"
	"fmt"

	"netkit"
	"netkit/core"
	"netkit/resources"
	"netkit/router"
)

// pump pushes n minimal UDP packets into the named component.
func pump(c *core.Capsule, component string, n int) error {
	push, err := netkit.Service[router.IPacketPush](c, component, router.IPacketPushID)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := push.PushBatch([]*router.Packet{testPacket()}); err != nil {
			return err
		}
	}
	return nil
}

// ExampleBlueprint declares, builds and runs a three-stage packet
// pipeline in a handful of lines — the boilerplate-free path to a
// running capsule.
func ExampleBlueprint() {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("pipeline").
		Add("in", router.TypeCounter, nil).
		Add("ttl", router.TypeIPv4Proc, nil).
		Add("sink", router.TypeDropper, nil).
		Pipe("in", "ttl", "sink").
		Build(ctx)
	if err != nil {
		panic(err)
	}
	defer func() { _ = sys.Close(ctx) }()

	if err := pump(sys.Capsule(), "in", 3); err != nil {
		panic(err)
	}
	in, _ := netkit.Service[*router.Counter](sys.Capsule(), "in", router.IPacketPushID)
	fmt.Println("forwarded:", in.ElemStats().Out)
	// Output: forwarded: 3
}

// ExampleMeta shows the unified meta-space entry point: one call yields
// handles onto all four meta-models of a capsule.
func ExampleMeta() {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("node").
		Add("a", router.TypeCounter, nil).
		Add("b", router.TypeDropper, nil).
		Pipe("a", "b").
		Build(ctx)
	if err != nil {
		panic(err)
	}
	defer func() { _ = sys.Close(ctx) }()

	meta := netkit.Meta(sys.Capsule())
	fmt.Println("components:", len(meta.Architecture().Snapshot().Nodes))
	fmt.Println("push registered:", meta.Interface().Registry() != nil)
	chain, _ := meta.Interception().Chain("a", "out")
	fmt.Println("interceptors:", len(chain))
	fmt.Println("tasks:", len(meta.Resources().Tasks()))
	// Output:
	// components: 2
	// push registered: true
	// interceptors: 0
	// tasks: 0
}

// ExampleMetaSpace_Architecture introspects and constrains the component
// graph through the architecture meta-model.
func ExampleMetaSpace_Architecture() {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("arch").
		Add("a", router.TypeCounter, nil).
		Add("b", router.TypeDropper, nil).
		Pipe("a", "b").
		Build(ctx)
	if err != nil {
		panic(err)
	}
	defer func() { _ = sys.Close(ctx) }()
	arch := sys.Meta().Architecture()

	g := arch.Snapshot()
	fmt.Printf("%d nodes, %d edges, valid=%v\n", len(g.Nodes), len(g.Edges), arch.Validate() == nil)

	// A named constraint vetoes future binds; the existing graph stands.
	_ = arch.Constrain("freeze", func(*core.Capsule, core.BindRequest) error {
		return fmt.Errorf("topology frozen")
	})
	_, err = sys.Capsule().Bind("a", "out", "a", router.IPacketPushID)
	fmt.Println("bind vetoed:", err != nil)
	fmt.Println("constraints:", arch.Constraints())
	// Output:
	// 2 nodes, 1 edges, valid=true
	// bind vetoed: true
	// constraints: [freeze]
}

// ExampleMetaSpace_Interface looks up interface descriptors and checks
// conformance through the interface meta-model.
func ExampleMetaSpace_Interface() {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("iface").
		Add("cnt", router.TypeCounter, nil).
		Build(ctx)
	if err != nil {
		panic(err)
	}
	defer func() { _ = sys.Close(ctx) }()
	im := sys.Meta().Interface()

	d, ok := im.Lookup(router.IPacketPushID)
	fmt.Println("descriptor found:", ok, "ops:", len(d.Ops))
	fmt.Println("counter conforms:", im.Conforms(router.IPacketPushID, router.NewCounter()))
	ids, _ := im.ProvidedBy("cnt")
	fmt.Println("cnt provides:", len(ids) > 0)
	// Output:
	// descriptor found: true ops: 1
	// counter conforms: true
	// cnt provides: true
}

// ExampleMetaSpace_Interception installs and removes a named Around chain
// on a live binding through the interception meta-model.
func ExampleMetaSpace_Interception() {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("icept").
		Add("a", router.TypeCounter, nil).
		Add("b", router.TypeDropper, nil).
		Pipe("a", "b").
		Build(ctx)
	if err != nil {
		panic(err)
	}
	defer func() { _ = sys.Close(ctx) }()
	ic := sys.Meta().Interception()

	var seen int
	_ = ic.Install("a", "out", "audit", netkit.PrePost(
		func(op string, args []any) { seen++ }, nil))
	if err := pump(sys.Capsule(), "a", 5); err != nil {
		panic(err)
	}
	chain, _ := ic.Chain("a", "out")
	fmt.Println("chain:", chain, "observed:", seen)
	_ = ic.Remove("a", "out", "audit")
	chain, _ = ic.Chain("a", "out")
	fmt.Println("after remove:", len(chain))
	// Output:
	// chain: [audit] observed: 5
	// after remove: 0
}

// ExampleMetaSpace_Resources accounts work through the capsule's
// resources meta-model.
func ExampleMetaSpace_Resources() {
	ctx := context.Background()
	sys, err := netkit.NewBlueprint("res").Build(ctx)
	if err != nil {
		panic(err)
	}
	defer func() { _ = sys.Close(ctx) }()
	mgr := sys.Meta().Resources()

	task, err := mgr.CreateTask(resources.TaskSpec{Name: "flows", MemBudget: 1 << 10})
	if err != nil {
		panic(err)
	}
	fmt.Println("charge ok:", task.ChargeMemory(512) == nil)
	fmt.Println("over budget:", task.ChargeMemory(1024) != nil)
	fmt.Println("tasks:", mgr.Tasks())
	// Output:
	// charge ok: true
	// over budget: true
	// tasks: [flows]
}
