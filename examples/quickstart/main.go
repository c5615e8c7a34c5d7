// Quickstart: declare a packet pipeline with netkit.Blueprint, push
// traffic through it, then exercise the meta-space through the unified
// netkit.Meta entry point — introspection, interception and a lossless
// hot-swap — against only public netkit packages.
package main

import (
	"context"
	"fmt"
	"net/netip"

	"netkit"
	"netkit/packet"
	"netkit/router"
)

func main() {
	ctx := context.Background()

	// 1. Declare the architecture: counter -> ttl processor -> counter -> sink.
	sys, err := netkit.NewBlueprint("quickstart").
		Add("ingress", router.TypeCounter, nil).
		Add("ttl", router.TypeIPv4Proc, nil).
		Add("egress", router.TypeCounter, nil).
		Add("sink", router.TypeDropper, nil).
		Pipe("ingress", "ttl", "egress", "sink").
		Build(ctx)
	must(err)
	defer func() { _ = sys.Close(ctx) }()
	meta := sys.Meta()

	// 2. Push some traffic.
	ingress, err := netkit.Service[router.IPacketPush](sys.Capsule(), "ingress", router.IPacketPushID)
	must(err)
	push := func(n int, src string, sport, dport uint16) {
		for i := 0; i < n; i++ {
			raw, err := packet.BuildUDP4(netip.MustParseAddr(src),
				netip.MustParseAddr("192.168.0.1"), sport, dport, 64, []byte("hello"))
			must(err)
			must(ingress.PushBatch([]*router.Packet{router.NewPacket(raw)}))
		}
	}
	push(1000, "10.0.0.1", 5000, 53)

	// 3. Introspect: the architecture meta-model always reflects reality.
	g := meta.Architecture().Snapshot()
	fmt.Printf("architecture: %d components, %d bindings (valid: %v)\n",
		len(g.Nodes), len(g.Edges), meta.Architecture().Validate() == nil)

	// 4. Intercept: attach an auditing Around to the live ttl->egress binding.
	var audited int
	audit := netkit.PrePost(func(op string, args []any) { audited++ }, nil)
	must(meta.Interception().Install("ttl", "out", "audit", audit))
	push(10, "10.0.0.2", 5001, 80)
	fmt.Printf("interceptor observed %d calls\n", audited)
	must(meta.Interception().Remove("ttl", "out", "audit"))

	// 5. Reconfigure: hot-swap the TTL processor for a validating one;
	//    traffic is never dropped by the swap itself.
	must(router.HotSwap(sys.Capsule(), "ttl", "ttl2", router.NewIPv4Proc(true)))
	fmt.Println("hot-swapped ttl -> ttl2 (checksum-validating)")

	egress, err := netkit.Service[*router.Counter](sys.Capsule(), "egress", router.IPacketPushID)
	must(err)
	fmt.Printf("egress saw %d packets\n", egress.ElemStats().In)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
