package router_test

import (
	"fmt"
	"net/netip"

	"netkit/core"
	"netkit/packet"
	"netkit/router"
)

// ExampleIPacketPush demonstrates the batched data path: packets are
// staged in a pooled batch and handed to the pipeline with one PushBatch
// call, which every hop forwards as one batch. Ownership: the pipeline
// takes the packets, the caller keeps the slice and recycles it with
// PutBatch.
func ExampleIPacketPush() {
	capsule := core.NewCapsule("batch-example")
	cnt := router.NewCounter()
	_ = capsule.Insert("cnt", cnt)
	_ = capsule.Insert("drop", router.NewDropper())
	_, _ = router.ConnectPush(capsule, "cnt", "out", "drop")

	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("192.168.9.9")
	batch := router.GetBatch()
	for port := uint16(0); port < 4; port++ {
		raw, err := packet.BuildUDP4(src, dst, 4000, 5000+port, 64, nil)
		if err != nil {
			panic(err)
		}
		batch = append(batch, router.NewPacket(raw))
	}

	if err := cnt.PushBatch(batch); err != nil {
		panic(err)
	}
	router.PutBatch(batch) // packets were handed off; recycle the slice

	st := cnt.ElemStats()
	fmt.Printf("in=%d out=%d\n", st.In, st.Out)
	// Output: in=4 out=4
}
