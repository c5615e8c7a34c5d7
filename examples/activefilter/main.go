// activefilter: stratum 3 in action — an execution environment attached to
// a router pipeline runs (a) a native per-flow media filter that thins a
// video flow to a third of its rate and (b) an injected capsule-VM program
// (mobile code) that DSCP-marks DNS traffic, under gas and rate sandboxes.
package main

import (
	"context"
	"fmt"
	"net/netip"
	"os"

	"netkit"
	"netkit/internal/appsvc"
	"netkit/packet"
	"netkit/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "activefilter:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	ee := appsvc.NewExecEnv()
	egress := router.NewCounter()
	sys, err := netkit.NewBlueprint("activefilter").
		Insert("ee", ee).
		Insert("egress", egress).
		Insert("sink", router.NewDropper()).
		Pipe("ee", "egress", "sink").
		Build(ctx)
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close(ctx) }()

	// (a) Native program: thin the media flow (UDP 5004) to 1-in-3.
	if err := ee.Attach("udp and dst port 5004",
		&appsvc.MediaFilter{KeepOneIn: 3}, appsvc.Sandbox{}); err != nil {
		return err
	}

	// (b) Mobile code: an injected VM program that sets the DSCP/EF code
	// point on DNS packets. It runs gas-metered; a runaway version of this
	// program would fault and only cost its own packets.
	dscpMark := appsvc.MustAssemble(`
		loadf dstport
		push 53
		eq
		jz pass      ; not DNS: leave untouched
		push 46      ; EF
		storef tos
		pass: forward
	`)
	if err := ee.AttachVM("dscp-dns", "udp", dscpMark, appsvc.Sandbox{Gas: 64}); err != nil {
		return err
	}

	// Traffic: 30 media packets, 10 DNS packets.
	src := netip.MustParseAddr("10.0.0.7")
	dst := netip.MustParseAddr("192.168.0.42")
	for i := 0; i < 30; i++ {
		raw, err := packet.BuildUDP4(src, dst, 30000, 5004, 64, make([]byte, 400))
		if err != nil {
			return err
		}
		if err := ee.PushBatch([]*router.Packet{router.NewPacket(raw)}); err != nil {
			return err
		}
	}
	marked := 0
	for i := 0; i < 10; i++ {
		raw, err := packet.BuildUDP4(src, dst, 30001, 53, 64, []byte("query"))
		if err != nil {
			return err
		}
		p := router.NewPacket(raw)
		if err := ee.PushBatch([]*router.Packet{p}); err != nil {
			return err
		}
		if h, err := packet.ParseIPv4(raw); err == nil && h.TOS == 46 {
			marked++
		}
	}

	mediaStats, err := ee.StatsOf("media-filter")
	if err != nil {
		return err
	}
	dnsStats, err := ee.StatsOf("dscp-dns")
	if err != nil {
		return err
	}
	fmt.Printf("media filter: %d hits, %d dropped (thinned to 1-in-3)\n",
		mediaStats.Hits, mediaStats.Drops)
	fmt.Printf("dscp-dns VM:  %d hits, %d packets EF-marked, %d faults\n",
		dnsStats.Hits, marked, dnsStats.Faults)
	fmt.Printf("egress total: %d packets\n", egress.ElemStats().In)
	return nil
}
