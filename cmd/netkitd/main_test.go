package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"netkit"
	"netkit/core"
	"netkit/router"
)

// sumStat totals one stat name over a stats tree, the way CI's udp-smoke
// walker reads `nkctl stats`.
func sumStat(n core.StatNode, name string) (sum float64) {
	if s, ok := n.Stat(name); ok {
		sum = s.Value
	}
	for _, c := range n.Children {
		sum += sumStat(c, name)
	}
	return sum
}

// TestUDPPlaneCountsEveryDatagram is the in-process form of CI's udp-smoke
// job: the plane `-io udp` assembles receives 200 loopback datagrams on a
// two-queue SO_REUSEPORT group, and the stats tree shows all 200 with no
// kernel socket drop.
func TestUDPPlaneCountsEveryDatagram(t *testing.T) {
	queues := 2
	if runtime.GOOS != "linux" {
		queues = 1 // SO_REUSEPORT groups are Linux-only
	}
	capsule := core.NewCapsule("netkitd-test")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		t.Fatal(err)
	}
	closeDevices, err := buildUDPPlane(fw, udpPlaneConfig{listen: "127.0.0.1:0", queues: queues})
	if err != nil {
		t.Fatal(err)
	}
	defer closeDevices()
	if err := netkit.Meta(capsule).Architecture().Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.StopAll(ctx) }()

	src, _ := capsule.Component("udp-src-q0") // the port ":0" resolved to
	conn, err := net.Dial("udp", src.(*router.NICSource).Device().(interface{ LocalAddr() string }).LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const frames = 200
	for i := 0; i < frames; i++ {
		if _, err := fmt.Fprintf(conn, "frame-%03d", i); err != nil {
			t.Fatal(err)
		}
	}

	stats := netkit.Meta(capsule).Stats()
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		tree := stats.Tree()
		if got := sumStat(tree, "udp_rx_frames"); got == frames {
			if drops := sumStat(tree, "udp_sock_drops"); drops != 0 {
				t.Fatalf("udp_sock_drops = %v, want 0", drops)
			}
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("udp_rx_frames = %v, want %d", got, frames)
		}
	}
}
