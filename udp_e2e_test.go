package netkit

import (
	"context"
	"fmt"
	"testing"
	"time"

	"netkit/cf"
	"netkit/core"
	"netkit/internal/osabs"
	"netkit/router"
)

// TestUDPPlaneEndToEnd runs the full real-I/O path in-process: a driver
// UDP socket sends frames over loopback into an arena-backed receive
// device, a Blueprint-declared DeviceSource pumps them through a sharded
// counter->validator plane, and a DeviceSink transmits them — one
// batched syscall per batch on Linux — to a receiver socket. Every frame
// must come out the far end: the plane may not drop at this rate.
func TestUDPPlaneEndToEnd(t *testing.T) {
	arena, err := osabs.NewFrameArena(2048, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	rxDev, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "plane-rx", Listen: "127.0.0.1:0", Batch: 32, Arena: arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rxDev.Close()
	farEnd, err := osabs.NewUDPDevice(osabs.UDPConfig{Listen: "127.0.0.1:0", Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer farEnd.Close()
	txDev, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "plane-tx", Listen: "127.0.0.1:0", Peer: farEnd.LocalAddr(), Batch: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer txDev.Close()

	replica := func(shard int, fw *cf.Framework) (string, error) {
		cnt := router.ShardName(shard, "cnt")
		val := router.ShardName(shard, "val")
		if err := fw.Admit(cnt, router.NewCounter()); err != nil {
			return "", err
		}
		if err := fw.Admit(val, router.NewChecksumValidator()); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(cnt, "out", val, router.IPacketPushID); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(val, "out",
			router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
			return "", err
		}
		return cnt, nil
	}
	sys, err := NewBlueprint("udp-e2e").
		DeviceSource("src", rxDev, nil, router.PumpConfig{Batch: 32}).
		ShardsCfg("plane", router.ShardConfig{Shards: 2}, replica).
		DeviceSink("snk", txDev).
		Pipe("src", "plane", "snk").
		Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())

	driver, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Listen: "127.0.0.1:0", Peer: rxDev.LocalAddr(), Batch: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()

	const frames = 512
	sent := 0
	for sent < frames {
		batch := make([][]byte, 0, 32)
		for i := 0; i < 32 && sent+i < frames; i++ {
			batch = append(batch, []byte(fmt.Sprintf("e2e-%04d", sent+i)))
		}
		n, err := driver.SendBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(batch) {
			t.Fatalf("driver refused %d frames", len(batch)-n)
		}
		sent += n
		// Modest pacing keeps socket queues shallow: the claim under test
		// is zero loss at a sane rate, not overload behaviour.
		time.Sleep(2 * time.Millisecond)
	}

	seen := map[string]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < frames && time.Now().Before(deadline) {
		fs, slab, err := farEnd.RecvBatchInto(nil, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			seen[string(f)] = true
			if slab != nil {
				_ = slab.Release()
			}
		}
	}
	if len(seen) != frames {
		t.Fatalf("far end received %d of %d frames", len(seen), frames)
	}
	for i := 0; i < frames; i++ {
		if want := fmt.Sprintf("e2e-%04d", i); !seen[want] {
			t.Fatalf("frame %q never arrived", want)
		}
	}

	// The device subtree must surface through the component stats the
	// control protocol serves: frames-per-syscall and socket-drop
	// telemetry under the source, syscall amortisation under the sink.
	for compName, wantStat := range map[string]string{
		"src": "udp_rx_frames_per_syscall",
		"snk": "udp_tx_frames",
	} {
		comp, ok := sys.Capsule().Component(compName)
		if !ok {
			t.Fatalf("no %s component", compName)
		}
		stats := comp.(core.IStats).Stats()
		found := false
		for _, s := range stats {
			if s.Name == wantStat {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s stats lack %s: %+v", compName, wantStat, stats)
		}
	}
}
