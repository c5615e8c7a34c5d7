package router

import (
	"context"
	"testing"

	"netkit/internal/buffers"
	"netkit/internal/osabs"
)

// TestNICSourceUDPPollAllocs: a poll over an arena-backed UDP device
// mints its packets into the descriptors riding the arena slab, so
// neither the poll nor the frames it delivers allocate.
func TestNICSourceUDPPollAllocs(t *testing.T) {
	const batch = 8
	arena, err := osabs.NewFrameArena(512, batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "udp-rx", Listen: "127.0.0.1:0", Batch: batch, FrameSize: 512, Arena: arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := osabs.NewUDPDevice(osabs.UDPConfig{Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	src, err := NewNICSourcePump(rx, nil, PumpConfig{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	drop := NewDropper()
	c := newCap()
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("drop", drop); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "src", "out", "drop"); err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, batch)
	for i := range frames {
		frames[i] = make([]byte, 64)
	}
	polled := 0
	step := func() {
		if _, err := tx.SendBatch(frames); err != nil {
			t.Fatal(err)
		}
		n, _ := src.poll(context.Background())
		polled += n
	}
	step() // the first carve of each slab attaches its descriptors
	step()
	polled = 0
	allocs := testing.AllocsPerRun(100, step)
	if polled == 0 {
		t.Fatal("no poll received a frame")
	}
	if allocs != 0 {
		t.Fatalf("send and poll of %d frames: %.1f allocs, want 0 (%d frames polled)", batch, allocs, polled)
	}
	if live := arena.Stats().Live; live != 0 {
		t.Fatalf("%d arena slabs still out after the dropper released every packet", live)
	}
}

// TestNewPooledPacketWarmAllocs: a packet minted from a warm pool is the
// descriptor its buffer kept, so the mint allocates nothing.
func TestNewPooledPacketWarmAllocs(t *testing.T) {
	pool := buffers.MustNewPool([]int{128}, 1, 0)
	data := []byte("a pooled packet")
	mint := func() {
		p, err := NewPooledPacket(pool, data)
		if err != nil {
			t.Fatal(err)
		}
		if string(p.Data) != string(data) {
			t.Fatalf("pooled packet holds %q", p.Data)
		}
		p.Release()
	}
	mint()
	if allocs := testing.AllocsPerRun(1000, mint); allocs != 0 {
		t.Fatalf("NewPooledPacket from a warm pool: %.0f allocs, want 0", allocs)
	}
}
