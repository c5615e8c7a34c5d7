//go:build race

package router

import (
	"testing"

	"netkit/internal/buffers"
)

// TestReleasedDescriptorIsPoisoned: in race builds a slab's descriptors
// are poisoned when its last reference drops, so a *Packet kept past its
// Release reads poison, not the frame the slab's next carve put there.
func TestReleasedDescriptorIsPoisoned(t *testing.T) {
	pool := buffers.MustNewPool([]int{512}, 1, 0)
	slab, err := pool.Get(512)
	if err != nil {
		t.Fatal(err)
	}
	pkts := SlabPackets(slab, 2)
	slab.RetainN(1)
	for i := range pkts {
		pkts[i] = Packet{Data: slab.Bytes()[i*64 : (i+1)*64], Buf: slab, InPort: "eth0"}
	}
	kept := &pkts[1]
	pkts[0].Release()
	kept.Release()
	// The next carve of the slab mints one packet into descriptor 0 and
	// leaves the kept descriptor as the release left it.
	next, err := NewPooledPacket(pool, []byte("next batch"))
	if err != nil {
		t.Fatal(err)
	}
	defer next.Release()
	if next.Buf != slab || next != &pkts[0] {
		t.Fatal("the pool did not recycle the slab and its descriptors")
	}
	if kept.Data != nil || kept.Buf != nil || kept.InPort != "released" {
		t.Fatalf("kept descriptor after release: Data %q, Buf %p, InPort %q; want poison",
			kept.Data, kept.Buf, kept.InPort)
	}
}
