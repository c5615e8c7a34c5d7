package ipc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"netkit/router"
)

// TestFramePacketCapRefused: a well-formed 'B' frame announcing one
// packet past maxFramePackets is malformed, so the host refuses it and
// closes its conn instead of allocating a descriptor per announced packet.
func TestFramePacketCapRefused(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	host := NewHost(b, testRegistry(t))
	served := make(chan error, 1)
	go func() { served <- host.Serve() }()
	frame := beginFrame(nil, frameBatch)
	frame = append(frame, carveFrame(maxFramePackets+1, 0)...)
	go func() { _, _ = a.Write(finishFrame(frame, 0)) }()
	_ = a.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("peer read %v, want EOF", err)
	}
	if err := <-served; err == nil {
		t.Fatal("Serve returned nil on a frame over the packet cap")
	}
	if n := host.rxFrames.Load(); n != 0 {
		t.Fatalf("host took %d packets from a refused frame", n)
	}
}

// TestPushBatchSplitsAtFramePacketCap: one PushBatch of more packets than
// a frame may carry leaves as two frames and arrives whole, conserved and
// in order.
func TestPushBatchSplitsAtFramePacketCap(t *testing.T) {
	client, host, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := bindSeqSink(t, rc)
	const total = 70000
	batch := make([]*router.Packet, total)
	for i := range batch {
		batch[i] = seqPkt(uint64(i))
	}
	if err := rc.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	got := sink.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("order broken at %d: got seq %d", i, s)
		}
	}
	if n := rc.txBatches.Load(); n != 2 {
		t.Fatalf("%d frames sent, want 2", n)
	}
	if n := host.rxBatches.Load(); n != 2 {
		t.Fatalf("host received %d frames, want 2", n)
	}
	if tx, acked, d := rc.TxFrames(), rc.AckedFrames(), rc.Dropped(); tx != total || acked != total || d != 0 {
		t.Fatalf("tx=%d acked=%d dropped=%d, want %d sent and acked", tx, acked, d, total)
	}
	if rx := host.rxFrames.Load(); rx != total {
		t.Fatalf("host rx packets = %d", rx)
	}
}

// bigSeqPkt is a packet of size bytes led by its sequence number.
func bigSeqPkt(seq uint64, size int) *router.Packet {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, seq)
	return router.NewPacket(b)
}

// TestPushBatchSplitsAtFramePayloadCap: one PushBatch of more bytes than
// a frame may carry leaves as several frames, none over the cap, and
// arrives whole, conserved and in order on a connection that survives.
func TestPushBatchSplitsAtFramePayloadCap(t *testing.T) {
	client, host, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := bindSeqSink(t, rc)
	const total, size = 65, 1<<20 + 1
	batch := make([]*router.Packet, total)
	for i := range batch {
		batch[i] = bigSeqPkt(uint64(i), size)
	}
	if err := rc.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	batch = nil
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	got := sink.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("order broken at %d: got seq %d", i, s)
		}
	}
	if n := host.rxBatches.Load(); n < 2 {
		t.Fatalf("host received %d frames, want at least 2", n)
	}
	if tx, acked, d := rc.TxFrames(), rc.AckedFrames(), rc.Dropped(); tx != total || acked != total || d != 0 {
		t.Fatalf("tx=%d acked=%d dropped=%d, want %d sent and acked", tx, acked, d, total)
	}
}

// TestPushBatchDropsPacketOverFrameCap: a packet no frame can carry is
// dropped and counted, not sent, so the host keeps the connection and
// the next push on the same client is delivered.
func TestPushBatchDropsPacketOverFrameCap(t *testing.T) {
	client, host, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := bindSeqSink(t, rc)
	if err := rc.PushBatch([]*router.Packet{bigSeqPkt(0, maxFramePayload)}); err != nil {
		t.Fatal(err)
	}
	if err := rc.PushBatch([]*router.Packet{seqPkt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sink.snapshot(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("delivered %v, want only the packet after the oversized one", got)
	}
	if d, tx := rc.Dropped(), rc.TxFrames(); d != 1 || tx != 1 {
		t.Fatalf("dropped=%d tx=%d, want 1 and 1", d, tx)
	}
	if n := host.rxBatches.Load(); n != 1 {
		t.Fatalf("host received %d frames, want 1", n)
	}
}
