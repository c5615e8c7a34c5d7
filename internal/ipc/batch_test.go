package ipc

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netkit/core"
	"netkit/router"
)

// markerBomb counts and forwards clean batches but panics on any batch
// holding a packet whose first byte is 0xFF — the mid-batch crash fixture
// (the host delivers one packet at a time, so the panic is the marker's).
type markerBomb struct {
	*core.Base
	out       *core.Receptacle[router.IPacketPush]
	delivered atomic.Uint64
}

func (m *markerBomb) PushBatch(batch []*router.Packet) error {
	for _, p := range batch {
		if len(p.Data) > 0 && p.Data[0] == 0xFF {
			panic("marker bomb")
		}
	}
	m.delivered.Add(uint64(len(batch)))
	if next, ok := m.out.Get(); ok {
		return next.PushBatch(batch)
	}
	for _, p := range batch {
		p.Release()
	}
	return nil
}

// slowSink sleeps per packet: the fixture that keeps a window full.
type slowSink struct {
	*core.Base
	delay time.Duration
}

func (s *slowSink) PushBatch(batch []*router.Packet) error {
	for _, p := range batch {
		time.Sleep(s.delay)
		p.Release()
	}
	return nil
}

func batchRegistry(t *testing.T) *core.ComponentRegistry {
	t.Helper()
	reg := testRegistry(t)
	reg.MustRegister("test.MarkerBomb", func(map[string]string) (core.Component, error) {
		m := &markerBomb{
			Base: core.NewBase("test.MarkerBomb"),
			out:  core.NewReceptacle[router.IPacketPush](router.IPacketPushID),
		}
		m.Provide(router.IPacketPushID, m)
		m.AddReceptacle("out", m.out)
		return m, nil
	})
	reg.MustRegister("test.Slow", func(map[string]string) (core.Component, error) {
		s := &slowSink{Base: core.NewBase("test.Slow"), delay: 2 * time.Millisecond}
		s.Provide(router.IPacketPushID, s)
		return s, nil
	})
	return reg
}

// seqSink records the payload sequence numbers it receives, in order.
type seqSink struct {
	*core.Base
	mu   sync.Mutex
	seqs []uint64
}

func (s *seqSink) PushBatch(batch []*router.Packet) error {
	s.mu.Lock()
	for _, p := range batch {
		if len(p.Data) >= 8 {
			s.seqs = append(s.seqs, binary.LittleEndian.Uint64(p.Data))
		}
	}
	s.mu.Unlock()
	for _, p := range batch {
		p.Release()
	}
	return nil
}

func (s *seqSink) snapshot() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.seqs...)
}

func seqPkt(seq uint64) *router.Packet {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b, seq)
	return router.NewPacket(b)
}

// bindSeqSink binds rc's "out" receptacle to a fresh seqSink inside a
// parent capsule and returns the sink.
func bindSeqSink(t *testing.T, rc *RemoteComponent) *seqSink {
	t.Helper()
	cap := core.NewCapsule("parent")
	sink := &seqSink{Base: core.NewBase("test.SeqSink")}
	sink.Provide(router.IPacketPushID, sink)
	if err := cap.Insert("remote", rc); err != nil {
		t.Fatal(err)
	}
	if err := cap.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := cap.Bind("remote", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}
	return sink
}

// TestPushBatchPipelinedDelivery drives many pipelined batches through an
// isolated Counter and checks that every packet arrives, in order, with
// the transport counters conserving frames exactly.
func TestPushBatchPipelinedDelivery(t *testing.T) {
	client, host, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := bindSeqSink(t, rc)

	const batches, per = 50, 17
	seq := uint64(0)
	for b := 0; b < batches; b++ {
		batch := make([]*router.Packet, per)
		for i := range batch {
			batch[i] = seqPkt(seq)
			seq++
		}
		if err := rc.PushBatch(batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if err := rc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	const total = batches * per
	// Flush guarantees acks — and the host writes emissions before each
	// ack — so by now the sink has everything.
	got := sink.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("order broken at %d: got seq %d", i, s)
		}
	}
	if tx, acked := rc.TxFrames(), rc.AckedFrames(); tx != total || acked != total {
		t.Fatalf("tx=%d acked=%d want %d", tx, acked, total)
	}
	if d := rc.Dropped(); d != 0 {
		t.Fatalf("dropped = %d", d)
	}
	if e := rc.Emitted(); e != total {
		t.Fatalf("emitted = %d", e)
	}
	if rx := host.rxFrames.Load(); rx != total {
		t.Fatalf("host rx frames = %d", rx)
	}
	if host.emitBatchN.Load() >= total {
		t.Fatalf("emissions were not batched: %d emit frames in %d batches",
			host.emitFrameN.Load(), host.emitBatchN.Load())
	}
}

// TestPushCrossesAsBinaryFrame pins the one packet protocol: every
// synchronous one-packet crossing (PushBatch, then Flush) travels as a
// one-packet binary batch frame and is acked before Flush returns; none
// takes a gob control call.
func TestPushCrossesAsBinaryFrame(t *testing.T) {
	client, _, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := bindSeqSink(t, rc)
	const n = 9
	for i := 0; i < n; i++ {
		if err := pushSync(rc, seqPkt(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if acked := rc.AckedFrames(); acked != uint64(i+1) {
			t.Fatalf("push %d returned before its ack: acked = %d", i, acked)
		}
	}
	if tx, acked := rc.TxFrames(), rc.AckedFrames(); tx != n || acked != n {
		t.Fatalf("tx=%d acked=%d, want %d", tx, acked, n)
	}
	if g := rc.gobCalls.Load(); g != 0 {
		t.Fatalf("gob calls = %d, want 0", g)
	}
	got := sink.snapshot()
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("order broken at %d: seq %d", i, s)
		}
	}
}

// TestBatchCrashContainmentMidBatch panics a hosted component mid-batch
// and checks exact per-packet accounting: the ack reports precisely the
// failing packets, the error wraps ErrContained, and the host keeps
// serving subsequent batches.
func TestBatchCrashContainmentMidBatch(t *testing.T) {
	client, _, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("mb", "test.MarkerBomb", nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	batch := make([]*router.Packet, n)
	for i := range batch {
		batch[i] = seqPkt(uint64(i))
	}
	// Packets 3 and 7 detonate.
	batch[3].Data[0] = 0xFF
	batch[7].Data[0] = 0xFF
	// With pipelining the outcome surfaces on the push OR the flush,
	// depending on how the ack races the next call — but exactly once,
	// contained, and per-packet-exact either way.
	perr := rc.PushBatch(batch)
	ferr := rc.Flush()
	err = perr
	if err == nil {
		err = ferr
	}
	if !errors.Is(err, ErrContained) {
		t.Fatalf("want ErrContained, got push=%v flush=%v", perr, ferr)
	}
	failed := router.FailedPackets(perr, n) + router.FailedPackets(ferr, n)
	if failed != 2 {
		t.Fatalf("want 2 failed packets, got %d (push=%v flush=%v)", failed, perr, ferr)
	}
	if c := rc.contained.Load(); c != 2 {
		t.Fatalf("contained frames = %d, want 2", c)
	}
	if acked := rc.AckedFrames(); acked != n {
		t.Fatalf("acked = %d, want %d", acked, n)
	}
	// The host survives: a clean batch flows normally and the previous
	// failure does not resurface.
	clean := make([]*router.Packet, 4)
	for i := range clean {
		clean[i] = seqPkt(uint64(100 + i))
	}
	if err := rc.PushBatch(clean); err != nil {
		t.Fatalf("push after crash: %v", err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatalf("flush after crash: %v", err)
	}
}

// hostPairWindow is HostPair with a client window of the given depth.
func hostPairWindow(reg *core.ComponentRegistry, window int) (*Client, *Host) {
	a, b := net.Pipe()
	h := NewHost(b, reg)
	go func() { _ = h.Serve() }()
	return dial(a, window), h
}

// TestHostDeathMidWindow kills the host while a window of batches is in
// flight against a slow component: every waiter must wake, ErrClosed must
// surface, and the frame accounting must balance exactly —
// pushed == acked + dropped, with no frame counted twice or lost.
func TestHostDeathMidWindow(t *testing.T) {
	client, host := hostPairWindow(batchRegistry(t), 4)
	defer func() { _ = client.Close() }()
	rc, err := client.Instantiate("slow", "test.Slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	const batches, per = 40, 4
	flushErr := make(chan error, 1)
	var pushErrClosed atomic.Bool
	go func() {
		for b := 0; b < batches; b++ {
			batch := make([]*router.Packet, per)
			for i := range batch {
				batch[i] = seqPkt(uint64(b*per + i))
			}
			if err := rc.PushBatch(batch); err != nil && errors.Is(err, ErrClosed) {
				pushErrClosed.Store(true)
			}
		}
		flushErr <- rc.Flush()
	}()
	time.Sleep(20 * time.Millisecond)
	_ = host.Close()
	var ferr error
	select {
	case ferr = <-flushErr:
	case <-time.After(10 * time.Second):
		t.Fatal("flush deadlocked after host death")
	}
	sawClosed := pushErrClosed.Load() || errors.Is(ferr, ErrClosed)
	if !sawClosed {
		t.Fatalf("no ErrClosed surfaced (flush err: %v)", ferr)
	}
	const total = batches * per
	acked, dropped := rc.AckedFrames(), rc.Dropped()
	if acked+dropped != total {
		t.Fatalf("conservation broken: acked %d + dropped %d != pushed %d",
			acked, dropped, total)
	}
	if dropped == 0 {
		t.Fatal("expected in-flight drops on host death")
	}
	// The transport is dead but must stay non-blocking and err-fast.
	if err := rc.PushBatch([]*router.Packet{seqPkt(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after death: %v", err)
	}
	if err := rc.Flush(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after death: %v", err)
	}
}

// TestClientCloseSweepsWindow closes the client (not the host) with
// batches in flight: Close must not hang and accounting must balance.
func TestClientCloseSweepsWindow(t *testing.T) {
	client, host := hostPairWindow(batchRegistry(t), 2)
	defer func() { _ = client.Close(); _ = host.Close() }()
	rc, err := client.Instantiate("slow", "test.Slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pushed atomic.Uint64
	go func() {
		for b := 0; b < 20; b++ {
			batch := []*router.Packet{seqPkt(uint64(b))}
			pushed.Add(1)
			_ = rc.PushBatch(batch)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() { _ = client.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("close deadlocked with in-flight window")
	}
	// Give the pusher goroutine a moment to finish erroring out.
	deadline := time.After(5 * time.Second)
	for pushed.Load() < 20 {
		select {
		case <-deadline:
			t.Fatal("pusher wedged after close")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestRemoteComponentStatsSurface checks the satellite requirement: an
// isolated component shows up in the capsule stats tree as an IPC lane
// with its transport counters, and the host side exposes its own subtree.
func TestRemoteComponentStatsSurface(t *testing.T) {
	client, host, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	cap := core.NewCapsule("parent")
	if err := cap.Insert("remote", rc); err != nil {
		t.Fatal(err)
	}
	batch := []*router.Packet{seqPkt(1), seqPkt(2), seqPkt(3)}
	if err := rc.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	tree := core.CapsuleStats(cap)
	node, ok := tree.Find("remote")
	if !ok {
		t.Fatal("remote component missing from stats tree")
	}
	for _, name := range []string{
		"ipc_tx_batches", "ipc_tx_frames", "ipc_tx_bytes", "ipc_roundtrips",
		"ipc_acked_frames", "ipc_dropped", "ipc_contained_frames",
		"ipc_emitted", "ipc_lost", "ipc_frames_per_roundtrip",
		"ipc_window_occupancy",
	} {
		if _, ok := node.Stat(name); !ok {
			t.Fatalf("stat %s missing from IPC lane", name)
		}
	}
	if s, _ := node.Stat("ipc_tx_frames"); s.Value != 3 {
		t.Fatalf("ipc_tx_frames = %v", s.Value)
	}
	if s, _ := node.Stat("ipc_frames_per_roundtrip"); s.Value != 3 {
		t.Fatalf("ipc_frames_per_roundtrip = %v, want 3", s.Value)
	}
	htree := host.StatsTree()
	if _, ok := htree.Stat("ipc_host_rx_frames"); !ok {
		t.Fatal("host stats missing")
	}
	if _, ok := htree.Find("cnt"); !ok {
		t.Fatal("hosted component missing from host stats tree")
	}
}

// TestIsolateLifecycle exercises the Isolate assembly helper: the
// stand-in owns its transport and Stop tears it down.
func TestIsolateLifecycle(t *testing.T) {
	rc, err := Isolate("iso", router.TypeCounter, nil, testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.PushBatch([]*router.Packet{seqPkt(1), seqPkt(2)}); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rc.PushBatch([]*router.Packet{seqPkt(3)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after stop: %v", err)
	}
}

// TestIsolateAtTCP drives the real two-process deployment shape over a
// loopback TCP socket: ListenAndServe hosting (the `netkitd -ipc-host`
// entry point) with IsolateAt as the parent's side.
func TestIsolateAtTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = ListenAndServe(ln, testRegistry(t)) }()

	rc, err := IsolateAt("iso", router.TypeCounter, nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*router.Packet, 16)
	for i := range batch {
		batch[i] = seqPkt(uint64(i))
	}
	if err := rc.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rc.AckedFrames(); got != 16 {
		t.Fatalf("acked = %d, want 16", got)
	}
	if err := rc.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rc.PushBatch([]*router.Packet{seqPkt(99)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after stop: %v", err)
	}
}

// TestCallSlotReuse pins the satellite fix for per-call channel churn: the
// pooled correlation slot must be reused across sequential control calls.
func TestCallSlotReuse(t *testing.T) {
	client, _, cleanup := HostPair(batchRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cls", router.TypeClassifier, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := rc.gobCalls.Load()
	allocs := testing.AllocsPerRun(200, func() {
		if outs := rc.FilterOutputs(); len(outs) != 2 {
			t.Fatalf("outputs = %v", outs)
		}
	})
	if calls := rc.gobCalls.Load() - before; calls < 200 {
		t.Fatalf("gob calls = %d, want one per FilterOutputs", calls)
	}
	// A gob round-trip still allocates in encoding/gob, but the 2-alloc
	// channel+map-entry churn per call must be gone from the steady state:
	// amortised allocations stay well under the old floor.
	if allocs > 40 {
		t.Fatalf("per-call allocations = %.1f, correlation slots not pooled?", allocs)
	}
}
