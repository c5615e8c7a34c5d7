package ipc

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netkit/core"
	"netkit/router"
)

// gate parks every delivery until open closes, and signals each entry on
// entered.
type gate struct {
	*core.Base
	entered chan struct{}
	open    chan struct{}
}

func (g *gate) PushBatch(batch []*router.Packet) error {
	g.entered <- struct{}{}
	<-g.open
	for _, p := range batch {
		p.Release()
	}
	return nil
}

// emitter pushes out of its own goroutine, never in answer to a batch:
// the asynchronous-emission fixture.
type emitter struct {
	*core.Base
	out *core.Receptacle[router.IPacketPush]
}

// TestHostDecodesNoFrameAhead: while the hosted component holds one
// batch, the host reads no further frame — the batches behind it wait in
// the transport, where the client's credit window expects back-pressure.
func TestHostDecodesNoFrameAhead(t *testing.T) {
	g := &gate{
		Base:    core.NewBase("test.Gate"),
		entered: make(chan struct{}, 3),
		open:    make(chan struct{}),
	}
	g.Provide(router.IPacketPushID, g)
	reg := testRegistry(t)
	reg.MustRegister("test.Gate", func(map[string]string) (core.Component, error) {
		return g, nil
	})
	client, host, cleanup := HostPair(reg)
	defer cleanup()
	var opened sync.Once
	openGate := func() { opened.Do(func() { close(g.open) }) }
	defer openGate() // before cleanup, which waits for the held delivery
	rc, err := client.Instantiate("gate", "test.Gate", nil)
	if err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if err := rc.PushBatch([]*router.Packet{seqPkt(uint64(i))}); err != nil {
				pushed <- err
				return
			}
		}
		pushed <- rc.Flush()
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first batch never reached the hosted component")
	}
	// Time for a host that reads ahead to decode the two batches queued
	// behind the gate.
	time.Sleep(50 * time.Millisecond)
	if n := host.rxBatches.Load(); n != 1 {
		t.Fatalf("host decoded %d batches while the first was held, want 1", n)
	}
	openGate()
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if n := host.rxBatches.Load(); n != 3 {
		t.Fatalf("host decoded %d batches, want 3", n)
	}
}

// countConn counts the writes made on a conn.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestHostAnswersBatchWithOneWrite: a batch whose delivery emits is
// answered with one write carrying the emission frame and the ack, and
// the emissions still land before Flush returns.
func TestHostAnswersBatchWithOneWrite(t *testing.T) {
	a, b := net.Pipe()
	conn := &countConn{Conn: b}
	host := NewHost(conn, testRegistry(t))
	served := make(chan struct{})
	go func() { _ = host.Serve(); close(served) }()
	client := Dial(a)
	defer func() {
		_ = client.Close()
		_ = host.Close()
		<-served
	}()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	gobWrites := conn.writes.Load()
	if ops := int64(host.gobOps.Load()); gobWrites != ops {
		t.Fatalf("%d host writes for %d gob responses", gobWrites, ops)
	}
	const batches, per = 10, 4
	for i := 0; i < batches; i++ {
		batch := make([]*router.Packet, per)
		for j := range batch {
			batch[j] = seqPkt(uint64(i*per + j))
		}
		if err := rc.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := conn.writes.Load() - gobWrites; got != batches {
		t.Fatalf("host made %d writes for %d batches, want one each", got, batches)
	}
	// The stand-in's "out" is unbound here, so every emission that landed
	// is counted lost.
	if lost := rc.Lost(); lost != batches*per {
		t.Fatalf("%d emissions landed before Flush returned, want %d", lost, batches*per)
	}
}

// TestHostFlushesIdleEmission: a hosted component that emits from its
// own goroutine while no batch is being delivered reaches the client at
// once, without a further push to carry it.
func TestHostFlushesIdleEmission(t *testing.T) {
	reg := testRegistry(t)
	reg.MustRegister("test.Emitter", func(map[string]string) (core.Component, error) {
		e := &emitter{
			Base: core.NewBase("test.Emitter"),
			out:  core.NewReceptacle[router.IPacketPush](router.IPacketPushID),
		}
		e.AddReceptacle("out", e.out)
		return e, nil
	})
	client, host, cleanup := HostPair(reg)
	defer cleanup()
	rc, err := client.Instantiate("em", "test.Emitter", nil)
	if err != nil {
		t.Fatal(err)
	}
	parent := core.NewCapsule("parent")
	sink := &localSink{Base: core.NewBase("test.Sink")}
	sink.Provide(router.IPacketPushID, sink)
	if err := parent.Insert("remote", rc); err != nil {
		t.Fatal(err)
	}
	if err := parent.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Bind("remote", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}
	comp, _ := host.capsule.Component("em")
	em := comp.(*emitter)
	emitted := make(chan error, 1)
	go func() {
		next, ok := em.out.Get()
		if !ok {
			emitted <- errors.New("hosted out receptacle unbound")
			return
		}
		emitted <- next.PushBatch([]*router.Packet{seqPkt(7)})
	}()
	if err := <-emitted; err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for sink.count() < 1 {
		select {
		case <-deadline:
			t.Fatal("idle host never flushed an asynchronous emission")
		case <-time.After(time.Millisecond):
		}
	}
	if n := host.rxBatches.Load(); n != 0 {
		t.Fatalf("host received %d batches, want none", n)
	}
}

// TestHostClosesConnOnMalformedFrame: a host whose read loop ends on a
// malformed frame closes its conn, so the peer reads EOF instead of
// waiting for an answer forever.
func TestHostClosesConnOnMalformedFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	host := NewHost(b, testRegistry(t))
	served := make(chan error, 1)
	go func() { served <- host.Serve() }()
	// A 'B' frame claiming 1000 packets in a 4-byte payload.
	frame := appendU32(beginFrame(nil, frameBatch), 1000)
	if _, err := a.Write(finishFrame(frame, 0)); err != nil {
		t.Fatal(err)
	}
	_ = a.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("peer read %v, want EOF", err)
	}
	if err := <-served; err == nil {
		t.Fatal("Serve returned nil on a malformed frame")
	}
}
