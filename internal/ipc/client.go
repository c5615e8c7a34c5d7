package ipc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"netkit/core"
	"netkit/internal/buffers"
	"netkit/resources"
	"netkit/router"
)

// Client is the parent-composite side of an isolation boundary: it
// instantiates components in the remote host and manufactures local
// stand-ins whose bindings transparently cross the wire. Control calls are
// synchronous gob round-trips; packets only ever cross as pipelined
// binary batch frames under a credit window (see frame.go).
type Client struct {
	w      *wire
	nextID atomic.Uint64
	closed atomic.Bool
	window int

	mu      sync.Mutex
	pending map[uint64]chan *message
	remotes map[string]*RemoteComponent
	readErr error

	// dead flips (before done closes) when the read loop exits; with the
	// per-slot frames token it makes in-flight drop accounting
	// exactly-once no matter how a send races the teardown sweep. A
	// sender parked on credit wakes on done, after the sweep.
	dead   atomic.Bool
	done   chan struct{}
	reader *resources.Task // the read loop

	// callPool recycles the correlation channel a synchronous gob call
	// parks on, so the control path stops allocating a channel per call.
	callPool sync.Pool

	// slots/credits is the pipeline window: every in-flight batch holds
	// one txSlot; acquiring a credit IS the backpressure.
	slots   []*txSlot
	credits chan *txSlot
	flushMu sync.Mutex

	// Completion aggregate: acks (and teardown sweeps) that retire failed
	// slots fold their packet count and the first error in here; harvest
	// turns it into the error the NEXT PushBatch/Flush returns.
	compMu    sync.Mutex
	aggFailed uint64
	aggErr    error

	ackScratch [600]byte
}

// txSlot is one unit of window credit. frames is the ownership token for
// teardown accounting: it is set (after owner/bytes) when a batch is
// committed to the slot, and whichever party — ack handler, teardown
// sweep, or the failed sender — atomically swaps it back to zero both
// accounts for those frames and returns the slot to the credit pool.
// Exactly one swap observes a nonzero value, so drops are counted exactly
// once and slots are never double-freed.
type txSlot struct {
	id     uint32
	frames atomic.Uint32
	nbytes atomic.Uint64
	owner  atomic.Pointer[RemoteComponent]
}

// completion is the outcome of one retired batch with failures.
type completion struct {
	failed    uint32
	contained bool
	closed    bool
	errMsg    string
}

// Dial wraps an established connection (the host must be serving the other
// end) and starts the demultiplexing reader.
func Dial(conn net.Conn) *Client { return dial(conn, DefaultWindow) }

// dial is Dial with an explicit pipeline depth (tests shrink it to keep a
// window full).
func dial(conn net.Conn, window int) *Client {
	c := &Client{
		w:       newWire(conn),
		window:  window,
		pending: make(map[uint64]chan *message),
		remotes: make(map[string]*RemoteComponent),
		done:    make(chan struct{}),
		reader:  resources.NewTask("ipc-reader"),
		credits: make(chan *txSlot, window),
	}
	c.callPool.New = func() any { return make(chan *message, 1) }
	c.slots = make([]*txSlot, window)
	for i := range c.slots {
		s := &txSlot{id: uint32(i)}
		c.slots[i] = s
		c.credits <- s
	}
	c.reader.Start(func(context.Context) { c.fail(c.readFrames()) })
	return c
}

// Close tears the connection down, which ends the read loop, and joins
// it; outstanding calls fail with ErrClosed and in-flight batches are
// accounted as dropped.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.w.conn.Close()
	c.reader.Stop()
	return err
}

// Window reports the pipeline depth.
func (c *Client) Window() int { return c.window }

// InFlight reports how many batches currently hold a window credit.
func (c *Client) InFlight() int { return c.window - len(c.credits) }

// readFrames demultiplexes inbound frames until the connection fails;
// the read loop hands its error to fail.
func (c *Client) readFrames() error {
	for {
		kind, err := c.w.readKind()
		if err != nil {
			return err
		}
		switch kind {
		case frameGob:
			m, err := c.w.readGob()
			if err != nil {
				return err
			}
			c.handleResp(m)
		case frameAck:
			payload, slab, err := c.w.readPayload(c.ackScratch[:0])
			if err != nil {
				return err
			}
			ok := c.handleAck(payload)
			if slab != nil {
				_ = slab.Release()
			}
			if !ok {
				return errors.New("ipc: malformed ack frame")
			}
		case frameEmit:
			payload, slab, err := c.w.readPayload(nil)
			if err != nil {
				return err
			}
			if !c.handleEmit(payload, slab) {
				return errors.New("ipc: malformed emit frame")
			}
		default:
			return fmt.Errorf("ipc: unknown frame kind %q", kind)
		}
	}
}

// fail is the single teardown path of the read loop: it records the
// terminal error, wakes every parked control call with a nil sentinel,
// sweeps in-flight batch slots (accounting their frames as dropped against
// their owners, exactly once via the frames token), and only then closes
// done — so a waiter released by done always observes a completed sweep.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || c.closed.Load() {
		c.readErr = ErrClosed
	} else {
		c.readErr = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- nil
	}
	c.mu.Unlock()
	c.dead.Store(true)
	for _, s := range c.slots {
		if f := s.frames.Swap(0); f > 0 {
			rc := s.owner.Swap(nil)
			s.nbytes.Store(0)
			if rc != nil {
				rc.dropped.Add(uint64(f))
			}
			c.retire(completion{failed: f, closed: true})
			select {
			case c.credits <- s:
			default:
			}
		}
	}
	close(c.done)
}

// handleResp wakes the control call parked on m's correlation ID. The
// host sends gob only in answer to a request.
func (c *Client) handleResp(m *message) {
	c.mu.Lock()
	ch, ok := c.pending[m.ID]
	if ok {
		delete(c.pending, m.ID)
	}
	c.mu.Unlock()
	if ok {
		ch <- m
	}
}

// handleAck retires one batch slot. Reports false on a malformed frame.
func (c *Client) handleAck(payload []byte) bool {
	r := binReader{b: payload}
	slotID := r.u32()
	r.u32() // delivered: the slot's frames less failed
	failed := r.u32()
	flags := r.u8()
	errMsg := r.str()
	if r.err || slotID >= uint32(len(c.slots)) {
		return false
	}
	s := c.slots[slotID]
	f := s.frames.Swap(0)
	if f == 0 {
		return true // already swept by teardown
	}
	rc := s.owner.Swap(nil)
	s.nbytes.Store(0)
	if rc != nil {
		rc.roundtrips.Add(1)
		rc.ackedFrames.Add(uint64(f))
		if failed > 0 {
			rc.remoteFailed.Add(uint64(failed))
			if flags&ackFlagContained != 0 {
				rc.contained.Add(uint64(failed))
			}
		}
	}
	if failed > 0 {
		c.retire(completion{
			failed: failed, contained: flags&ackFlagContained != 0, errMsg: errMsg,
		})
	}
	c.credits <- s
	return true
}

// handleEmit delivers one batched emission frame. It takes ownership of
// slab (nil when payload is heap-owned). Reports false on malformed input.
func (c *Client) handleEmit(payload []byte, slab *buffers.Buffer) bool {
	r := binReader{b: payload}
	name := r.str()
	port := r.str()
	batch, _, ok := carve(&r, int(r.u32()), slab)
	if !ok {
		return false
	}
	c.mu.Lock()
	rc := c.remotes[name]
	c.mu.Unlock()
	if rc == nil {
		for _, p := range batch {
			p.Release()
		}
	} else {
		rc.deliverBatch(port, batch)
	}
	router.PutBatch(batch)
	return true
}

// retire folds one completion into the harvest aggregate.
func (c *Client) retire(comp completion) {
	c.compMu.Lock()
	c.aggFailed += uint64(comp.failed)
	if c.aggErr == nil && comp.failed > 0 {
		switch {
		case comp.contained:
			c.aggErr = fmt.Errorf("ipc: %s: %w", comp.errMsg, ErrContained)
		case comp.closed:
			c.aggErr = fmt.Errorf("ipc: %d frame(s) dropped in flight: %w", comp.failed, ErrClosed)
		case comp.errMsg != "":
			c.aggErr = fmt.Errorf("ipc: %s: %w", comp.errMsg, ErrRemote)
		default:
			c.aggErr = ErrRemote
		}
	}
	c.compMu.Unlock()
}

// harvest drains the completion aggregate: with pipelined pushes, failures
// surface on the NEXT PushBatch (or Flush) as a BatchError whose Failed
// is per-packet-exact across every batch retired since the last harvest.
func (c *Client) harvest() error {
	c.compMu.Lock()
	failed, err := c.aggFailed, c.aggErr
	c.aggFailed, c.aggErr = 0, nil
	c.compMu.Unlock()
	if failed == 0 {
		return nil
	}
	if err == nil {
		err = ErrRemote
	}
	return &router.BatchError{Failed: int(failed), Err: err}
}

// Flush blocks until every in-flight batch has been acked (or accounted as
// dropped on teardown) and returns the harvested outcome. It works by
// draining the whole credit window, so it also quiesces the pipeline.
func (c *Client) Flush() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	for range c.slots {
		<-c.credits
	}
	// Holding the whole window means holding every slot.
	for _, s := range c.slots {
		c.credits <- s
	}
	return c.harvest()
}

// call performs one synchronous gob request.
func (c *Client) call(m *message) (*message, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	id := c.nextID.Add(1)
	m.ID = id
	ch := c.callPool.Get().(chan *message)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		c.callPool.Put(ch)
		return nil, err
	}
	c.pending[id] = ch
	c.mu.Unlock()
	if err := c.w.send(m); err != nil {
		c.mu.Lock()
		_, mine := c.pending[id]
		if mine {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if !mine {
			<-ch // fail() owned the slot; drain its sentinel before pooling
		}
		c.callPool.Put(ch)
		return nil, fmt.Errorf("ipc: send: %w", err)
	}
	resp := <-ch
	c.callPool.Put(ch)
	if resp == nil {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	if resp.Err != "" {
		if resp.Contained {
			return resp, fmt.Errorf("ipc: %s: %w", resp.Err, ErrContained)
		}
		return resp, fmt.Errorf("ipc: %s: %w", resp.Err, ErrRemote)
	}
	return resp, nil
}

// Instantiate creates a component of typeName in the remote host and
// returns its local stand-in, carrying the netkit.remote annotation that
// satisfies the Router CF's trust-isolation rule. Packet receptacles
// reported by the remote side appear as local receptacles wired through
// the connection.
func (c *Client) Instantiate(name, typeName string, cfg map[string]string) (*RemoteComponent, error) {
	resp, err := c.call(&message{Op: "instantiate", Name: name, Type: typeName, Cfg: cfg})
	if err != nil {
		return nil, err
	}
	rc := &RemoteComponent{
		Base:   core.NewBase(typeName),
		client: c,
		remote: name,
		outs:   make(map[string]*core.Receptacle[router.IPacketPush]),
	}
	rc.SetAnnotation("netkit.remote", "true")
	provided := make(map[string]bool, len(resp.Provided))
	for _, id := range resp.Provided {
		provided[id] = true
	}
	if provided[string(router.IPacketPushID)] {
		rc.Provide(router.IPacketPushID, rc)
	}
	if provided[string(router.IClassifierID)] {
		rc.Provide(router.IClassifierID, rc)
	}
	for _, port := range resp.Receptacles {
		r := core.NewReceptacle[router.IPacketPush](router.IPacketPushID)
		rc.outs[port] = r
		rc.AddReceptacle(port, r)
		if _, err := c.call(&message{Op: "bindout", Name: name, Port: port}); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.remotes[name] = rc
	c.mu.Unlock()
	return rc, nil
}

// RemoteComponent is the in-capsule stand-in for a component hosted in a
// separate address space.
type RemoteComponent struct {
	*core.Base
	client *Client
	remote string

	mu   sync.RWMutex
	outs map[string]*core.Receptacle[router.IPacketPush]

	// stop tears down a transport this stand-in owns (Isolate).
	stop func()

	emitted atomic.Uint64
	lost    atomic.Uint64

	txBatches    atomic.Uint64
	txFrames     atomic.Uint64
	txBytes      atomic.Uint64
	roundtrips   atomic.Uint64
	ackedFrames  atomic.Uint64
	remoteFailed atomic.Uint64
	dropped      atomic.Uint64
	contained    atomic.Uint64
	gobCalls     atomic.Uint64
	emitBatches  atomic.Uint64
	emitBytes    atomic.Uint64
}

var (
	_ core.Component     = (*RemoteComponent)(nil)
	_ router.IPacketPush = (*RemoteComponent)(nil)
	_ router.IClassifier = (*RemoteComponent)(nil)
	_ core.IStats        = (*RemoteComponent)(nil)
)

// PushBatch implements router.IPacketPush: the batch is serialised
// into one binary frame and written in a single vectored-style write,
// pipelined under the client's credit window. The call blocks only when
// the window is full; outcomes of earlier batches surface on later calls
// (or Flush) as a per-packet-exact BatchError.
func (rc *RemoteComponent) PushBatch(batch []*router.Packet) error {
	err := rc.send(batch)
	if herr := rc.client.harvest(); herr != nil {
		return herr
	}
	return err
}

// send commits batch to the wire under one window credit, taking
// ownership of its packets. A batch that cannot be left in flight is
// retired as dropped before send returns ErrClosed or the write error, so
// the next harvest counts it.
func (rc *RemoteComponent) send(batch []*router.Packet) error {
	c := rc.client
	n := uint32(len(batch))
	if n == 0 {
		return nil
	}
	if c.closed.Load() || c.dead.Load() {
		for _, p := range batch {
			p.Release()
		}
		rc.dropped.Add(uint64(n))
		c.retire(completion{failed: n, closed: true})
		return ErrClosed
	}

	// Serialise first (so packets can be released before blocking on
	// credit), one frame: slot | name | count | lens | payloads.
	buf := beginFrame(getFrame(), frameBatch)
	slotOff := len(buf)
	buf = appendU32(buf, 0) // slot id, patched below
	buf = appendStr(buf, rc.remote)
	buf = appendU32(buf, n)
	total := 0
	for _, p := range batch {
		buf = appendU32(buf, uint32(len(p.Data)))
		total += len(p.Data)
	}
	for _, p := range batch {
		buf = append(buf, p.Data...)
		p.Release()
	}
	buf = finishFrame(buf)

	var slot *txSlot
	select {
	case slot = <-c.credits:
	case <-c.done:
		putFrame(buf)
		rc.dropped.Add(uint64(n))
		c.retire(completion{failed: n, closed: true})
		return ErrClosed
	}
	binary.LittleEndian.PutUint32(buf[slotOff:], slot.id)
	slot.owner.Store(rc)
	slot.nbytes.Store(uint64(total))
	slot.frames.Store(n)
	// The frames token is now live: if the read loop died between the
	// dead-check above and here, its sweep may have missed this slot, so
	// re-check and self-sweep — the Swap guarantees exactly one of the
	// sweep, the ack handler, and this path accounts the batch.
	if c.dead.Load() {
		putFrame(buf)
		rc.selfSweep(slot)
		return ErrClosed
	}
	err := c.w.sendRaw(buf)
	putFrame(buf)
	if err != nil {
		rc.selfSweep(slot)
		return fmt.Errorf("ipc: send: %w", err)
	}
	rc.txBatches.Add(1)
	rc.txFrames.Add(uint64(n))
	rc.txBytes.Add(uint64(total))
	return nil
}

// selfSweep retires a slot this sender committed but could not (or should
// not) leave in flight. The frames token makes it a no-op when the ack
// handler or teardown sweep got there first.
func (rc *RemoteComponent) selfSweep(slot *txSlot) {
	c := rc.client
	if f := slot.frames.Swap(0); f > 0 {
		owner := slot.owner.Swap(nil)
		slot.nbytes.Store(0)
		if owner == nil {
			owner = rc
		}
		owner.dropped.Add(uint64(f))
		c.retire(completion{failed: f, closed: true})
		c.credits <- slot
	}
}

// Flush quiesces this stand-in's transport: it blocks until every
// in-flight batch is acked (or accounted dropped) and returns the
// harvested outcome.
func (rc *RemoteComponent) Flush() error { return rc.client.Flush() }

// RegisterFilter implements IClassifier remotely.
func (rc *RemoteComponent) RegisterFilter(spec string, priority int, output string) (uint64, error) {
	rc.gobCalls.Add(1)
	resp, err := rc.client.call(&message{
		Op: "regfilter", Name: rc.remote, Spec: spec, Priority: priority, Output: output,
	})
	if err != nil {
		return 0, err
	}
	return resp.FilterID, nil
}

// UnregisterFilter implements IClassifier remotely.
func (rc *RemoteComponent) UnregisterFilter(id uint64) error {
	rc.gobCalls.Add(1)
	_, err := rc.client.call(&message{Op: "unregfilter", Name: rc.remote, FilterID: id})
	return err
}

// FilterOutputs implements IClassifier remotely.
func (rc *RemoteComponent) FilterOutputs() []string {
	rc.gobCalls.Add(1)
	resp, err := rc.client.call(&message{Op: "outputs", Name: rc.remote})
	if err != nil {
		return nil
	}
	return resp.Outputs
}

// deliverBatch hands a batched emission to the local continuation. The
// callee takes ownership of the packets, not the slice.
func (rc *RemoteComponent) deliverBatch(port string, batch []*router.Packet) {
	n := len(batch)
	if n == 0 {
		return
	}
	total := 0
	for _, p := range batch {
		total += len(p.Data)
	}
	rc.emitBatches.Add(1)
	rc.emitBytes.Add(uint64(total))
	rc.mu.RLock()
	r := rc.outs[port]
	rc.mu.RUnlock()
	var next router.IPacketPush
	ok := false
	if r != nil {
		next, ok = r.Get()
	}
	if !ok {
		rc.lost.Add(uint64(n))
		for _, p := range batch {
			p.Release()
		}
		return
	}
	rc.emitted.Add(uint64(n))
	_ = next.PushBatch(batch)
}

// Emitted reports packets the remote side sent back through bound
// receptacles; Lost reports emissions with no local binding.
func (rc *RemoteComponent) Emitted() uint64 { return rc.emitted.Load() }

// Lost reports emissions that arrived while the local receptacle was
// unbound.
func (rc *RemoteComponent) Lost() uint64 { return rc.lost.Load() }

// Dropped reports frames this stand-in accepted but could not get acked:
// in-flight on teardown, or refused because the transport had died.
func (rc *RemoteComponent) Dropped() uint64 { return rc.dropped.Load() }

// AckedFrames reports frames covered by host acks (delivered or failed
// remotely).
func (rc *RemoteComponent) AckedFrames() uint64 { return rc.ackedFrames.Load() }

// TxFrames reports frames committed to the wire.
func (rc *RemoteComponent) TxFrames() uint64 { return rc.txFrames.Load() }

// Stats implements core.IStats: the IPC lane shows up in the capsule
// stats tree like any shard lane, so nkctl stats and adapt rules see
// isolated components instead of a telemetry hole.
func (rc *RemoteComponent) Stats() []core.Stat {
	trips := rc.roundtrips.Load()
	acked := rc.ackedFrames.Load()
	fpr := 0.0
	if trips > 0 {
		fpr = float64(acked) / float64(trips)
	}
	c := rc.client
	inflight := float64(c.InFlight())
	return []core.Stat{
		core.C("ipc_tx_batches", "batches", rc.txBatches.Load()),
		core.C("ipc_tx_frames", "packets", rc.txFrames.Load()),
		core.C("ipc_tx_bytes", "bytes", rc.txBytes.Load()),
		core.C("ipc_roundtrips", "acks", trips),
		core.C("ipc_acked_frames", "packets", acked),
		core.C("ipc_remote_failed", "packets", rc.remoteFailed.Load()),
		core.C("ipc_dropped", "packets", rc.dropped.Load()),
		core.C("ipc_contained_frames", "packets", rc.contained.Load()),
		core.C("ipc_emitted", "packets", rc.emitted.Load()),
		core.C("ipc_lost", "packets", rc.lost.Load()),
		core.C("ipc_emit_batches", "batches", rc.emitBatches.Load()),
		core.C("ipc_emit_bytes", "bytes", rc.emitBytes.Load()),
		core.C("ipc_gob_calls", "calls", rc.gobCalls.Load()),
		core.G("ipc_window", "batches", float64(c.window)),
		core.GW("ipc_frames_per_roundtrip", "packets", fpr, float64(trips)),
		core.GW("ipc_window_occupancy", "ratio", inflight/float64(c.window), float64(c.window)),
	}
}

// Stop implements core.Stopper for stand-ins that own their transport
// (Blueprint.Isolate): stopping the capsule tears the isolation boundary
// down with it.
func (rc *RemoteComponent) Stop(ctx context.Context) error {
	if rc.stop != nil {
		rc.stop()
	}
	return nil
}

// HostPair wires a Host and Client over an in-memory pipe: the test and
// benchmark configuration standing in for a real two-process deployment
// (the protocol is identical over TCP).
func HostPair(reg *core.ComponentRegistry) (*Client, *Host, func()) {
	a, b := net.Pipe()
	h := NewHost(b, reg)
	serve := resources.NewTask("ipc-host")
	serve.Start(func(context.Context) { _ = h.Serve() })
	c := Dial(a)
	cleanup := func() {
		_ = c.Close()
		_ = h.Close()
		serve.Stop()
	}
	return c, h, cleanup
}
