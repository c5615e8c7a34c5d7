package ipc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
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
// binary batch frames (see frame.go). Both kinds of request share one
// credit window and one FIFO of outstanding requests: the host answers
// requests in arrival order, so each answer retires the FIFO's head.
type Client struct {
	w      *wire
	closed atomic.Bool
	window int

	mu      sync.Mutex
	remotes map[string]*RemoteComponent
	readErr error // set once, when the read loop ends

	reader *resources.Task // the read loop

	// callPool recycles the channel a synchronous gob call parks on, so
	// the control path stops allocating a channel per call.
	callPool sync.Pool

	// credits is the pipeline window: every outstanding request holds
	// one; acquiring a credit IS the backpressure. outstanding holds those
	// requests in wire order. An entry is filed, under mu, only while
	// readErr is nil, and exactly one party retires it: the reader on its
	// answer, the reader's teardown sweep (which runs after readErr is
	// set, so it sees every entry left), or its sender when the entry was
	// never filed.
	credits     chan struct{}
	outstanding chan pending
	flushMu     sync.Mutex

	// Completion aggregate: acks (and teardown sweeps) that retire failed
	// batches fold their packet count and the first error in here; harvest
	// turns it into the error the NEXT PushBatch/Flush returns.
	compMu    sync.Mutex
	aggFailed uint64
	aggErr    error

	ackScratch [600]byte
}

// pending is one outstanding request: a batch of frames pushed by rc, or
// a gob call whose answer goes to call.
type pending struct {
	rc     *RemoteComponent
	frames uint32
	call   chan *message
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
		w:           newWire(conn),
		window:      window,
		remotes:     make(map[string]*RemoteComponent),
		reader:      resources.NewTask("ipc-reader"),
		credits:     make(chan struct{}, window),
		outstanding: make(chan pending, window),
	}
	c.callPool.New = func() any { return make(chan *message, 1) }
	for i := 0; i < window; i++ {
		c.credits <- struct{}{}
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

// InFlight reports how many requests currently hold a window credit.
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
			p, err := c.next(true)
			if err != nil {
				return err
			}
			p.call <- m
			c.credits <- struct{}{}
		case frameAck:
			payload, slab, err := c.w.readPayload(c.ackScratch[:0])
			if err != nil {
				return err
			}
			err = c.handleAck(payload)
			releaseSlab(slab)
			if err != nil {
				return err
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

// fail is the single teardown path of the read loop. It records the
// terminal error, which stops further filing; closes the conn, so the
// peer sees EOF and a sender blocked writing is freed; and then sweeps
// every entry still outstanding.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || c.closed.Load() {
		c.readErr = ErrClosed
	} else {
		c.readErr = err
	}
	c.mu.Unlock()
	_ = c.w.conn.Close()
	for {
		select {
		case p := <-c.outstanding:
			c.drop(p)
		default:
			return
		}
	}
}

// next pops the FIFO's head for an answer: a gob response when call, else
// an ack. An answer with nothing outstanding, or of the other kind, is a
// protocol error; a head popped for the wrong kind is dropped here, since
// the sweep no longer sees it.
func (c *Client) next(call bool) (pending, error) {
	select {
	case p := <-c.outstanding:
		if (p.call != nil) == call {
			return p, nil
		}
		c.drop(p)
		return p, errors.New("ipc: answer does not match the oldest request")
	default:
		return pending{}, errors.New("ipc: answer with nothing outstanding")
	}
}

// drop retires an entry that will get no answer and returns its credit:
// a batch is accounted as dropped against its sender, a call wakes with a
// nil answer.
func (c *Client) drop(p pending) {
	if p.call != nil {
		p.call <- nil
	} else {
		p.rc.dropped.Add(uint64(p.frames))
		c.retire(completion{failed: p.frames, closed: true})
	}
	c.credits <- struct{}{}
}

// handleAck retires the batch an 'A' frame answers.
func (c *Client) handleAck(payload []byte) error {
	r := binReader{b: payload}
	failed := r.u32()
	flags := r.u8()
	errMsg := r.str()
	if r.err {
		return errors.New("ipc: malformed ack frame")
	}
	p, err := c.next(false)
	if err != nil {
		return err
	}
	rc := p.rc
	rc.roundtrips.Add(1)
	rc.ackedFrames.Add(uint64(p.frames))
	if failed > 0 {
		contained := flags&ackFlagContained != 0
		rc.remoteFailed.Add(uint64(failed))
		if contained {
			rc.contained.Add(uint64(failed))
		}
		c.retire(completion{failed: failed, contained: contained, errMsg: errMsg})
	}
	c.credits <- struct{}{}
	return nil
}

// handleEmit delivers one batched emission frame. It takes ownership of
// slab (nil when payload is heap-owned). Reports false on malformed input.
func (c *Client) handleEmit(payload []byte, slab *buffers.Buffer) bool {
	r := binReader{b: payload}
	count := int(r.u32())
	name := r.str()
	port := r.str()
	batch, _, ok := carve(&r, count, slab)
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
	releaseSlab(slab)
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

// Flush blocks until every outstanding request has been answered (or
// swept on teardown) and returns the harvested outcome. It works by
// draining the whole credit window, so it also quiesces the pipeline.
func (c *Client) Flush() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	for i := 0; i < c.window; i++ {
		<-c.credits
	}
	for i := 0; i < c.window; i++ {
		c.credits <- struct{}{}
	}
	return c.harvest()
}

// post files p at the FIFO's tail and writes its request, frame or the
// gob encoding of m, under one window credit. Filing and writing happen
// under the wire's write lock, so the FIFO's order is the wire's. A
// request that cannot be filed, because the read loop has ended, is
// dropped here and post returns the loop's error. A filed entry is the
// reader's to retire: a failed write closes the conn, and the sweep that
// follows retires it.
func (c *Client) post(p pending, frame []byte, m *message) error {
	<-c.credits
	c.w.wmu.Lock()
	defer c.w.wmu.Unlock()
	var err error
	if m != nil {
		frame, err = c.w.gobFrame(m)
	}
	c.mu.Lock()
	if err == nil {
		err = c.readErr
	}
	if err == nil {
		c.outstanding <- p // never blocks: the credit reserved its room
	}
	c.mu.Unlock()
	if err != nil {
		c.drop(p)
		return err
	}
	if _, err := c.w.conn.Write(frame); err != nil {
		_ = c.w.conn.Close()
		return fmt.Errorf("ipc: send: %w", err)
	}
	return nil
}

// call performs one synchronous gob request.
func (c *Client) call(m *message) (*message, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	ch := c.callPool.Get().(chan *message)
	err := c.post(pending{call: ch}, nil, m)
	resp := <-ch // the answer, or nil from a drop, lands whatever post returned
	c.callPool.Put(ch)
	if err != nil {
		return nil, err
	}
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
	if len(name) > math.MaxUint16 {
		return nil, fmt.Errorf("ipc: component name of %d bytes exceeds the wire's %d", len(name), math.MaxUint16)
	}
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

	// stop tears down a transport this stand-in owns (Isolate,
	// IsolateAt); tasks are that transport's goroutines.
	stop  func()
	tasks []*resources.Task

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

// send commits batch to the wire under one window credit per frame,
// taking ownership of its packets. A frame ends where the next packet
// would pass maxFramePackets or maxFramePayload; each frame is sent and
// accounted however the ones before it fared, and send returns the first
// error. A packet no frame can carry is dropped and counted, not sent,
// so the host never sees a frame it must refuse.
func (rc *RemoteComponent) send(batch []*router.Packet) error {
	var err error
	for len(batch) > 0 {
		// count | name | count × (len | payload)
		k, room := 0, maxFramePayload-6-len(rc.remote)
		for k < len(batch) && k < maxFramePackets && 4+len(batch[k].Data) <= room {
			room -= 4 + len(batch[k].Data)
			k++
		}
		if k == 0 {
			batch[0].Release()
			rc.dropped.Add(1)
			batch = batch[1:]
			continue
		}
		err = cmp.Or(err, rc.sendFrame(batch[:k], maxFramePayload-room))
		batch = batch[k:]
	}
	return err
}

// sendFrame sends batch as one frame with a size-byte payload; see send.
func (rc *RemoteComponent) sendFrame(batch []*router.Packet, size int) error {
	n := uint32(len(batch))
	// Serialise first, so packets are released before blocking on credit.
	fp := getFrame()
	buf := beginFrame(slices.Grow((*fp)[:0], 5+size), frameBatch)
	buf = appendU32(buf, n)
	buf = appendStr(buf, rc.remote)
	total := 0
	for _, p := range batch {
		buf = appendU32(buf, uint32(len(p.Data)))
		buf = append(buf, p.Data...)
		total += len(p.Data)
		p.Release()
	}
	err := rc.client.post(pending{rc: rc, frames: n}, finishFrame(buf, 0), nil)
	putFrame(fp, buf)
	if err != nil {
		return err
	}
	rc.txBatches.Add(1)
	rc.txFrames.Add(uint64(n))
	rc.txBytes.Add(uint64(total))
	return nil
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

// Tasks lists the goroutines of a transport this stand-in owns: the
// client's reader and, under Isolate, the in-process host's serve loop.
func (rc *RemoteComponent) Tasks() []*resources.Task { return rc.tasks }

// HostPair wires a Host and Client over an in-memory pipe: the test and
// benchmark configuration standing in for a real two-process deployment
// (the protocol is identical over TCP).
func HostPair(reg *core.ComponentRegistry) (*Client, *Host, func()) {
	c, h, _, cleanup := hostPair(reg)
	return c, h, cleanup
}

// hostPair is HostPair that also returns the task serving the host.
func hostPair(reg *core.ComponentRegistry) (*Client, *Host, *resources.Task, func()) {
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
	return c, h, serve, cleanup
}
