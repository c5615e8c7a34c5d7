// Package ipc realises §5's isolation mechanism: "untrusted constituents
// can be instantiated, and remotely managed by the parent composite, in a
// separate address-space from the parent ... inter-component bindings in
// this case are transparently realised in terms of OS-level IPC mechanisms
// rather than intra-address space vtables".
//
// A Host owns a private capsule in the isolated domain and serves a wire
// protocol over any net.Conn (net.Pipe in tests, TCP between real
// processes). It runs to completion on the goroutine that reads the conn:
// each frame is decoded, delivered into the hosted component and answered
// before the next is read, so back-pressure reaches the client at the
// transport, and answers come back in request order, so the client pairs
// each answer with the oldest request outstanding, with no request ids.
// gob carries control only — instantiate, bind, filter management.
// Packets have one protocol in each direction: length-prefixed binary
// batch frames pipelined under a credit window (frame.go), and the
// emission frames that stream a hosted component's output back. A
// synchronous crossing is a one-packet PushBatch plus a Flush (E6);
// batching amortises the crossing (E18). The parent side holds a
// RemoteComponent — an ordinary core.Component stand-in whose
// IPacketPush/IClassifier calls cross the wire, and whose receptacles
// deliver packets the remote side emits. A panic inside a hosted
// component is contained by the host and
// surfaces to the caller as an error (crash containment), which E6 checks
// alongside the in-proc/out-of-proc cost gap.
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"netkit/core"
	"netkit/router"
)

// Sentinel errors.
var (
	// ErrRemote wraps an error reported by the remote host.
	ErrRemote = errors.New("ipc: remote error")
	// ErrClosed indicates use of a closed client or host.
	ErrClosed = errors.New("ipc: connection closed")
	// ErrContained indicates a panic inside a hosted component that the
	// host absorbed.
	ErrContained = errors.New("ipc: hosted component crashed (contained)")
)

// message is the gob control frame: a request from the client, or the
// host's response to it. A response carries no id; it answers the oldest
// request the host has not yet answered (see frame.go). Packets never
// pass through it.
type message struct {
	Op string // request: instantiate|bindout|regfilter|unregfilter|outputs

	Name string // component instance name
	Type string
	Cfg  map[string]string
	Port string // receptacle name (bindout)

	Spec     string
	Priority int
	Output   string
	FilterID uint64

	Err         string
	Contained   bool
	Provided    []string
	Receptacles []string
	Outputs     []string
}

// ---------------------------------------------------------------------------
// Host (isolated address space side)

// reflector is the host-side terminus for a hosted component's output: it
// hands emitted packets to the host's emission accumulator, which streams
// them back over the wire as batched 'E' frames.
type reflector struct {
	*core.Base
	h    *Host
	name string
	port string
}

// PushBatch hands every emitted packet to the accumulator, which
// coalesces a hosted component's whole batch into as few wire frames as
// possible.
func (r *reflector) PushBatch(batch []*router.Packet) error {
	failed := 0
	var firstErr error
	for _, p := range batch {
		err := r.h.emitAppend(r.name, r.port, p.Data)
		p.Release()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if failed == 0 {
		return nil
	}
	return &router.BatchError{Failed: failed, Err: firstErr}
}

// emission batching thresholds: flush when the accumulator holds this many
// frames or bytes, with the ack of every delivered batch, and immediately
// while no batch is being delivered (asynchronous emitters must not stall).
const (
	emitMaxFrames = 128
	emitMaxBytes  = 256 << 10
)

// 'E' frames flush below the per-frame packet cap (or this fails to compile).
var _ [maxFramePackets - emitMaxFrames]struct{}

// Host serves one isolated capsule over one connection.
type Host struct {
	capsule *core.Capsule
	w       *wire
	closed  atomic.Bool

	// serve-goroutine state (no locking needed).
	targets  map[string]router.IPacketPush
	lastName string

	// emission accumulator (reflectors append, the serve loop flushes):
	// ebuf holds the host's next write, the pending 'E' frame built in
	// place, then the ack the serve loop appends to it.
	emu        sync.Mutex
	ebuf       []byte
	ename      string
	eport      string
	ecount     int
	ebytes     int
	processing atomic.Bool

	rxBatches       atomic.Uint64
	rxFrames        atomic.Uint64
	rxBytes         atomic.Uint64
	containedFrames atomic.Uint64
	emitBatchN      atomic.Uint64
	emitFrameN      atomic.Uint64
	emitByteN       atomic.Uint64
	gobOps          atomic.Uint64
}

// NewHost creates a host over conn, instantiating components via reg (nil
// uses the process-wide registry).
func NewHost(conn net.Conn, reg *core.ComponentRegistry) *Host {
	opts := []core.CapsuleOption{}
	if reg != nil {
		opts = append(opts, core.WithComponentRegistry(reg))
	}
	return &Host{
		capsule: core.NewCapsule("ipc-host", opts...),
		w:       newWire(conn),
		targets: make(map[string]router.IPacketPush),
	}
}

// Serve processes requests until the connection closes, then closes it so
// the peer is not left waiting. It returns nil on orderly shutdown (EOF /
// closed pipe). The calling goroutine runs each frame to completion —
// decode, deliver, answer — before it reads the next, in arrival order,
// which is what preserves per-flow delivery order across the boundary and
// what lets the client pair answers with requests by order alone.
func (h *Host) Serve() error {
	err := h.serve()
	_ = h.w.conn.Close()
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || h.closed.Load() {
		return nil
	}
	return fmt.Errorf("ipc: host recv: %w", err)
}

// serve reads and answers frames until the connection fails: a gob op
// gets a gob response, a batch an 'A' ack.
func (h *Host) serve() error {
	for {
		kind, err := h.w.readKind()
		if err != nil {
			return err
		}
		switch kind {
		case frameGob:
			m, err := h.w.readGob()
			if err != nil {
				return err
			}
			h.gobOps.Add(1)
			h.processing.Store(true)
			resp := h.handle(m)
			h.emu.Lock()
			h.processing.Store(false)
			_ = h.flushEmitLocked()
			h.emu.Unlock()
			_ = h.w.send(resp)
		case frameBatch:
			if err := h.serveBatch(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ipc: unexpected frame kind %q", kind)
		}
	}
}

// serveBatch decodes one 'B' frame into carved packets, pushes them into
// the hosted component one packet at a time, containing per-packet panics,
// then acks with the exact count of failed packets. The payload lands in
// a refcounted slab and every packet aliases it zero-copy, holding one
// slab reference; the host holds one more until the batch is settled,
// so the slab (and the descriptors riding it) recycles only after both.
// Per-packet delivery (rather than handing the component the whole batch)
// is what keeps the counts exact under a mid-batch crash: the wire
// crossing is already amortised, and the hosted component is entered
// through the same PushBatch the in-proc path uses. The pending emissions
// and the ack leave in one write, emissions first, so by the time the
// client observes a batch outcome its emissions have landed.
func (h *Host) serveBatch() error {
	payload, slab, err := h.w.readPayload(nil)
	if err != nil {
		return err
	}
	r := binReader{b: payload}
	count := int(r.u32())
	nameB := r.bytes(int(r.u16()))
	batch, total, ok := carve(&r, count, slab)
	if !ok {
		return errors.New("ipc: malformed batch frame")
	}
	// Intern the hot name: batches from one binding repeat it every frame.
	if string(nameB) != h.lastName {
		h.lastName = string(nameB)
	}
	h.rxBatches.Add(1)
	h.rxFrames.Add(uint64(len(batch)))
	h.rxBytes.Add(uint64(total))
	h.processing.Store(true)
	failed := 0
	contained := false
	var firstErr string
	dst, err := h.pushTarget(h.lastName)
	if err != nil {
		for _, p := range batch {
			p.Release()
		}
		failed = len(batch)
		firstErr = err.Error()
	} else {
		for rest := batch; len(rest) > 0; {
			n, perr, panicked := pushContained(dst, rest)
			if n == len(rest) {
				break
			}
			failed++
			if panicked {
				contained = true
				h.containedFrames.Add(1)
			}
			if firstErr == "" {
				firstErr = perr.Error()
			}
			rest = rest[n+1:]
		}
	}
	router.PutBatch(batch)
	releaseSlab(slab)
	h.emu.Lock()
	h.processing.Store(false)
	buf := appendAck(h.takeEmitLocked(), uint32(failed), contained, firstErr)
	_ = h.w.sendRaw(buf)
	h.ebuf = buf[:0]
	h.emu.Unlock()
	return nil
}

// pushContained delivers batch one packet at a time until one fails,
// absorbing a panic from hosted code. n packets went in; when n is short
// of the batch, err is about packet n.
func pushContained(dst router.IPacketPush, batch []*router.Packet) (n int, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			panicked = true
			batch[n].Release() // idempotent; the component may have died holding it
		}
	}()
	// Each packet crosses as a one-packet sub-slice of the decoded batch,
	// so a failure is pinned to the packet that caused it.
	for ; n < len(batch); n++ {
		err = dst.PushBatch(batch[n : n+1])
		if err != nil {
			if be, ok := err.(*router.BatchError); ok {
				err = be.Err // the ack carries the component's own error text
			}
			return n, err, false
		}
	}
	return n, nil, false
}

// pushTarget resolves (and caches) a hosted component's IPacketPush.
func (h *Host) pushTarget(name string) (router.IPacketPush, error) {
	if dst, ok := h.targets[name]; ok {
		return dst, nil
	}
	comp, ok := h.capsule.Component(name)
	if !ok {
		return nil, fmt.Errorf("no such component %q", name)
	}
	impl, ok := comp.Provided(router.IPacketPushID)
	if !ok {
		return nil, fmt.Errorf("component %q does not provide IPacketPush", name)
	}
	dst := impl.(router.IPacketPush)
	h.targets[name] = dst
	return dst, nil
}

// emitAppend accumulates one emitted packet for (name, port) straight
// into the pending 'E' frame. Same-key emissions coalesce into one frame;
// a key change, a full frame, the ack of the batch being delivered, or an
// idle host all flush.
func (h *Host) emitAppend(name, port string, data []byte) error {
	h.emu.Lock()
	defer h.emu.Unlock()
	if h.ecount > 0 && (h.ename != name || h.eport != port) {
		if err := h.flushEmitLocked(); err != nil {
			return err
		}
	}
	if h.ecount == 0 {
		h.ename, h.eport = name, port
		h.ebuf = beginFrame(h.ebuf[:0], frameEmit)
		h.ebuf = appendU32(h.ebuf, 0) // count, patched by takeEmitLocked
		h.ebuf = appendStr(appendStr(h.ebuf, name), port)
	}
	h.ebuf = appendU32(h.ebuf, uint32(len(data)))
	h.ebuf = append(h.ebuf, data...)
	h.ecount++
	h.ebytes += len(data)
	if h.ecount >= emitMaxFrames || h.ebytes >= emitMaxBytes || !h.processing.Load() {
		return h.flushEmitLocked()
	}
	return nil
}

// flushEmitLocked writes the pending emissions as one 'E' frame.
func (h *Host) flushEmitLocked() error {
	if h.ecount == 0 {
		return nil
	}
	buf := h.takeEmitLocked()
	err := h.w.sendRaw(buf)
	h.ebuf = buf[:0]
	return err
}

// takeEmitLocked completes the pending 'E' frame and returns ebuf holding
// it, or empty when no emission is pending, and empties the accumulator.
// The caller may append to the result, and stores it back into ebuf once
// written.
func (h *Host) takeEmitLocked() []byte {
	if h.ecount == 0 {
		return h.ebuf[:0]
	}
	binary.LittleEndian.PutUint32(h.ebuf[5:], uint32(h.ecount))
	h.emitBatchN.Add(1)
	h.emitFrameN.Add(uint64(h.ecount))
	h.emitByteN.Add(uint64(h.ebytes))
	h.ecount, h.ebytes = 0, 0
	return finishFrame(h.ebuf, 0)
}

// Close shuts the host down.
func (h *Host) Close() error {
	h.closed.Store(true)
	return h.w.conn.Close()
}

// Stats implements core.IStats for the host side of the lane.
func (h *Host) Stats() []core.Stat {
	return []core.Stat{
		core.C("ipc_host_rx_batches", "batches", h.rxBatches.Load()),
		core.C("ipc_host_rx_frames", "packets", h.rxFrames.Load()),
		core.C("ipc_host_rx_bytes", "bytes", h.rxBytes.Load()),
		core.C("ipc_host_contained_frames", "packets", h.containedFrames.Load()),
		core.C("ipc_host_emit_batches", "batches", h.emitBatchN.Load()),
		core.C("ipc_host_emit_frames", "packets", h.emitFrameN.Load()),
		core.C("ipc_host_emit_bytes", "bytes", h.emitByteN.Load()),
		core.C("ipc_host_gob_ops", "calls", h.gobOps.Load()),
	}
}

// StatsTree implements core.IStatsTree: the host's own wire counters at
// the root, the isolated capsule's components as children — so a stats
// reader on the host side sees through the boundary.
func (h *Host) StatsTree() core.StatNode {
	node := core.CapsuleStats(h.capsule)
	node.Name = "ipc-host"
	node.Stats = h.Stats()
	return node
}

// handle dispatches one control request, containing panics from hosted
// code.
func (h *Host) handle(m *message) (resp *message) {
	resp = &message{}
	defer func() {
		if r := recover(); r != nil {
			resp.Err = fmt.Sprintf("panic: %v", r)
			resp.Contained = true
		}
	}()
	switch m.Op {
	case "instantiate":
		comp, err := h.capsule.Instantiate(m.Name, m.Type, m.Cfg)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		for _, id := range comp.ProvidedIDs() {
			resp.Provided = append(resp.Provided, string(id))
		}
		for _, rn := range comp.ReceptacleNames() {
			r, _ := comp.Receptacle(rn)
			if r.Iface() == router.IPacketPushID {
				resp.Receptacles = append(resp.Receptacles, rn)
			}
		}
		return resp
	case "bindout":
		// Bind the hosted component's named receptacle to a reflector.
		refl := &reflector{
			Base: core.NewBase("netkit.ipc.Reflector"),
			h:    h, name: m.Name, port: m.Port,
		}
		refl.Provide(router.IPacketPushID, refl)
		rname := "refl-" + m.Name + "-" + m.Port
		if err := h.capsule.Insert(rname, refl); err != nil {
			resp.Err = err.Error()
			return resp
		}
		if _, err := h.capsule.Bind(m.Name, m.Port, rname, router.IPacketPushID); err != nil {
			resp.Err = err.Error()
			return resp
		}
		return resp
	case "regfilter":
		cls, err := h.classifier(m.Name)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		id, err := cls.RegisterFilter(m.Spec, m.Priority, m.Output)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.FilterID = id
		return resp
	case "unregfilter":
		cls, err := h.classifier(m.Name)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		if err := cls.UnregisterFilter(m.FilterID); err != nil {
			resp.Err = err.Error()
		}
		return resp
	case "outputs":
		cls, err := h.classifier(m.Name)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Outputs = cls.FilterOutputs()
		return resp
	default:
		resp.Err = fmt.Sprintf("unknown op %q", m.Op)
		return resp
	}
}

func (h *Host) classifier(name string) (router.IClassifier, error) {
	comp, ok := h.capsule.Component(name)
	if !ok {
		return nil, fmt.Errorf("no such component %q", name)
	}
	impl, ok := comp.Provided(router.IClassifierID)
	if !ok {
		return nil, fmt.Errorf("component %q does not provide IClassifier", name)
	}
	return impl.(router.IClassifier), nil
}
