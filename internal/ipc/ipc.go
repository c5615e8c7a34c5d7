// Package ipc realises §5's isolation mechanism: "untrusted constituents
// can be instantiated, and remotely managed by the parent composite, in a
// separate address-space from the parent ... inter-component bindings in
// this case are transparently realised in terms of OS-level IPC mechanisms
// rather than intra-address space vtables".
//
// A Host owns a private capsule in the isolated domain and serves a wire
// protocol over any net.Conn (net.Pipe in tests, TCP between real
// processes). gob carries control only — instantiate, bind, filter
// management. Packets have one protocol in each direction: length-prefixed
// binary batch frames pipelined under a credit window (frame.go), and the
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
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"netkit/core"
	"netkit/resources"
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
// host's response carrying the same ID. Packets never pass through it —
// see frame.go.
type message struct {
	ID uint64 // correlation
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
// frames or bytes, at the end of every processed job, and immediately
// while no job is in progress (asynchronous emitters must not stall).
const (
	emitMaxFrames = 128
	emitMaxBytes  = 256 << 10
)

// hostJob is one unit of serialised work: a gob control op or a decoded
// packet batch. A single processor goroutine drains them in arrival order,
// which is what preserves per-flow delivery order across the boundary.
type hostJob struct {
	gob   *message
	slot  uint32
	name  string
	batch []*router.Packet
}

// hostQueueDepth bounds decoded-but-unprocessed batches; beyond it the
// reader stops consuming the conn and backpressure reaches the client's
// credit window through the transport.
const hostQueueDepth = 2 * DefaultWindow

// Host serves one isolated capsule over one connection.
type Host struct {
	capsule *core.Capsule
	w       *wire
	closed  atomic.Bool

	// processor-goroutine state (no locking needed).
	targets  map[string]router.IPacketPush
	lastName string

	// emission accumulator (reflectors append, processor flushes).
	emu        sync.Mutex
	ename      string
	eport      string
	ecount     int
	elens      []int
	edata      []byte
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

// Serve processes requests until the connection closes. It returns nil on
// orderly shutdown (EOF / closed pipe). The calling goroutine decodes
// frames into a bounded work queue; a single processor task executes them
// in order and writes responses, acks and emission frames.
func (h *Host) Serve() error {
	work := make(chan hostJob, hostQueueDepth)
	proc := resources.NewTask("ipc-process")
	proc.Start(func(context.Context) { h.process(work) })
	err := h.readFrames(work)
	close(work)
	proc.Stop() // the processor drains work before it returns
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || h.closed.Load() {
		return nil
	}
	return fmt.Errorf("ipc: host recv: %w", err)
}

// readFrames decodes the inbound stream into jobs.
func (h *Host) readFrames(work chan<- hostJob) error {
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
			work <- hostJob{gob: m}
		case frameBatch:
			job, err := h.readBatch()
			if err != nil {
				return err
			}
			work <- job
		default:
			return fmt.Errorf("ipc: unexpected frame kind %q", kind)
		}
	}
}

// readBatch decodes one 'B' frame into carved packets. The payload lands
// in a refcounted slab and every packet aliases it zero-copy, holding one
// slab reference; the slab recycles when the last packet is released.
func (h *Host) readBatch() (hostJob, error) {
	payload, slab, err := h.w.readPayload(nil)
	if err != nil {
		return hostJob{}, err
	}
	r := binReader{b: payload}
	slot := r.u32()
	nameB := r.bytes(int(r.u16()))
	batch, total, ok := carve(&r, int(r.u32()), slab)
	if !ok {
		return hostJob{}, errors.New("ipc: malformed batch frame")
	}
	// Intern the hot name: batches from one binding repeat it every frame.
	if string(nameB) != h.lastName {
		h.lastName = string(nameB)
	}
	h.rxBatches.Add(1)
	h.rxFrames.Add(uint64(len(batch)))
	h.rxBytes.Add(uint64(total))
	return hostJob{slot: slot, name: h.lastName, batch: batch}, nil
}

// process executes jobs in order: gob ops get a gob response, batches get
// an 'A' ack; buffered emissions flush before either, so by the time the
// client observes a batch outcome its emissions have already landed.
func (h *Host) process(work <-chan hostJob) {
	for job := range work {
		h.processing.Store(true)
		if job.gob != nil {
			h.gobOps.Add(1)
			resp := h.handle(job.gob)
			resp.ID = job.gob.ID
			h.processing.Store(false)
			h.flushEmit()
			_ = h.w.send(resp)
			continue
		}
		h.deliverBatch(job)
		h.processing.Store(false)
	}
}

// deliverBatch pushes a decoded batch into the hosted component one packet
// at a time, containing per-packet panics, then acks with exact delivered/
// failed counts. Per-packet delivery (rather than handing the component
// the whole batch) is what keeps the counts exact under a mid-batch crash:
// the wire crossing is already amortised, and the hosted component is
// entered through the same PushBatch the in-proc path uses.
func (h *Host) deliverBatch(job hostJob) {
	delivered, failed := 0, 0
	contained := false
	var firstErr string
	dst, err := h.pushTarget(job.name)
	if err != nil {
		for _, p := range job.batch {
			p.Release()
		}
		failed = len(job.batch)
		firstErr = err.Error()
	} else {
		for rest := job.batch; len(rest) > 0; {
			n, perr, panicked := pushContained(dst, rest)
			delivered += n
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
	router.PutBatch(job.batch)
	h.processing.Store(false)
	h.flushEmit()
	ack := encodeAck(job.slot, uint32(delivered), uint32(failed), contained, firstErr)
	_ = h.w.sendRaw(ack)
	putFrame(ack)
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

// emitAppend accumulates one emitted packet for (name, port). Same-key
// emissions coalesce into one 'E' frame; a key change, a full buffer, the
// end of the current job, or an idle host all flush.
func (h *Host) emitAppend(name, port string, data []byte) error {
	h.emu.Lock()
	defer h.emu.Unlock()
	if h.ecount > 0 && (h.ename != name || h.eport != port) {
		if err := h.flushEmitLocked(); err != nil {
			return err
		}
	}
	h.ename, h.eport = name, port
	h.elens = append(h.elens, len(data))
	h.edata = append(h.edata, data...)
	h.ecount++
	if h.ecount >= emitMaxFrames || len(h.edata) >= emitMaxBytes || !h.processing.Load() {
		return h.flushEmitLocked()
	}
	return nil
}

func (h *Host) flushEmit() {
	h.emu.Lock()
	_ = h.flushEmitLocked()
	h.emu.Unlock()
}

func (h *Host) flushEmitLocked() error {
	if h.ecount == 0 {
		return nil
	}
	buf := beginFrame(getFrame(), frameEmit)
	buf = appendStr(buf, h.ename)
	buf = appendStr(buf, h.eport)
	buf = appendU32(buf, uint32(h.ecount))
	for _, n := range h.elens {
		buf = appendU32(buf, uint32(n))
	}
	buf = append(buf, h.edata...)
	buf = finishFrame(buf)
	err := h.w.sendRaw(buf)
	putFrame(buf)
	h.emitBatchN.Add(1)
	h.emitFrameN.Add(uint64(h.ecount))
	h.emitByteN.Add(uint64(len(h.edata)))
	h.ecount = 0
	h.elens = h.elens[:0]
	h.edata = h.edata[:0]
	return err
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
