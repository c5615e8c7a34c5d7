// Package router implements the paper's stratum-2 Router CF (called the
// Gateway CF in Figures 2 and 3): a component framework that accepts, as
// plug-ins, components performing arbitrary user-defined packet-forwarding
// functions, subject to run-time-checked rules. It also supplies the
// "standard" components the paper mentions — NIC wrappers, kernel-channel
// wrappers, classifiers, protocol recognisers, IPv4/IPv6 header
// processors, queues, link schedulers, shapers and counters.
//
// # The data path
//
// IPacketPush has one method, PushBatch: every component states its
// behaviour once, for a []*Packet batch, amortising the cross-component
// indirect call over the whole batch (DESIGN.md §4). A single packet
// travels as a batch of one.
//
// Ownership on the batch path follows two rules:
//
//   - Packets: a PushBatch callee takes ownership of every packet in the
//     batch — it forwards, queues, or releases each of them.
//   - Slices: the batch slice (and any sub-slice of it) belongs to the
//     caller. A callee must not retain it after returning; components that
//     buffer packets across calls (queues) copy the pointers out. This
//     lets callers recycle batches through GetBatch/PutBatch, keeping the
//     steady state allocation-free. The same rule applies one stratum
//     down to the [][]byte frame batches recycled by internal/buffers.
//
// IPacketPull, the push/pull boundary of Figure 3, likewise has one
// method, PullBatch.
//
// Interception composes with batching: an interceptor chain on a binding
// wraps a PushBatch or PullBatch crossing once (op "PushBatch", args
// [batch]; op "PullBatch", args [dst, max, credit], results [dst]), not
// once per packet — see PacketCount for audit-style per-packet accounting.
package router

import (
	"errors"
	"time"

	"netkit/core"
	"netkit/internal/buffers"
	"netkit/internal/filter"
)

// Sentinel errors.
var (
	// ErrQueueFull indicates a refused enqueue (drop-tail).
	ErrQueueFull = errors.New("router: queue full")
	// ErrStopped indicates a component used outside started state.
	ErrStopped = errors.New("router: component stopped")
)

// Packet is the unit travelling the data path. Data aliases the live
// bytes; when Buf is non-nil the packet owns a pooled buffer that must be
// released by whichever component terminates the packet's life (sink,
// dropper, or queue overflow path). The filter view is extracted lazily
// and cached so a chain of classifiers parses headers once.
//
// A packet minted over a slab (the IPC carve, an arena NIC poll,
// NewPooledPacket) is itself a descriptor riding that slab (SlabPackets):
// it lives exactly as long as its slab reference, and after Release the
// *Packet may already describe another batch's frame. A holder that
// needs a packet past its Release must Clone it first; Clone allocates.
type Packet struct {
	Data   []byte
	Buf    *buffers.Buffer
	InPort string

	// Born is the packet's ingress timestamp on the Nanotime clock, or 0
	// when unstamped. Load generators and latency-aware ingress points
	// stamp it once; latency sinks (the shard egress histograms) record
	// Nanotime()-Born. It rides Clone like the rest of the header.
	Born int64

	view   filter.View
	viewOK bool
}

// NewPacket wraps raw bytes (caller-owned).
func NewPacket(data []byte) *Packet { return &Packet{Data: data} }

// nanotimeEpoch anchors the process-local monotonic clock.
var nanotimeEpoch = time.Now()

// Nanotime returns monotonic nanoseconds since process start: the
// timestamp base for Packet.Born and for the latency histograms. Reading
// the monotonic clock is a few tens of nanoseconds — cheap enough to
// stamp per packet on latency-instrumented paths, and batched recorders
// read it once per batch.
func Nanotime() int64 { return int64(time.Since(nanotimeEpoch)) }

// StatLatency is the uniform name of the latency histogram stat (unit
// "ns"): the shard-lane residence histograms and the adapt SLO
// conditions (P99Above) key on it.
const StatLatency = "latency"

// NewPooledPacket copies data into a buffer drawn from pool.
func NewPooledPacket(pool *buffers.Pool, data []byte) (*Packet, error) {
	b, err := pool.Get(len(data))
	if err != nil {
		return nil, err
	}
	b.CopyFrom(data)
	p := &SlabPackets(b, 1)[0]
	*p = Packet{Data: b.Bytes(), Buf: b}
	return p, nil
}

// descs is the descriptor array a slab keeps across recycles.
type descs []Packet

// SlabPackets returns n descriptors for the packets a carver is minting
// over slab: the slab's own array, allocated on its first carve and
// reused on every later one, or a fresh heap array when n is beyond what
// the slab may keep (buffers.Buffer.KeepDescs). The carver rewrites each
// descriptor in full and settles one slab reference per packet before
// handing any on; a descriptor is valid exactly as long as that
// reference.
func SlabPackets(slab *buffers.Buffer, n int) []Packet {
	if d, ok := slab.Descs().(descs); ok && len(d) >= n {
		return d[:n]
	}
	d := make(descs, n)
	slab.KeepDescs(d, n)
	return d
}

// View returns the cached filter view, extracting it on first use.
func (p *Packet) View() *filter.View {
	if !p.viewOK {
		p.view = filter.Extract(p.Data)
		p.viewOK = true
	}
	return &p.view
}

// InvalidateView discards the cached view after the packet bytes are
// mutated (e.g. TTL decrement changes nothing the view caches, but NAT
// would).
func (p *Packet) InvalidateView() { p.viewOK = false }

// Release returns the packet's pooled buffer, if any. Safe on
// caller-owned packets (no-op).
func (p *Packet) Release() {
	if b := p.Buf; b != nil {
		// Clear first: the last reference recycles the slab, and with it
		// this descriptor, which the next carve may already be writing.
		p.Buf = nil
		_ = b.Release()
	}
}

// Clone returns a new Packet sharing the same bytes (and retaining the
// pooled buffer, when present) so that independent consumers — e.g. the
// outputs of a Tee — each own a releasable reference.
func (p *Packet) Clone() *Packet {
	if p.Buf != nil {
		p.Buf.Retain()
	}
	cl := *p
	return &cl
}

// Interface identities of the Router CF (Figure 2).
const (
	// IPacketPushID identifies the push-oriented packet interface.
	IPacketPushID core.InterfaceID = "netkit.IPacketPush/1"
	// IPacketPullID identifies the pull-oriented packet interface.
	IPacketPullID core.InterfaceID = "netkit.IPacketPull/1"
	// IClassifierID identifies the optional classification interface.
	IClassifierID core.InterfaceID = "netkit.IClassifier/1"
)

// IPacketPush is the push-oriented inter-component packet interface and
// the data plane's one contract. PushBatch delivers the packets in slice
// order; the callee takes ownership of every packet (forwarding it onward,
// queueing it, or releasing it) but must not retain the slice, or any
// sub-slice of it, after returning.
type IPacketPush interface {
	PushBatch(batch []*Packet) error
}

// IPacketPull is the pull-oriented packet interface. PullBatch appends to
// dst, in queue order, packets while fewer than max have moved and byte
// credit remains, and returns the extended slice; each packet costs
// len(p.Data) of the credit, and the packet that exhausts it is still
// taken (DRR's debt carrying). The caller takes ownership of the packets
// appended; an empty source appends nothing.
type IPacketPull interface {
	PullBatch(dst []*Packet, max, credit int) []*Packet
}

// IClassifier is the optional filter-management interface (§5):
// register_filter installs a packet-filter specification routed to a named
// outgoing interface, whose semantics the component must honour.
type IClassifier interface {
	RegisterFilter(spec string, priority int, output string) (uint64, error)
	UnregisterFilter(id uint64) error
	FilterOutputs() []string
}

// ---------------------------------------------------------------------------
// Interface meta-model descriptors (with interception proxies)

type pushProxy struct {
	target IPacketPush
	around core.Around
}

// PushBatch carries the whole batch across the chain as ONE "PushBatch"
// operation (args[0] is the []*Packet), so interceptors pay per batch, not
// per packet.
func (p *pushProxy) PushBatch(batch []*Packet) error {
	out := p.around("PushBatch", []any{batch}, func(args []any) []any {
		return []any{p.target.PushBatch(args[0].([]*Packet))}
	})
	if out[0] == nil {
		return nil
	}
	return out[0].(error)
}

type pullProxy struct {
	target IPacketPull
	around core.Around
}

// PullBatch carries one drain across the chain as ONE "PullBatch"
// operation (args dst, max, credit; results[0] the extended slice).
func (p *pullProxy) PullBatch(dst []*Packet, max, credit int) []*Packet {
	out := p.around("PullBatch", []any{dst, max, credit}, func(args []any) []any {
		return []any{p.target.PullBatch(args[0].([]*Packet), args[1].(int), args[2].(int))}
	})
	if got, ok := out[0].([]*Packet); ok {
		return got
	}
	return dst // an interceptor withheld the call: nothing was taken
}

type classifierProxy struct {
	target IClassifier
	around core.Around
}

func (p *classifierProxy) RegisterFilter(spec string, priority int, output string) (uint64, error) {
	out := p.around("RegisterFilter", []any{spec, priority, output}, func(args []any) []any {
		id, err := p.target.RegisterFilter(args[0].(string), args[1].(int), args[2].(string))
		return []any{id, err}
	})
	var err error
	if out[1] != nil {
		err = out[1].(error)
	}
	return out[0].(uint64), err
}

func (p *classifierProxy) UnregisterFilter(id uint64) error {
	out := p.around("UnregisterFilter", []any{id}, func(args []any) []any {
		return []any{p.target.UnregisterFilter(args[0].(uint64))}
	})
	if out[0] == nil {
		return nil
	}
	return out[0].(error)
}

func (p *classifierProxy) FilterOutputs() []string {
	out := p.around("FilterOutputs", nil, func([]any) []any {
		return []any{p.target.FilterOutputs()}
	})
	if out[0] == nil {
		return nil
	}
	return out[0].([]string)
}

func init() {
	core.Interfaces.MustRegister(&core.Descriptor{
		ID:  IPacketPushID,
		Doc: "push-oriented packet hand-off; callee takes ownership",
		Ops: []core.OpDesc{{Name: "PushBatch", NumIn: 1, NumOut: 1, Doc: "deliver a batch of packets in order"}},
		Check: func(v any) bool {
			_, ok := v.(IPacketPush)
			return ok
		},
		Proxy: func(target any, around core.Around) any {
			return &pushProxy{target: target.(IPacketPush), around: around}
		},
	})
	core.Interfaces.MustRegister(&core.Descriptor{
		ID:  IPacketPullID,
		Doc: "pull-oriented packet hand-off; caller takes ownership",
		Ops: []core.OpDesc{{Name: "PullBatch", NumIn: 3, NumOut: 1, Doc: "drain packets within a count and byte credit"}},
		Check: func(v any) bool {
			_, ok := v.(IPacketPull)
			return ok
		},
		Proxy: func(target any, around core.Around) any {
			return &pullProxy{target: target.(IPacketPull), around: around}
		},
	})
	core.Interfaces.MustRegister(&core.Descriptor{
		ID:  IClassifierID,
		Doc: "filter installation per §5 register_filter semantics",
		Ops: []core.OpDesc{
			{Name: "RegisterFilter", NumIn: 3, NumOut: 2, Doc: "install a filter spec routed to a named output"},
			{Name: "UnregisterFilter", NumIn: 1, NumOut: 1, Doc: "remove an installed filter"},
			{Name: "FilterOutputs", NumIn: 0, NumOut: 1, Doc: "list routable output names"},
		},
		Check: func(v any) bool {
			_, ok := v.(IClassifier)
			return ok
		},
		Proxy: func(target any, around core.Around) any {
			return &classifierProxy{target: target.(IClassifier), around: around}
		},
	})
}
