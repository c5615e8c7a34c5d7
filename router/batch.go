package router

import (
	"errors"
	"fmt"
	"sync"

	"netkit/core"
	"netkit/internal/buffers"
)

// This file is the hub of the batched data path (DESIGN.md §4): the
// IPacketPushBatch capability interface, the two edge adapters between it
// and per-packet code (pushOne inbound, ForwardBatch outbound), and the
// pooled []*Packet scratch batches that keep the steady state
// allocation-free.
//
// Ownership contract: a PushBatch callee takes ownership of every Packet
// in the batch (exactly as Push does for one packet) but NOT of the batch
// slice itself. The slice remains the caller's; the callee must not retain
// it — or any sub-slice of it — after returning. Components that buffer
// packets (queues) copy the pointers out; everyone else forwards within
// the call. This is what lets callers recycle batches through GetBatch/
// PutBatch without handshaking.

// IPacketPushBatch is the data-plane contract. It is not a separate
// binding identity: bindings are still made on IPacketPushID, and a hop
// finds out whether its downstream is a per-packet-only plug-in with a
// type assertion (use ForwardBatch, which does exactly that). A component
// that implements PushBatch must process packets in slice order and must
// also accept single packets via Push.
type IPacketPushBatch interface {
	IPacketPush
	// PushBatch delivers the packets in order. The callee takes ownership
	// of the packets but must not retain the slice after returning.
	PushBatch(batch []*Packet) error
}

// BatchError reports a batch crossing in which Failed packets could not be
// delivered; Err is the first underlying error. It is how the batch path
// keeps per-packet error cardinality: a per-packet caller counts one errs
// per failing packet, so a batch callee that fails k of n packets must say
// k, not 1. A plain (non-BatchError) error from a batch crossing means the
// whole batch failed. errors.Is/As reach Err through Unwrap.
type BatchError struct {
	Failed int
	Err    error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("router: %d packet(s) failed: %v", e.Failed, e.Err)
}

// Unwrap exposes the first underlying error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// FailedPackets interprets a batch-crossing error as a packet count out of
// n: nil means none, a BatchError carries its own count (clamped to [0,n]),
// and any other error means the whole crossing — all n — failed.
func FailedPackets(err error, n int) int {
	if err == nil {
		return 0
	}
	var be *BatchError
	if errors.As(err, &be) {
		if be.Failed < 0 {
			return 0
		}
		if be.Failed > n {
			return n
		}
		return be.Failed
	}
	return n
}

// ForwardBatch delivers batch to dst: whole when dst implements
// IPacketPushBatch, one Push per packet when dst is a per-packet-only
// plug-in. It is the batch → per-packet edge adapter. Later packets are
// still delivered after a failure (the absorb-and-continue discipline of
// the data path); failures are reported as a BatchError so upstream
// accounting stays per-packet-exact.
func ForwardBatch(dst IPacketPush, batch []*Packet) error {
	if bp, ok := dst.(IPacketPushBatch); ok {
		return bp.PushBatch(batch)
	}
	failed := 0
	var firstErr error
	for _, p := range batch {
		if err := dst.Push(p); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if failed == 0 {
		return nil
	}
	return &BatchError{Failed: failed, Err: firstErr}
}

// oneBatches recycles the one-packet batches pushOne hands out, so a
// per-packet Push allocates nothing in the steady state.
var oneBatches = sync.Pool{New: func() any { return new([1]*Packet) }}

// pushOne is the per-packet → batch adapter: every standard element's Push
// is PushBatch of a batch of one. A BatchError about that one packet is
// unwrapped, so per-packet callers see the underlying error.
func pushOne(dst IPacketPushBatch, p *Packet) error {
	one := oneBatches.Get().(*[1]*Packet)
	one[0] = p
	err := dst.PushBatch(one[:])
	one[0] = nil
	oneBatches.Put(one)
	if be, ok := err.(*BatchError); ok {
		return be.Err
	}
	return err
}

// PacketCount reports how many packets an intercepted operation carries:
// len(batch) for a PushBatch crossing, 1 for any other operation. Audit-
// style interceptors use it so a batch of 32 packets counts as 32
// observations even though the chain wrapped the crossing once.
func PacketCount(op string, args []any) int {
	if op == "PushBatch" && len(args) == 1 {
		if b, ok := args[0].([]*Packet); ok {
			return len(b)
		}
	}
	return 1
}

// batchCap is the capacity of pooled packet batches; large enough for the
// biggest batch size the benches drive (128) without reallocation.
const batchCap = 256

var packetBatches = buffers.NewBatchPool[*Packet](batchCap)

// GetBatch returns a zero-length pooled packet batch. Return it with
// PutBatch once every packet in it has been handed off.
func GetBatch() []*Packet { return packetBatches.Get() }

// PutBatch recycles a batch obtained from GetBatch. The caller must have
// relinquished ownership of the packets; PutBatch clears the slice so the
// pool never pins packet memory.
func PutBatch(b []*Packet) { packetBatches.Put(b) }

// forwardBatch pushes batch to the receptacle target and accounts the
// outcome; an unbound receptacle drops (and releases) the whole batch. Errors are per-packet-exact: the failed
// count is read from the downstream's BatchError (whole batch for a plain
// error), errs counts every failing packet, out counts the rest, and the
// returned error is normalised to a BatchError so the next hop up accounts
// the same count. Downstream errors are structural — absent from the
// standard components, which absorb and count problems locally — so this
// path only fires for misbehaving plug-ins.
func (e *elementCounters) forwardBatch(out *core.Receptacle[IPacketPush], batch []*Packet) error {
	if len(batch) == 0 {
		return nil
	}
	next, ok := out.Get()
	if !ok {
		e.dropped.Add(uint64(len(batch)))
		for _, p := range batch {
			p.Release()
		}
		return nil
	}
	err := ForwardBatch(next, batch)
	if err == nil {
		e.out.Add(uint64(len(batch)))
		return nil
	}
	failed := FailedPackets(err, len(batch))
	e.errs.Add(uint64(failed))
	e.out.Add(uint64(len(batch) - failed))
	if _, ok := err.(*BatchError); !ok {
		err = &BatchError{Failed: failed, Err: err}
	}
	return err
}

// batchErrAgg folds the per-run errors of a split batch crossing into one
// BatchError whose Failed is the total failing-packet count, so callers
// see the same cardinality whether the batch crossed whole or in runs.
type batchErrAgg struct {
	failed   int
	firstErr error
}

func (a *batchErrAgg) note(err error, n int) {
	if err == nil {
		return
	}
	a.failed += FailedPackets(err, n)
	if a.firstErr == nil {
		if be, ok := err.(*BatchError); ok && be.Err != nil {
			a.firstErr = be.Err
		} else {
			a.firstErr = err
		}
	}
}

func (a *batchErrAgg) err() error {
	if a.failed == 0 {
		return nil
	}
	return &BatchError{Failed: a.failed, Err: a.firstErr}
}

// splitRuns is the shared demultiplexing scan of the batched classifier
// and protocol recogniser: each packet resolves to a target receptacle
// (nil = drop), and maximal same-target runs are forwarded as sub-slices
// of batch. Per-output order is arrival order.
func (e *elementCounters) splitRuns(batch []*Packet, target func(*Packet) *core.Receptacle[IPacketPush]) error {
	if len(batch) == 0 {
		return nil
	}
	var agg batchErrAgg
	flush := func(t *core.Receptacle[IPacketPush], seg []*Packet) {
		if len(seg) == 0 {
			return
		}
		if t == nil {
			e.dropped.Add(uint64(len(seg)))
			for _, p := range seg {
				p.Release()
			}
			return
		}
		agg.note(e.forwardBatch(t, seg), len(seg))
	}
	run, cur := 0, target(batch[0])
	for i := 1; i < len(batch); i++ {
		if t := target(batch[i]); t != cur {
			flush(cur, batch[run:i])
			run, cur = i, t
		}
	}
	flush(cur, batch[run:])
	return agg.err()
}
