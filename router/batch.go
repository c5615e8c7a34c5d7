package router

import (
	"errors"
	"fmt"
	"sync"

	"netkit/core"
	"netkit/internal/buffers"
)

// This file is the hub of the batched data path (DESIGN.md §4): the
// IPacketPushBatch capability interface, the edge adapters between it and
// per-packet code (pushOne inbound, ForwardBatch outbound, pullBatch on
// the pull side), the demultiplexing step of the splitting elements, and
// the pooled []*Packet scratch batches that keep the steady state
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

// batchPuller is the pull side's batch capability: the queues implement
// it (queueCore.PullBatch), and pullBatch finds it by type assertion.
type batchPuller interface {
	PullBatch(dst []*Packet, max, credit int) []*Packet
}

// pullBatch appends to dst up to max packets from src while byte credit
// remains, and returns the extended slice and the credit left (each packet
// costs len(p.Data); the one that exhausts the credit is still taken). It
// is the pull-side mirror of ForwardBatch: one PullBatch — one lock — when
// src drains in batches, one Pull per packet when src is a per-packet-only
// plug-in or an intercepted binding. Both stop at the first empty pull, so
// the caller cannot tell which path ran.
func pullBatch(src IPacketPull, dst []*Packet, max, credit int) ([]*Packet, int) {
	if bp, ok := src.(batchPuller); ok {
		n := len(dst)
		dst = bp.PullBatch(dst, max, credit)
		for _, p := range dst[n:] {
			credit -= len(p.Data)
		}
		return dst, credit
	}
	for ; max > 0 && credit > 0; max-- {
		p, err := src.Pull()
		if err != nil || p == nil {
			break
		}
		dst = append(dst, p)
		credit -= len(p.Data)
	}
	return dst, credit
}

// forwardBatch pushes batch to the receptacle target and accounts the
// outcome; a nil or unbound receptacle drops (and releases) the whole
// batch. Errors are per-packet-exact: the failed
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
	var next IPacketPush
	ok := false
	if out != nil {
		next, ok = out.Get()
	}
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

// batchErrAgg folds the per-crossing errors of a split batch into one
// BatchError whose Failed is the total failing-packet count, so callers
// see the same cardinality whether the batch crossed whole or in parts.
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

// demuxChunk bounds how many packets a splitting element routes at a time,
// and so the size of its stack-resident routing tables.
const demuxChunk = 64

// scatter is the forwarding step the batched classifier and protocol
// recogniser share. They route a batch in chunks of at most demuxChunk:
// slot[i] is chunk[i]'s output slot and to[s] the receptacle slot s stands
// for (nil = drop); distinct slots must be distinct receptacles. A stable
// counting sort into one pooled scratch then sends each slot's packets as
// ONE sub-batch in arrival order — one binding crossing, and one queue
// lock behind it, per output rather than per run of equal outputs.
// Packets of different outputs are not interleaved. A chunk with a single
// output is forwarded as it is, without the copy. Failures fold into agg.
func (e *elementCounters) scatter(chunk []*Packet, slot []uint8, to []*core.Receptacle[IPacketPush], agg *batchErrAgg) {
	var start [demuxChunk + 1]int // start[s]: where slot s begins in the sorted batch
	for _, s := range slot {
		start[s+1]++
	}
	for s := range to {
		if start[s+1] == len(chunk) {
			agg.note(e.forwardBatch(to[s], chunk), len(chunk))
			return
		}
		start[s+1] += start[s]
	}
	sorted := append(GetBatch(), chunk...) // sized; every slot is overwritten
	next := start
	for i, p := range chunk {
		sorted[next[slot[i]]] = p
		next[slot[i]]++
	}
	for s, r := range to {
		sub := sorted[start[s]:start[s+1]]
		agg.note(e.forwardBatch(r, sub), len(sub))
	}
	PutBatch(sorted)
}
