package router

import (
	"errors"
	"fmt"

	"netkit/core"
	"netkit/internal/buffers"
)

// This file is the hub of the batched data path (DESIGN.md §4): the
// error cardinality of a batch crossing, the demultiplexing step of the
// splitting elements, and the pooled []*Packet scratch batches that keep the steady state
// allocation-free. The ownership contract is IPacketPush's: a PushBatch
// callee owns the packets but not the slice, which is what lets callers
// recycle batches through GetBatch/PutBatch without handshaking.

// IPacketPushBatch is another name for IPacketPush, whose one method is
// PushBatch. The batch capability used to be a separate interface; the
// alias keeps code that names it, the bench module among it, compiling.
type IPacketPushBatch = IPacketPush

// BatchError reports a batch crossing in which Failed packets could not be
// delivered; Err is the first underlying error. It is how the batch path
// keeps per-packet error cardinality: a callee that fails k of n packets
// must say k, not 1. A plain (non-BatchError) error from a batch crossing
// means the whole batch failed. errors.Is/As reach Err through Unwrap.
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

// PacketCount reports how many packets an intercepted operation carries:
// len(batch) for a PushBatch crossing, what a PullBatch crossing appended
// to dst (0 without its results, as in a pre-hook), and 1 for any other
// operation. Audit-style interceptors use it so a batch of 32 packets
// counts as 32 observations though the chain wrapped the crossing once.
func PacketCount(op string, args []any, results ...any) int {
	switch op {
	case "PushBatch":
		if len(args) == 1 {
			if b, ok := args[0].([]*Packet); ok {
				return len(b)
			}
		}
	case "PullBatch":
		if len(args) > 0 && len(results) > 0 {
			dst, _ := args[0].([]*Packet)
			got, _ := results[0].([]*Packet)
			return max(len(got)-len(dst), 0)
		}
		return 0
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
	err := next.PushBatch(batch)
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
