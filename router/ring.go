package router

import "sync/atomic"

// spscRing is the bounded single-producer/single-consumer ring carrying
// pooled packet batches from the ShardedCF dispatcher to one shard worker.
// The fast path is two atomics per hand-off (no locks, no allocation); the
// slow path parks on capacity-1 notification channels, so a full ring
// exerts back-pressure on the producer instead of dropping, and an empty
// ring costs the consumer no spinning.
//
// The SPSC discipline is what makes the unsynchronised slot accesses
// correct: exactly one goroutine advances tail (the dispatch side — the
// ShardedCF serialises its producers per shard) and exactly one advances
// head (the shard worker). Slot hand-off synchronises through the atomic
// tail/head stores, so the consumer's read of buf[i] happens-after the
// producer's write (and the race detector agrees).
type spscRing struct {
	buf  [][]*Packet
	mask uint64

	// head and tail are padded onto separate cache lines: the consumer
	// writes head while the producer writes tail on another core, and
	// co-resident counters would ping-pong one line between cores on
	// every hand-off — the false sharing a multi-core data plane exists
	// to avoid.
	_    [56]byte
	head atomic.Uint64 // next slot to dequeue; advanced only by the consumer
	_    [56]byte
	tail atomic.Uint64 // next slot to enqueue; advanced only by the producer
	_    [56]byte

	wake  chan struct{} // producer -> consumer: ring became non-empty
	space chan struct{} // consumer -> producer: ring gained capacity

	// stalls counts enqueues that found the ring full and had to park —
	// the back-pressure signal the stats tree exposes per lane, and the
	// load indicator shard-scaling adaptation rules key on.
	stalls atomic.Uint64
}

// newSPSCRing creates a ring with capacity rounded up to a power of two
// (minimum 2) so index wrap is a mask.
func newSPSCRing(depth int) *spscRing {
	capacity := 2
	for capacity < depth {
		capacity <<= 1
	}
	return &spscRing{
		buf:   make([][]*Packet, capacity),
		mask:  uint64(capacity - 1),
		wake:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
	}
}

// tryEnqueue appends b, reporting false when full. Producer side only.
func (r *spscRing) tryEnqueue(b []*Packet) bool {
	t := r.tail.Load()
	if t-r.head.Load() > r.mask {
		return false
	}
	r.buf[t&r.mask] = b
	r.tail.Store(t + 1)
	return true
}

// enqueue blocks until b is accepted. Producer side only; the caller
// guarantees the consumer keeps draining while it waits. A full ring
// counts one stall per enqueue call, however many wait rounds it takes.
func (r *spscRing) enqueue(b []*Packet) {
	stalled := false
	for !r.tryEnqueue(b) {
		if !stalled {
			stalled = true
			r.stalls.Add(1)
		}
		<-r.space
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// tryDequeue pops the oldest batch, reporting false when empty. Consumer
// side only.
func (r *spscRing) tryDequeue() ([]*Packet, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil, false
	}
	b := r.buf[h&r.mask]
	r.buf[h&r.mask] = nil
	r.head.Store(h + 1)
	select {
	case r.space <- struct{}{}:
	default:
	}
	return b, true
}

// len reports the number of queued batches (approximate under concurrency).
func (r *spscRing) len() int {
	return int(r.tail.Load() - r.head.Load())
}
