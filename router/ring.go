package router

import "sync/atomic"

// spscRing is the bounded single-producer/single-consumer ring carrying
// packet batches from the ShardedCF dispatcher to one shard worker. The
// ring owns the backing arrays of its slots: enqueue copies the caller's
// batch into a slot array, and dequeue takes back the consumer's previous,
// cleared batch into the slot it frees, so no batch crosses between
// goroutines through a shared pool. The fast path is two atomics per
// hand-off (no locks, no allocation once the arrays are grown); the slow
// path parks on capacity-1 notification channels, so a full ring exerts
// back-pressure on the producer instead of dropping, and an empty ring
// costs the consumer no spinning.
//
// The SPSC discipline is what makes the unsynchronised slot accesses
// correct: exactly one goroutine advances tail (the dispatch side — the
// ShardedCF serialises its producers per shard) and exactly one advances
// head (the shard worker). The producer touches only free slots (tail, and
// head-1, which is free whenever the ring is not full), the consumer only
// full ones (head), and each side reads what the other wrote after loading
// the atomic index the writer stored behind it, so every slot access
// happens-after the last write (and the race detector agrees).
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

// tryEnqueue copies b into a slot array, reporting false when full; b is
// not retained. Producer side only. The copy goes into the array the
// consumer handed back most recently (slot head-1), still warm in cache,
// which is swapped into the tail slot: without the swap the ring would
// cycle through one array per slot, each a whole lap cold.
func (r *spscRing) tryEnqueue(b []*Packet) bool {
	t, h := r.tail.Load(), r.head.Load()
	if t-h > r.mask {
		return false
	}
	warm, slot := (h-1)&r.mask, t&r.mask
	r.buf[warm], r.buf[slot] = r.buf[slot], append(r.buf[warm], b...)
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
	ringBell(r.wake)
}

// tryDequeue pops the oldest batch, reporting false when empty. Consumer
// side only. prev is the consumer's previous batch, which it has finished
// with: it is cleared and left in the freed slot, or handed back emptied
// when there is nothing to pop. The popped batch is the consumer's until
// it passes it back as prev.
func (r *spscRing) tryDequeue(prev []*Packet) ([]*Packet, bool) {
	clear(prev)
	h := r.head.Load()
	if h == r.tail.Load() {
		return prev[:0], false
	}
	b := r.buf[h&r.mask]
	r.buf[h&r.mask] = prev[:0]
	r.head.Store(h + 1)
	ringBell(r.space)
	return b, true
}

// len reports the number of queued batches (approximate under concurrency).
func (r *spscRing) len() int {
	return int(r.tail.Load() - r.head.Load())
}
