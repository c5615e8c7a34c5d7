package buffers

import "sync"

// BatchPool recycles batch slices for the batched fast path (DESIGN.md
// §4). One generic implementation serves both strata: stratum-1 ingress
// dequeues [][]byte frame batches from devices, and the router pipeline
// recycles []*Packet batches (via router.GetBatch/PutBatch), so neither
// pump allocates a fresh header-and-backing array per poll in the steady
// state.
//
// Ownership mirrors the router's batch rule: the batch slice belongs to
// whoever Got it; the elements inside follow their own lifetime (callee
// takes ownership on hand-off). Put clears the slice so the pool never
// pins element memory.
//
// A sync.Pool holds pointers, so a batch is parked in a *[]T box. Get
// hands the emptied box to a second pool and Put takes it back from
// there, so a Get/Put round trip allocates nothing in the steady state.
type BatchPool[T any] struct {
	size  int
	pool  sync.Pool // boxes holding a recycled batch
	boxes sync.Pool // empty boxes, for Put to reuse
}

// NewBatchPool creates a pool of batches with the given capacity
// (elements per batch). Batches that outgrow the capacity are still
// recycled — the grown backing array simply replaces the original.
func NewBatchPool[T any](size int) *BatchPool[T] {
	if size <= 0 {
		size = 256
	}
	bp := &BatchPool[T]{size: size}
	bp.pool.New = func() any {
		b := make([]T, 0, bp.size)
		return &b
	}
	return bp
}

// Get returns a zero-length batch with at least the pool's configured
// capacity.
func (bp *BatchPool[T]) Get() []T {
	box := bp.pool.Get().(*[]T)
	b := (*box)[:0]
	*box = nil
	bp.boxes.Put(box)
	return b
}

// Put recycles a batch obtained from Get, clearing element references.
func (bp *BatchPool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	clear(b[:cap(b)])
	box, _ := bp.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = b[:0]
	bp.pool.Put(box)
}

// Size returns the configured elements-per-batch capacity.
func (bp *BatchPool[T]) Size() int { return bp.size }

// Batches is the package-default frame-batch pool, sized for the largest
// batch the benchmarks drive (128) with headroom.
var Batches = NewBatchPool[[]byte](256)
