// Package buffers implements the buffer-management component framework
// mentioned in §2/§5 of the paper ("components can also take advantage of
// our existing buffer management CF"). It provides reference-counted
// packet buffers drawn from size-classed pools, zero-copy views, and
// accounting that the resources meta-model can budget against.
package buffers

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Sentinel errors.
var (
	// ErrBufferTooLarge indicates a request above the pool's largest class.
	ErrBufferTooLarge = errors.New("buffers: request exceeds largest size class")
	// ErrDoubleRelease indicates a Release on an already-freed buffer.
	ErrDoubleRelease = errors.New("buffers: release of free buffer")
	// ErrExhausted indicates the pool's capacity limit was reached.
	ErrExhausted = errors.New("buffers: pool exhausted")
)

// Buffer is a reference-counted, pooled byte buffer. The data path hands
// buffers between components without copying; Retain/Release manage
// lifetime across asynchronous hand-offs (queues, out-of-process stubs).
type Buffer struct {
	data []byte // full capacity slab
	n    int    // live length
	refs atomic.Int32
	pool *Pool
	cls  int

	// descs is the packet-descriptor array riding the slab across
	// recycles (see Descs).
	descs any
}

// Bytes returns the live contents. The returned slice aliases the buffer;
// it must not be used after Release.
func (b *Buffer) Bytes() []byte { return b.data[:b.n] }

// Cap returns the slab capacity.
func (b *Buffer) Cap() int { return cap(b.data) }

// Len returns the live length.
func (b *Buffer) Len() int { return b.n }

// SetLen adjusts the live length; it must not exceed Cap.
func (b *Buffer) SetLen(n int) {
	if n < 0 || n > cap(b.data) {
		panic(fmt.Sprintf("buffers: SetLen(%d) outside [0,%d]", n, cap(b.data)))
	}
	b.n = n
	b.data = b.data[:cap(b.data)]
}

// Retain increments the reference count; each Retain requires a matching
// Release.
func (b *Buffer) Retain() { b.refs.Add(1) }

// RetainN adds n references in one atomic step: the batch form used when
// a slab is carved into n frames that will each be released separately.
// RetainN(0) is a no-op; n must not be negative.
func (b *Buffer) RetainN(n int) {
	if n < 0 {
		panic(fmt.Sprintf("buffers: RetainN(%d)", n))
	}
	if n > 0 {
		b.refs.Add(int32(n))
	}
}

// minDescFrame is the smallest frame a descriptor array is sized for:
// 64 B of payload plus a 4 B length prefix.
const minDescFrame = 68

// Descs returns the descriptor array kept with KeepDescs, or nil. It
// stays with the buffer across recycles, the mbuf layout of DPDK's
// mempools: a slab's packet metadata is allocated with it and freed with
// it. The package leaves its type to the carver (router.Packet
// descriptors; osabs cannot import router).
func (b *Buffer) Descs() any { return b.descs }

// KeepDescs attaches d, an array of n descriptors, for later carves to
// reuse, unless n exceeds one descriptor per minimum-size frame the slab
// can hold: retained descriptor memory is bounded by the slab's own
// bytes, whatever a peer sends. Only the carver may call it, before it
// hands any packet on.
func (b *Buffer) KeepDescs(d any, n int) {
	if n <= cap(b.data)/minDescFrame {
		b.descs = d
	}
}

// Refs returns the current reference count (diagnostic).
func (b *Buffer) Refs() int32 { return b.refs.Load() }

// Release drops one reference; on reaching zero the buffer returns to its
// pool. Releasing a free buffer returns ErrDoubleRelease (and leaves the
// pool consistent), because double-release is exactly the class of plug-in
// bug a router CF must survive.
func (b *Buffer) Release() error {
	for {
		cur := b.refs.Load()
		if cur <= 0 {
			return ErrDoubleRelease
		}
		if b.refs.CompareAndSwap(cur, cur-1) {
			if cur == 1 {
				poisonDescs(b)
				b.pool.put(b)
			}
			return nil
		}
	}
}

// CopyFrom replaces the buffer's contents with p, growing n as needed
// within capacity. It returns the number of bytes copied.
func (b *Buffer) CopyFrom(p []byte) int {
	n := copy(b.data[:cap(b.data)], p)
	b.n = n
	return n
}

// Pool is a size-classed buffer pool. Classes are fixed at construction;
// Get rounds requests up to the next class. A Pool with maxLive > 0
// enforces a live-buffer ceiling, the hook the resources meta-model uses
// to budget memory for a task.
type Pool struct {
	classes []int // sorted slab sizes
	free    []chan *Buffer
	maxLive int64

	live     atomic.Int64
	gets     atomic.Uint64
	puts     atomic.Uint64
	misses   atomic.Uint64 // allocations (pool empty)
	failures atomic.Uint64

	mu sync.Mutex // guards nothing hot; reserved for Stats consistency
}

// DefaultClasses is a spread suitable for packet workloads: small control
// packets, typical MTU frames and jumbo frames.
var DefaultClasses = []int{128, 512, 2048, 9216}

// NewPool creates a pool with the given size classes (ascending) and a
// per-class free-list depth. maxLive caps the number of live buffers
// (0 = unlimited).
func NewPool(classes []int, depth int, maxLive int64) (*Pool, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("buffers: no size classes")
	}
	for i := 1; i < len(classes); i++ {
		if classes[i] <= classes[i-1] {
			return nil, fmt.Errorf("buffers: classes must be strictly ascending, got %v", classes)
		}
	}
	if depth < 1 {
		depth = 64
	}
	p := &Pool{
		classes: append([]int(nil), classes...),
		free:    make([]chan *Buffer, len(classes)),
		maxLive: maxLive,
	}
	for i := range p.free {
		p.free[i] = make(chan *Buffer, depth)
	}
	return p, nil
}

// MustNewPool is NewPool panicking on error, for package-level defaults.
func MustNewPool(classes []int, depth int, maxLive int64) *Pool {
	p, err := NewPool(classes, depth, maxLive)
	if err != nil {
		panic(err)
	}
	return p
}

// classFor returns the index of the smallest class >= size, or -1.
func (p *Pool) classFor(size int) int {
	for i, c := range p.classes {
		if size <= c {
			return i
		}
	}
	return -1
}

// Get returns a buffer with at least size capacity and length set to size,
// reference count 1.
func (p *Pool) Get(size int) (*Buffer, error) {
	cls := p.classFor(size)
	if cls < 0 {
		p.failures.Add(1)
		return nil, fmt.Errorf("buffers: %d bytes: %w", size, ErrBufferTooLarge)
	}
	if p.maxLive > 0 && p.live.Load() >= p.maxLive {
		p.failures.Add(1)
		return nil, fmt.Errorf("buffers: live limit %d: %w", p.maxLive, ErrExhausted)
	}
	p.gets.Add(1)
	p.live.Add(1)
	var b *Buffer
	select {
	case b = <-p.free[cls]:
	default:
		p.misses.Add(1)
		b = &Buffer{data: make([]byte, p.classes[cls]), pool: p, cls: cls}
	}
	b.n = size
	b.refs.Store(1)
	return b, nil
}

// put returns a buffer to its free list (or drops it when full).
func (p *Pool) put(b *Buffer) {
	p.puts.Add(1)
	p.live.Add(-1)
	select {
	case p.free[b.cls] <- b:
	default: // free list full; let GC take it
	}
}

// Stats is a point-in-time snapshot of pool counters.
type Stats struct {
	Live     int64  // buffers currently out
	Gets     uint64 // successful Get calls
	Puts     uint64 // buffers returned
	Misses   uint64 // Gets that had to allocate
	Failures uint64 // rejected Gets (too large / exhausted)
}

// Stats returns current counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Live:     p.live.Load(),
		Gets:     p.gets.Load(),
		Puts:     p.puts.Load(),
		Misses:   p.misses.Load(),
		Failures: p.failures.Load(),
	}
}

// Classes returns the configured size classes.
func (p *Pool) Classes() []int {
	return append([]int(nil), p.classes...)
}
