// Package osabs is the stratum-1 hardware abstraction of Figure 1: the
// minimal OS-like services a participating node must offer — access to
// network hardware (simulated NICs), efficient kernel/user-space packet
// channels, and a clock. The paper notes that the nature of these services
// largely determines the QoS capabilities of the strata above; the
// simulated devices therefore expose explicit capacity limits and drop
// counters so the higher strata see realistic back-pressure.
package osabs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netkit/core"
	"netkit/internal/buffers"
)

// Sentinel errors.
var (
	// ErrClosed indicates use of a closed device or channel.
	ErrClosed = errors.New("osabs: closed")
	// ErrEmpty indicates a non-blocking receive found nothing.
	ErrEmpty = errors.New("osabs: empty")
	// ErrOverflow indicates a full ring; the frame was dropped.
	ErrOverflow = errors.New("osabs: ring overflow")
)

// Clock abstracts time for deterministic tests.
type Clock func() time.Time

// NIC is a simulated network interface: an RX ring frames arrive on and a
// TX ring the router drains to "the wire". Injection (the traffic source)
// and transmission observe ring capacities, so overload manifests as drops
// exactly where a real device would drop.
type NIC struct {
	name string
	rx   chan []byte
	tx   chan []byte

	closed atomic.Bool

	rxFrames atomic.Uint64
	txFrames atomic.Uint64
	rxDrops  atomic.Uint64
	txDrops  atomic.Uint64
	rxBytes  atomic.Uint64
	txBytes  atomic.Uint64

	// opMu fences Inject against Close: injectors hold the read side for
	// the duration of one send on rx, Close takes the write side before
	// closing the channel, so a concurrent Inject can never panic on a
	// closed channel (the same discipline netsim uses for Stop-vs-Send).
	opMu      sync.RWMutex
	closeOnce sync.Once
}

// NewNIC creates a device with the given ring depths.
func NewNIC(name string, rxDepth, txDepth int) (*NIC, error) {
	if name == "" {
		return nil, fmt.Errorf("osabs: empty NIC name")
	}
	if rxDepth <= 0 || txDepth <= 0 {
		return nil, fmt.Errorf("osabs: NIC %q ring depths %d/%d", name, rxDepth, txDepth)
	}
	return &NIC{
		name: name,
		rx:   make(chan []byte, rxDepth),
		tx:   make(chan []byte, txDepth),
	}, nil
}

// Name returns the device name.
func (n *NIC) Name() string { return n.name }

// Inject delivers a frame to the RX ring (the simulated wire side). A full
// ring drops the frame and returns ErrOverflow.
func (n *NIC) Inject(frame []byte) error {
	n.opMu.RLock()
	defer n.opMu.RUnlock()
	if n.closed.Load() {
		return fmt.Errorf("osabs: nic %q: %w", n.name, ErrClosed)
	}
	select {
	case n.rx <- frame:
		n.rxFrames.Add(1)
		n.rxBytes.Add(uint64(len(frame)))
		return nil
	default:
		n.rxDrops.Add(1)
		return fmt.Errorf("osabs: nic %q rx: %w", n.name, ErrOverflow)
	}
}

// Recv takes the next received frame without blocking; ErrEmpty when
// idle. After Close, frames already queued still drain in order; once the
// ring is dry it reports ErrClosed (never a nil frame with a nil error).
func (n *NIC) Recv() ([]byte, error) {
	select {
	case f, ok := <-n.rx:
		if !ok {
			return nil, fmt.Errorf("osabs: nic %q: %w", n.name, ErrClosed)
		}
		return f, nil
	default:
		if n.closed.Load() {
			return nil, fmt.Errorf("osabs: nic %q: %w", n.name, ErrClosed)
		}
		return nil, ErrEmpty
	}
}

// RecvBlock blocks for the next frame or channel close.
func (n *NIC) RecvBlock() ([]byte, error) {
	f, ok := <-n.rx
	if !ok {
		return nil, fmt.Errorf("osabs: nic %q: %w", n.name, ErrClosed)
	}
	return f, nil
}

// RecvChan exposes the RX ring for select-based pumps (closed when the NIC
// closes). Consumers must treat it as receive-only.
func (n *NIC) RecvChan() <-chan []byte { return n.rx }

// Send queues a frame for transmission; a full TX ring drops it.
func (n *NIC) Send(frame []byte) error {
	if n.closed.Load() {
		return fmt.Errorf("osabs: nic %q: %w", n.name, ErrClosed)
	}
	select {
	case n.tx <- frame:
		n.txFrames.Add(1)
		n.txBytes.Add(uint64(len(frame)))
		return nil
	default:
		n.txDrops.Add(1)
		return fmt.Errorf("osabs: nic %q tx: %w", n.name, ErrOverflow)
	}
}

// DrainTx removes one transmitted frame (the simulated wire side);
// ErrEmpty when none.
func (n *NIC) DrainTx() ([]byte, error) {
	select {
	case f := <-n.tx:
		return f, nil
	default:
		return nil, ErrEmpty
	}
}

// Close shuts the device. Frames already queued on the RX ring remain
// drainable; subsequent injects and post-drain receives report ErrClosed.
func (n *NIC) Close() error {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		n.opMu.Lock()
		close(n.rx)
		n.opMu.Unlock()
	})
	return nil
}

// RecvBatchInto implements Device over the RX ring: a non-blocking drain
// of up to max frames. The slab result is always nil — channel frames are
// independently owned. After Close an empty drain reports ErrClosed.
func (n *NIC) RecvBatchInto(dst [][]byte, max int) ([][]byte, *buffers.Buffer, error) {
	appended := 0
	for appended < max {
		select {
		case f, ok := <-n.rx:
			if !ok {
				if appended == 0 {
					return dst, nil, fmt.Errorf("osabs: nic %q: %w", n.name, ErrClosed)
				}
				return dst, nil, nil
			}
			dst = append(dst, f)
			appended++
		default:
			return dst, nil, nil
		}
	}
	return dst, nil, nil
}

// SendBatch implements Device over the TX ring: frames queue in order,
// each observing Send's overflow semantics, with the accepted count
// returned (the remainder were dropped and counted).
func (n *NIC) SendBatch(frames [][]byte) (int, error) {
	if n.closed.Load() {
		return 0, fmt.Errorf("osabs: nic %q: %w", n.name, ErrClosed)
	}
	sent := 0
	for _, f := range frames {
		if n.Send(f) == nil {
			sent++
		}
	}
	return sent, nil
}

// StatList implements Device with the counter snapshot in uniform form.
func (n *NIC) StatList() []core.Stat { return n.Stats().List() }

// NICStats is a counter snapshot.
type NICStats struct {
	RxFrames, TxFrames uint64
	RxDrops, TxDrops   uint64
	RxBytes, TxBytes   uint64
}

// List converts the snapshot into the uniform core.Stat representation,
// so stratum-1 device counters flow into the same stats tree as the
// component counters above them.
func (st NICStats) List() []core.Stat {
	return []core.Stat{
		core.C("nic_rx_frames", "frames", st.RxFrames),
		core.C("nic_tx_frames", "frames", st.TxFrames),
		core.C("nic_rx_drops", "frames", st.RxDrops),
		core.C("nic_tx_drops", "frames", st.TxDrops),
		core.C("nic_rx_bytes", "bytes", st.RxBytes),
		core.C("nic_tx_bytes", "bytes", st.TxBytes),
	}
}

// Stats returns the device counters.
func (n *NIC) Stats() NICStats {
	return NICStats{
		RxFrames: n.rxFrames.Load(), TxFrames: n.txFrames.Load(),
		RxDrops: n.rxDrops.Load(), TxDrops: n.txDrops.Load(),
		RxBytes: n.rxBytes.Load(), TxBytes: n.txBytes.Load(),
	}
}

// MultiQueueNIC models a multi-queue device with receive-side scaling:
// N independent RX/TX queue pairs under one device name, each queue an
// ordinary NIC so the strata above wrap queues exactly like single-queue
// devices (one NICSource per queue feeds one pipeline replica). The wire
// side steers frames with InjectRSS, which — like hardware RSS — applies a
// caller-supplied flow hash so one flow always lands on one queue and
// keeps its arrival order there.
type MultiQueueNIC struct {
	name   string
	queues []*NIC
}

// NewMultiQueueNIC creates a device with the given queue count and
// per-queue ring depths. Queues are named "<name>:q<i>".
func NewMultiQueueNIC(name string, queues, rxDepth, txDepth int) (*MultiQueueNIC, error) {
	if queues < 1 {
		return nil, fmt.Errorf("osabs: NIC %q needs >=1 queue, got %d", name, queues)
	}
	m := &MultiQueueNIC{name: name, queues: make([]*NIC, queues)}
	for i := range m.queues {
		q, err := NewNIC(fmt.Sprintf("%s:q%d", name, i), rxDepth, txDepth)
		if err != nil {
			return nil, err
		}
		m.queues[i] = q
	}
	return m, nil
}

// Name returns the device name.
func (m *MultiQueueNIC) Name() string { return m.name }

// Queues returns the queue count.
func (m *MultiQueueNIC) Queues() int { return len(m.queues) }

// Queue returns queue i as an ordinary NIC.
func (m *MultiQueueNIC) Queue(i int) *NIC { return m.queues[i] }

// InjectRSS delivers a frame to the queue selected by hash%queues — the
// simulated wire side of receive-side scaling. Overflow semantics are the
// selected queue's (a full ring drops and returns ErrOverflow).
func (m *MultiQueueNIC) InjectRSS(frame []byte, hash uint32) error {
	return m.queues[int(hash%uint32(len(m.queues)))].Inject(frame)
}

// Close shuts every queue.
func (m *MultiQueueNIC) Close() error {
	for _, q := range m.queues {
		_ = q.Close()
	}
	return nil
}

// Stats aggregates the per-queue counters.
func (m *MultiQueueNIC) Stats() NICStats {
	var agg NICStats
	for _, q := range m.queues {
		st := q.Stats()
		agg.RxFrames += st.RxFrames
		agg.TxFrames += st.TxFrames
		agg.RxDrops += st.RxDrops
		agg.TxDrops += st.TxDrops
		agg.RxBytes += st.RxBytes
		agg.TxBytes += st.TxBytes
	}
	return agg
}

// KernelChannel models the "efficient kernel-user space communication
// mechanisms" the Router CF's standard components wrap (§5): a bounded
// SPSC-style frame queue with batch dequeue to amortise crossing costs.
type KernelChannel struct {
	q      chan []byte
	closed atomic.Bool
	once   sync.Once
	drops  atomic.Uint64
	passed atomic.Uint64

	// opMu fences Put/PutBatch against Close (see NIC.opMu).
	opMu sync.RWMutex
}

// NewKernelChannel creates a channel with the given depth.
func NewKernelChannel(depth int) (*KernelChannel, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("osabs: kernel channel depth %d", depth)
	}
	return &KernelChannel{q: make(chan []byte, depth)}, nil
}

// Put enqueues a frame; a full queue drops it (counted) — the kernel never
// blocks on user space.
func (k *KernelChannel) Put(frame []byte) error {
	k.opMu.RLock()
	defer k.opMu.RUnlock()
	if k.closed.Load() {
		return ErrClosed
	}
	select {
	case k.q <- frame:
		k.passed.Add(1)
		return nil
	default:
		k.drops.Add(1)
		return ErrOverflow
	}
}

// PutBatch enqueues frames in order, stopping at the first overflow-free
// prefix the queue can hold; the remainder is dropped, exactly as
// len(frames) Puts would drop it. Counters are settled once per batch
// (one atomic op per outcome class, not one per frame) — the symmetric
// amortisation to GetBatchInto. It returns the accepted count.
func (k *KernelChannel) PutBatch(frames [][]byte) (int, error) {
	k.opMu.RLock()
	defer k.opMu.RUnlock()
	if k.closed.Load() {
		return 0, ErrClosed
	}
	accepted := 0
	for _, f := range frames {
		select {
		case k.q <- f:
			accepted++
		default:
		}
	}
	if accepted > 0 {
		k.passed.Add(uint64(accepted))
	}
	if d := len(frames) - accepted; d > 0 {
		k.drops.Add(uint64(d))
	}
	if accepted < len(frames) {
		return accepted, ErrOverflow
	}
	return accepted, nil
}

// GetBatch dequeues up to max frames without blocking.
func (k *KernelChannel) GetBatch(max int) [][]byte {
	return k.GetBatchInto(nil, max)
}

// GetBatchInto dequeues up to max frames without blocking, appending them
// to dst and returning the extended slice. Passing a recycled slice (e.g.
// from a buffers.BatchPool) makes the crossing allocation-free in the
// steady state — the [:0]-reset pattern callers use with pooled batches.
func (k *KernelChannel) GetBatchInto(dst [][]byte, max int) [][]byte {
	for n := 0; n < max; n++ {
		select {
		case f, ok := <-k.q:
			if !ok {
				return dst
			}
			dst = append(dst, f)
		default:
			return dst
		}
	}
	return dst
}

// Close shuts the channel; frames already queued remain drainable.
func (k *KernelChannel) Close() error {
	k.once.Do(func() {
		k.closed.Store(true)
		k.opMu.Lock()
		close(k.q)
		k.opMu.Unlock()
	})
	return nil
}

// Name implements Device; kernel channels are anonymous, so every one
// answers to the prefix its stats carry.
func (k *KernelChannel) Name() string { return "kchan" }

// RecvBatchInto implements Device over GetBatchInto. The slab result is
// always nil — channel frames are independently owned. Once the channel
// is closed and drained an empty poll reports ErrClosed.
func (k *KernelChannel) RecvBatchInto(dst [][]byte, max int) ([][]byte, *buffers.Buffer, error) {
	n := len(dst)
	dst = k.GetBatchInto(dst, max)
	if len(dst) == n && k.closed.Load() && len(k.q) == 0 {
		return dst, nil, ErrClosed
	}
	return dst, nil, nil
}

// SendBatch implements Device over PutBatch: the refused tail of a full
// queue was dropped and counted, and ErrOverflow says so.
func (k *KernelChannel) SendBatch(frames [][]byte) (int, error) { return k.PutBatch(frames) }

// Stats reports (passed, dropped) frames.
func (k *KernelChannel) Stats() (passed, dropped uint64) {
	return k.passed.Load(), k.drops.Load()
}

// StatList reports the channel counters in the uniform core.Stat
// representation (see NICStats.List).
func (k *KernelChannel) StatList() []core.Stat {
	return []core.Stat{
		core.C("kchan_passed", "frames", k.passed.Load()),
		core.C("kchan_drops", "frames", k.drops.Load()),
		core.G("kchan_len", "frames", float64(len(k.q))),
	}
}

// Len reports queued frames.
func (k *KernelChannel) Len() int { return len(k.q) }
