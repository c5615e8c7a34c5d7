// Package osabs is the stratum-1 hardware abstraction of Figure 1: the
// minimal OS-like services a participating node must offer — access to
// network hardware (simulated NICs and real UDP sockets) and efficient
// kernel/user-space packet channels. The paper notes that the nature of
// these services largely determines the QoS capabilities of the strata
// above; the simulated devices therefore expose explicit capacity limits
// and drop counters so the higher strata see realistic back-pressure.
package osabs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// frameRing is the bounded, drop-on-full frame queue under both in-memory
// devices. Neither put nor drainInto ever blocks; mu fences close against
// concurrent puts (putters hold the read side for one batch, close takes
// the write side before closing q), so a put can never panic on a closed
// channel. bell is a capacity-1 doorbell rung whenever a put lands and on
// close: a consumer that found the ring empty sleeps on it and cannot
// miss a frame, because a put after the empty poll leaves a token.
type frameRing struct {
	q    chan []byte
	bell chan struct{}

	mu     sync.RWMutex
	closed bool

	frames atomic.Uint64
	bytes  atomic.Uint64
	drops  atomic.Uint64
}

func newFrameRing(depth int) *frameRing {
	return &frameRing{q: make(chan []byte, depth), bell: make(chan struct{}, 1)}
}

// put enqueues frames in order, dropping (and counting) each one that
// finds the ring full; counters settle once per call. It returns the
// accepted count, with ErrOverflow if any frame was dropped or ErrClosed
// once the ring is closed. The ring retains the frames' bytes.
func (r *frameRing) put(frames ...[]byte) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return 0, ErrClosed
	}
	accepted, bytes := 0, 0
	for _, f := range frames {
		select {
		case r.q <- f:
			accepted++
			bytes += len(f)
		default:
		}
	}
	if accepted > 0 {
		r.frames.Add(uint64(accepted))
		r.bytes.Add(uint64(bytes))
		r.ring()
	}
	if d := len(frames) - accepted; d > 0 {
		r.drops.Add(uint64(d))
		return accepted, ErrOverflow
	}
	return accepted, nil
}

// putCopies is put over copies of frames carved from one slab, so the
// ring holds none of the caller's bytes once it returns.
func (r *frameRing) putCopies(frames [][]byte) (int, error) {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	slab := make([]byte, n)
	cp := buffers.Batches.Get()
	for _, f := range frames {
		c := slab[:len(f):len(f)]
		copy(c, f)
		slab = slab[len(f):]
		cp = append(cp, c)
	}
	accepted, err := r.put(cp...)
	buffers.Batches.Put(cp)
	return accepted, err
}

// drainInto appends up to max queued frames to dst without blocking.
// Frames queued before close still drain in order; once the ring is
// closed and empty it reports ErrClosed.
func (r *frameRing) drainInto(dst [][]byte, max int) ([][]byte, error) {
	for n := 0; n < max; n++ {
		select {
		case f, ok := <-r.q:
			if !ok {
				if n == 0 {
					return dst, ErrClosed
				}
				return dst, nil
			}
			dst = append(dst, f)
		default:
			return dst, nil
		}
	}
	return dst, nil
}

// wait returns once the doorbell rings or ctx ends.
func (r *frameRing) wait(ctx context.Context) {
	select {
	case <-r.bell:
	case <-ctx.Done():
	}
}

// ring leaves a token on the doorbell unless one is already waiting.
func (r *frameRing) ring() {
	select {
	case r.bell <- struct{}{}:
	default:
	}
}

// close shuts the ring (idempotent) and rings the doorbell, so a
// consumer asleep on it wakes to find ErrClosed.
func (r *frameRing) close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.q)
	}
	r.mu.Unlock()
	r.ring()
}

// NIC is a simulated network interface: an RX ring frames arrive on and a
// TX ring the router drains to "the wire". Injection (the traffic source)
// and transmission observe ring capacities, so overload manifests as drops
// exactly where a real device would drop.
type NIC struct {
	name   string
	rx, tx *frameRing
}

// NewNIC creates a device with the given ring depths.
func NewNIC(name string, rxDepth, txDepth int) (*NIC, error) {
	if name == "" {
		return nil, fmt.Errorf("osabs: empty NIC name")
	}
	if rxDepth <= 0 || txDepth <= 0 {
		return nil, fmt.Errorf("osabs: NIC %q ring depths %d/%d", name, rxDepth, txDepth)
	}
	return &NIC{name: name, rx: newFrameRing(rxDepth), tx: newFrameRing(txDepth)}, nil
}

// Name returns the device name.
func (n *NIC) Name() string { return n.name }

// nicErr names the device and ring in a ring error.
func (n *NIC) nicErr(ring string, err error) error {
	if err != nil {
		err = fmt.Errorf("osabs: nic %q %s: %w", n.name, ring, err)
	}
	return err
}

// Inject delivers a frame to the RX ring (the simulated wire side). A full
// ring drops the frame and returns ErrOverflow. The ring retains frame.
func (n *NIC) Inject(frame []byte) error {
	_, err := n.rx.put(frame)
	return n.nicErr("rx", err)
}

// Send queues a frame for transmission; a full TX ring drops it. The ring
// retains frame until DrainTx hands it out.
func (n *NIC) Send(frame []byte) error {
	_, err := n.tx.put(frame)
	return n.nicErr("tx", err)
}

// DrainTx removes one transmitted frame (the simulated wire side);
// ErrEmpty when none.
func (n *NIC) DrainTx() ([]byte, error) {
	var one [1][]byte
	if f, _ := n.tx.drainInto(one[:0], 1); len(f) == 1 {
		return f[0], nil
	}
	return nil, ErrEmpty
}

// Wait implements Device on the RX ring's doorbell.
func (n *NIC) Wait(ctx context.Context) { n.rx.wait(ctx) }

// Close shuts the device. Frames already queued on the RX ring remain
// drainable; subsequent injects, sends and post-drain receives report
// ErrClosed.
func (n *NIC) Close() error {
	n.rx.close()
	n.tx.close()
	return nil
}

// RecvBatchInto implements Device over the RX ring: a non-blocking drain
// of up to max frames. The slab result is always nil — ring frames are
// independently owned. After Close an empty drain reports ErrClosed.
func (n *NIC) RecvBatchInto(dst [][]byte, max int) ([][]byte, *buffers.Buffer, error) {
	dst, err := n.rx.drainInto(dst, max)
	return dst, nil, n.nicErr("rx", err)
}

// SendBatch implements Device over the TX ring: copies of the frames
// queue in order, each observing Send's overflow semantics, with the
// accepted count returned (the remainder were dropped and counted).
func (n *NIC) SendBatch(frames [][]byte) (int, error) {
	sent, err := n.tx.putCopies(frames)
	if errors.Is(err, ErrOverflow) {
		err = nil
	}
	return sent, n.nicErr("tx", err)
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
		RxFrames: n.rx.frames.Load(), TxFrames: n.tx.frames.Load(),
		RxDrops: n.rx.drops.Load(), TxDrops: n.tx.drops.Load(),
		RxBytes: n.rx.bytes.Load(), TxBytes: n.tx.bytes.Load(),
	}
}

// KernelChannel models the "efficient kernel-user space communication
// mechanisms" the Router CF's standard components wrap (§5): a bounded
// SPSC-style frame queue with batch dequeue to amortise crossing costs.
type KernelChannel struct{ r *frameRing }

// NewKernelChannel creates a channel with the given depth.
func NewKernelChannel(depth int) (*KernelChannel, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("osabs: kernel channel depth %d", depth)
	}
	return &KernelChannel{r: newFrameRing(depth)}, nil
}

// Put enqueues a frame; a full queue drops it (counted) — the kernel never
// blocks on user space. The channel retains frame.
func (k *KernelChannel) Put(frame []byte) error {
	_, err := k.r.put(frame)
	return err
}

// PutBatch enqueues frames in order; each one that finds the queue full
// is dropped, exactly as len(frames) Puts would drop it, and ErrOverflow
// says so. Counters are settled once per batch (one atomic op per outcome
// class, not one per frame) — the symmetric amortisation to GetBatchInto.
// It returns the accepted count. The channel retains the frames.
func (k *KernelChannel) PutBatch(frames [][]byte) (int, error) { return k.r.put(frames...) }

// GetBatch dequeues up to max frames without blocking.
func (k *KernelChannel) GetBatch(max int) [][]byte {
	return k.GetBatchInto(nil, max)
}

// GetBatchInto dequeues up to max frames without blocking, appending them
// to dst and returning the extended slice. Passing a recycled slice (e.g.
// from a buffers.BatchPool) makes the crossing allocation-free in the
// steady state — the [:0]-reset pattern callers use with pooled batches.
func (k *KernelChannel) GetBatchInto(dst [][]byte, max int) [][]byte {
	dst, _ = k.r.drainInto(dst, max)
	return dst
}

// Wait implements Device on the channel's doorbell.
func (k *KernelChannel) Wait(ctx context.Context) { k.r.wait(ctx) }

// Close shuts the channel; frames already queued remain drainable.
func (k *KernelChannel) Close() error {
	k.r.close()
	return nil
}

// Name implements Device; kernel channels are anonymous, so every one
// answers to the prefix its stats carry.
func (k *KernelChannel) Name() string { return "kchan" }

// RecvBatchInto implements Device over GetBatchInto. The slab result is
// always nil — channel frames are independently owned. Once the channel
// is closed and drained an empty poll reports ErrClosed.
func (k *KernelChannel) RecvBatchInto(dst [][]byte, max int) ([][]byte, *buffers.Buffer, error) {
	dst, err := k.r.drainInto(dst, max)
	return dst, nil, err
}

// SendBatch implements Device like PutBatch, but queues copies of the
// frames, so the caller may reuse their bytes once it returns.
func (k *KernelChannel) SendBatch(frames [][]byte) (int, error) { return k.r.putCopies(frames) }

// Stats reports (passed, dropped) frames.
func (k *KernelChannel) Stats() (passed, dropped uint64) {
	return k.r.frames.Load(), k.r.drops.Load()
}

// StatList reports the channel counters in the uniform core.Stat
// representation (see NICStats.List).
func (k *KernelChannel) StatList() []core.Stat {
	return []core.Stat{
		core.C("kchan_passed", "frames", k.r.frames.Load()),
		core.C("kchan_drops", "frames", k.r.drops.Load()),
		core.G("kchan_len", "frames", float64(k.Len())),
	}
}

// Len reports queued frames.
func (k *KernelChannel) Len() int { return len(k.r.q) }
