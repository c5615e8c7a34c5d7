// device.go defines the stratum-1 packet-device contract shared by every
// I/O backend: the simulated NIC and the netsim-fronted kernel channel
// (both over one in-memory frame ring), and the real UDP datapath
// (udp.go). The strata above (router.NICSource / router.NICSink) program
// against this interface only, so swapping a simulation for real
// sockets is a constructor-level decision, not a pipeline rewrite — the
// substitution discipline of DESIGN.md §2.4 applied to the bottom of the
// stack.
package osabs

import (
	"fmt"

	"netkit/core"
	"netkit/internal/buffers"
)

// Device is a batched packet device. All methods are safe for one
// receiver goroutine plus one transmitter goroutine (the NICSource /
// NICSink split); Close may race either.
//
// RecvBatchInto appends up to max received frames to dst and returns the
// extended slice without blocking; an empty poll returns dst unchanged
// with a nil error. The second result is the arena slab backing the
// appended frames: when non-nil, every appended frame aliases the slab
// and the slab's reference count equals the number of appended frames —
// the consumer must release exactly one reference per frame (a
// router.Packet carries the slab as Packet.Buf, so the ordinary
// Packet.Release path settles it). A nil slab means the frames are
// independently owned (heap or ring memory) and need no release.
// After Close, RecvBatchInto drains any frames still queued and then
// reports ErrClosed.
//
// SendBatch queues frames for transmission in order and returns how many
// the device accepted; the remainder were dropped (counted in the device
// stats) the way a full TX ring drops — the caller does not retry.
// Every device is done with the caller's frame bytes when SendBatch
// returns: it has copied them or sent them.
//
// A device may also offer a doorbell, Doorbell() <-chan struct{}, rung
// whenever a frame arrives and on Close (the in-memory NIC and
// KernelChannel do). A receiver whose poll came back empty may sleep on
// it instead of on a timer.
type Device interface {
	// Name returns the device name (the stats-tree and InPort label).
	Name() string
	// RecvBatchInto appends up to max frames to dst; see the contract
	// above.
	RecvBatchInto(dst [][]byte, max int) ([][]byte, *buffers.Buffer, error)
	// SendBatch queues frames in order, returning the accepted count.
	SendBatch(frames [][]byte) (int, error)
	// StatList reports device counters in the uniform core.Stat form.
	StatList() []core.Stat
	// Close shuts the device down; concurrent senders and receivers
	// observe ErrClosed.
	Close() error
}

// FrameArena hands out flat byte slabs for zero-copy RX batches: one
// pooled allocation per batch, carved by the device into per-frame
// slices. Slabs are reference-counted buffers.Buffer values, so released
// frames ride the existing buffer refcount path — when the last packet
// of a batch releases, the whole slab returns to the arena in one step.
type FrameArena struct {
	pool      *buffers.Pool
	frameSize int
	batch     int
}

// NewFrameArena creates an arena cutting batch frames of frameSize bytes
// out of each slab. depth bounds the free-slab list (recycled slabs
// beyond it fall to the GC).
func NewFrameArena(frameSize, batch, depth int) (*FrameArena, error) {
	if frameSize <= 0 || batch <= 0 {
		return nil, fmt.Errorf("osabs: arena frame %d x batch %d", frameSize, batch)
	}
	pool, err := buffers.NewPool([]int{frameSize * batch}, depth, 0)
	if err != nil {
		return nil, err
	}
	return &FrameArena{pool: pool, frameSize: frameSize, batch: batch}, nil
}

// Slab draws one slab (frameSize*batch bytes, refcount 1) from the pool.
// The device that fills it with n frames settles the count to n with
// RetainN(n-1) — or releases it straight back when the poll was empty.
func (a *FrameArena) Slab() (*buffers.Buffer, error) {
	return a.pool.Get(a.frameSize * a.batch)
}

// FrameSize returns the per-frame byte budget.
func (a *FrameArena) FrameSize() int { return a.frameSize }

// Batch returns the frames carved per slab.
func (a *FrameArena) Batch() int { return a.batch }

// Stats exposes the slab pool counters (diagnostic).
func (a *FrameArena) Stats() buffers.Stats { return a.pool.Stats() }

var (
	_ Device = (*NIC)(nil)
	_ Device = (*KernelChannel)(nil)
)

// MmsgSupported reports whether the batched recvmmsg/sendmmsg syscall
// backend is compiled into this binary (Linux on the architectures the
// syscall tables cover). Portable backends work everywhere regardless.
func MmsgSupported() bool { return mmsgSupported }
