package router

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netkit/core"
	"netkit/internal/buffers"
	"netkit/internal/osabs"
)

// PumpConfig tunes a NICSource's receive pump.
type PumpConfig struct {
	// Batch bounds the frames drained per poll/delivery round
	// (default nicSourceBatch).
	Batch int
	// Spin is the busy-poll budget: how many consecutive empty polls the
	// pump burns (yielding the OS thread, not sleeping) before parking.
	// 0 parks immediately on the first empty poll.
	Spin int
}

// pumpPark is how long an exhausted pump over a device without a
// doorbell sleeps before polling again. It is a timer request, not a
// bound: the OS rounds short sleeps up to its timer slack, and a 50µs
// park has been measured at about 1ms on a loaded 2-vCPU VM. A pump that
// must wake faster after an idle period needs a Spin budget.
const pumpPark = 50 * time.Microsecond

// NICSource is a standard component wrapping a stratum-1 device's receive
// side (§5: "'standard' components that interface to network cards"). Its
// pump turns frames into packets — optionally copied into pooled buffers —
// and pushes them downstream. Any osabs.Device works: one polling pump
// drains batches with a spin-then-park idle policy, parking on the
// device's doorbell when it has one (the in-memory devices) and on a
// timer otherwise (UDP sockets).
type NICSource struct {
	*core.Base
	elementCounters
	dev  osabs.Device
	pool *buffers.Pool // nil = wrap frames without copying
	cfg  PumpConfig
	out  *core.Receptacle[IPacketPush]

	spins atomic.Uint64 // empty polls burned inside the spin budget
	parks atomic.Uint64 // times the pump gave up spinning and slept

	mu   sync.Mutex
	quit chan struct{}
	done chan struct{}
}

// NewNICSource wraps an existing device with default pump tuning. pool may
// be nil; it is ignored for arena-backed receive batches, which already
// carry pooled refcounted storage.
func NewNICSource(dev osabs.Device, pool *buffers.Pool) (*NICSource, error) {
	return NewNICSourcePump(dev, pool, PumpConfig{})
}

// NewNICSourcePump wraps an existing device with explicit pump tuning.
func NewNICSourcePump(dev osabs.Device, pool *buffers.Pool, cfg PumpConfig) (*NICSource, error) {
	if dev == nil {
		return nil, fmt.Errorf("router: nil device")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = nicSourceBatch
	}
	if cfg.Spin < 0 {
		cfg.Spin = 0
	}
	s := &NICSource{Base: core.NewBase(TypeNICSource), dev: dev, pool: pool, cfg: cfg}
	s.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	s.AddReceptacle("out", s.out)
	s.SetAnnotation("netkit.device", dev.Name())
	return s, nil
}

// Device returns the wrapped device.
func (s *NICSource) Device() osabs.Device { return s.dev }

// Start implements core.Starter.
func (s *NICSource) Start(context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quit != nil {
		return nil
	}
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	go s.pollPump(s.quit, s.done)
	return nil
}

// Stop implements core.Stopper.
func (s *NICSource) Stop(context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quit == nil {
		return nil
	}
	close(s.quit)
	<-s.done
	s.quit, s.done = nil, nil
	return nil
}

// nicSourceBatch bounds the opportunistic RX drain per delivery round.
const nicSourceBatch = 64

// pollPump is the device receive loop: batched non-blocking RecvBatchInto
// polls with a spin-then-park idle policy. A busy device moves whole
// batches per poll (one syscall on the mmsg backend); an idle one burns
// its spin budget keeping the core hot — the DPDK-style busy-poll trade —
// then parks. A device with a doorbell parks until it rings, so an idle
// in-memory source costs nothing and wakes at once; any other parks for
// pumpPark on one reused timer.
func (s *NICSource) pollPump(quit, done chan struct{}) {
	defer close(done)
	var bell <-chan struct{} // stays nil (never ready) without a doorbell
	if d, ok := s.dev.(interface{ Doorbell() <-chan struct{} }); ok {
		bell = d.Doorbell()
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	frames := buffers.Batches.Get()
	pkts := GetBatch()
	// Deferred closures, not bound arguments: both slices are reassigned
	// when a batch outgrows the pooled capacity.
	defer func() {
		buffers.Batches.Put(frames)
		PutBatch(pkts)
	}()
	spun := 0
	for {
		select {
		case <-quit:
			return
		default:
		}
		var slab *buffers.Buffer
		var err error
		frames, slab, err = s.dev.RecvBatchInto(frames[:0], s.cfg.Batch)
		if len(frames) == 0 {
			if err != nil {
				return // closed and drained
			}
			if spun < s.cfg.Spin {
				spun++
				s.spins.Add(1)
				runtime.Gosched()
				continue
			}
			s.parks.Add(1)
			if bell == nil {
				timer.Reset(pumpPark)
			}
			select {
			case <-quit:
				return
			case <-bell:
			case <-timer.C:
			}
			spun = 0
			continue
		}
		spun = 0
		s.in.Add(uint64(len(frames)))
		pkts = pkts[:0]
		for _, f := range frames {
			if p := s.mint(f, slab); p != nil {
				pkts = append(pkts, p)
			}
		}
		_ = s.forwardBatch(s.out, pkts)
		// Clear both scratches so an idle source pins neither the
		// handed-off packets nor their frame bytes between polls.
		for i := range pkts {
			pkts[i] = nil
		}
		for i := range frames {
			frames[i] = nil
		}
		if err != nil && errors.Is(err, osabs.ErrClosed) {
			return // closed mid-drain: the batch above was the tail
		}
	}
}

// mint turns one polled frame into a Packet, or nil for a drop. Arena
// frames (slab != nil) already hold one slab reference each, so the
// packet adopts it zero-copy and its Release decrements the slab;
// otherwise the pool path copies (dropping on pool exhaustion) and the
// nil-pool path wraps without copying.
func (s *NICSource) mint(f []byte, slab *buffers.Buffer) *Packet {
	var p *Packet
	switch {
	case slab != nil:
		p = &Packet{Data: f, Buf: slab}
	case s.pool != nil:
		pp, err := NewPooledPacket(s.pool, f)
		if err != nil {
			s.dropped.Add(1)
			return nil
		}
		p = pp
	default:
		p = NewPacket(f)
	}
	p.InPort = s.dev.Name()
	return p
}

// Stats implements core.IStats, folding in the wrapped device's stratum-1
// counters plus the pump's busy-poll telemetry.
func (s *NICSource) Stats() []core.Stat {
	out := append(s.statList(),
		core.C("pump_spins", "polls", s.spins.Load()),
		core.C("pump_parks", "sleeps", s.parks.Load()),
	)
	return append(out, s.dev.StatList()...)
}

// ---------------------------------------------------------------------------
// NICSink

// NICSink wraps a device's transmit side: packets pushed into it leave
// the router. TX refusal (ring overflow, socket buffer pressure) counts
// as a drop.
type NICSink struct {
	*core.Base
	elementCounters
	dev osabs.Device
}

// NewNICSink wraps an existing device.
func NewNICSink(dev osabs.Device) (*NICSink, error) {
	if dev == nil {
		return nil, fmt.Errorf("router: nil device")
	}
	s := &NICSink{Base: core.NewBase(TypeNICSink), dev: dev}
	s.Provide(IPacketPushID, s)
	s.SetAnnotation("netkit.device", dev.Name())
	return s, nil
}

// Device returns the wrapped device.
func (s *NICSink) Device() osabs.Device { return s.dev }

// Push implements IPacketPush.
func (s *NICSink) Push(p *Packet) error { return pushOne(s, p) }

// PushBatch implements IPacketPushBatch: the whole batch's frames are
// gathered into one pooled [][]byte and handed to the device in a single
// SendBatch — one syscall on the mmsg backend — with counters settled
// once per batch. A refused tail (full ring, socket buffer pressure)
// counts as drops; packets are released only after the device call
// returns, since a sending syscall reads the frame bytes in place.
func (s *NICSink) PushBatch(batch []*Packet) error {
	s.in.Add(uint64(len(batch)))
	frames := buffers.Batches.Get()[:0]
	for _, p := range batch {
		frames = append(frames, p.Data)
	}
	sent, _ := s.dev.SendBatch(frames)
	for i := range frames {
		frames[i] = nil
	}
	buffers.Batches.Put(frames)
	for _, p := range batch {
		p.Release()
	}
	s.out.Add(uint64(sent))
	if d := len(batch) - sent; d > 0 {
		s.dropped.Add(uint64(d))
	}
	return nil
}

// Stats implements core.IStats, folding in the wrapped device's stratum-1
// counters.
func (s *NICSink) Stats() []core.Stat {
	return append(s.statList(), s.dev.StatList()...)
}

var (
	_ core.Starter = (*NICSource)(nil)
	_ core.Stopper = (*NICSource)(nil)
)

func init() {
	// The config-driven factories create and own their devices; embedders
	// use the New* constructors with existing devices.
	core.Components.MustRegister(TypeNICSource, func(cfg map[string]string) (core.Component, error) {
		name := cfg["device"]
		if name == "" {
			name = "eth0"
		}
		depth := 512
		if s, ok := cfg["depth"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("router: nic depth: %w", err)
			}
			depth = v
		}
		nic, err := osabs.NewNIC(name, depth, depth)
		if err != nil {
			return nil, err
		}
		return NewNICSource(nic, nil)
	})
	core.Components.MustRegister(TypeNICSink, func(cfg map[string]string) (core.Component, error) {
		name := cfg["device"]
		if name == "" {
			name = "eth0"
		}
		depth := 512
		if s, ok := cfg["depth"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("router: nic depth: %w", err)
			}
			depth = v
		}
		nic, err := osabs.NewNIC(name, depth, depth)
		if err != nil {
			return nil, err
		}
		return NewNICSink(nic)
	})
}
