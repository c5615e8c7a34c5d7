package router

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"netkit/core"
	"netkit/internal/buffers"
	"netkit/internal/osabs"
	"netkit/resources"
)

// PumpConfig tunes a NICSource's receive pump.
type PumpConfig struct {
	// Batch bounds the frames drained per poll/delivery round
	// (default nicSourceBatch).
	Batch int
	// Spin is the busy-poll budget: how many consecutive empty polls the
	// pump burns (yielding the OS thread, not sleeping) before parking.
	// 0 or less parks immediately on the first empty poll.
	Spin int
}

// NICSource is a standard component wrapping a stratum-1 device's receive
// side (§5: "'standard' components that interface to network cards"). Its
// pump turns frames into packets — optionally copied into pooled buffers —
// and pushes them downstream. Any osabs.Device works: one polling pump
// drains batches with a spin-then-park idle policy, parking in the
// device's Wait (the in-memory devices' doorbell, a UDP socket's
// readiness in Go's poller), never on a timer.
type NICSource struct {
	*core.Base
	elementCounters
	dev  osabs.Device
	pool *buffers.Pool // nil = wrap frames without copying
	cfg  PumpConfig
	out  *core.Receptacle[IPacketPush]

	pump   *resources.Task
	frames [][]byte  // the pump's receive scratch
	pkts   []*Packet // the pump's delivery scratch
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
	s := &NICSource{Base: core.NewBase(TypeNICSource), dev: dev, pool: pool, cfg: cfg,
		pump: resources.NewTask("pump")}
	s.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	s.AddReceptacle("out", s.out)
	s.SetAnnotation("netkit.device", dev.Name())
	return s, nil
}

// Device returns the wrapped device.
func (s *NICSource) Device() osabs.Device { return s.dev }

// Start implements core.Starter: it runs the receive pump as the task "pump".
func (s *NICSource) Start(context.Context) error {
	s.pump.Run(s.poll, resources.Idle{Spin: s.cfg.Spin, Wait: s.dev.Wait})
	return nil
}

// Stop implements core.Stopper: it stops and joins the pump task.
func (s *NICSource) Stop(context.Context) error {
	s.pump.Stop()
	return nil
}

// Tasks lists the source's task for the control plane.
func (s *NICSource) Tasks() []*resources.Task { return []*resources.Task{s.pump} }

// nicSourceBatch bounds the opportunistic RX drain per delivery round.
const nicSourceBatch = 64

// poll is the pump's step: one batched non-blocking RecvBatchInto (one
// syscall on the mmsg backend), its frames minted and forwarded as one
// batch. Only ErrClosed ends the pump; any other receive error (a refused
// send surfacing on a connected socket, an empty arena) is an empty poll.
func (s *NICSource) poll(context.Context) (int, error) {
	frames, slab, err := s.dev.RecvBatchInto(s.frames[:0], s.cfg.Batch)
	s.frames = frames
	if !errors.Is(err, osabs.ErrClosed) {
		err = nil
	}
	if len(frames) == 0 {
		return 0, err
	}
	s.in.Add(uint64(len(frames)))
	pkts := s.pkts[:0]
	if slab != nil {
		// Arena frames already hold one slab reference each: each packet
		// adopts one zero-copy, in the frame's descriptor riding the slab,
		// and its Release decrements the slab.
		slots := SlabPackets(slab, len(frames))
		for i, f := range frames {
			slots[i] = Packet{Data: f, Buf: slab, InPort: s.dev.Name()}
			pkts = append(pkts, &slots[i])
		}
	} else {
		for _, f := range frames {
			if p := s.mint(f); p != nil {
				pkts = append(pkts, p)
			}
		}
	}
	_ = s.forwardBatch(s.out, pkts)
	// Clear both scratches so an idle source pins neither the handed-off
	// packets nor their frame bytes between polls.
	clear(pkts)
	clear(frames)
	s.pkts = pkts
	return len(frames), err // ErrClosed here: the batch above was the tail
}

// mint turns one polled frame without a slab into a Packet, or nil for a
// drop: the pool path copies (dropping on pool exhaustion) and the
// nil-pool path wraps without copying.
func (s *NICSource) mint(f []byte) *Packet {
	var p *Packet
	if s.pool != nil {
		pp, err := NewPooledPacket(s.pool, f)
		if err != nil {
			s.dropped.Add(1)
			return nil
		}
		p = pp
	} else {
		p = NewPacket(f)
	}
	p.InPort = s.dev.Name()
	return p
}

// Stats implements core.IStats, folding in the wrapped device's stratum-1
// counters plus the pump's busy-poll telemetry.
func (s *NICSource) Stats() []core.Stat {
	st := s.pump.Stats()
	out := append(s.statList(),
		core.C("pump_spins", "polls", st.Spins),
		core.C("pump_parks", "sleeps", st.Parks),
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

// PushBatch implements IPacketPush: the whole batch's frames are
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
		nic, err := configNIC(cfg)
		if err != nil {
			return nil, err
		}
		return NewNICSource(nic, nil)
	})
	core.Components.MustRegister(TypeNICSink, func(cfg map[string]string) (core.Component, error) {
		nic, err := configNIC(cfg)
		if err != nil {
			return nil, err
		}
		return NewNICSink(nic)
	})
}

// configNIC makes the simulated NIC a factory config names: "device"
// (default eth0) with rings of "depth" frames (default 512).
func configNIC(cfg map[string]string) (*osabs.NIC, error) {
	depth, err := configInt(cfg, "depth", 512)
	if err != nil {
		return nil, err
	}
	return osabs.NewNIC(cmp.Or(cfg["device"], "eth0"), depth, depth)
}
