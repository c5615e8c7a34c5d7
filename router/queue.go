package router

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"netkit/core"
)

// queueCore is what the queue disciplines share: the element counters, a
// locked packet ring, its pull side, the doorbell its puller sleeps on,
// and the seal that hot-swap closes the ring with. Admission (drop-tail,
// RED) is each discipline's own.
type queueCore struct {
	elementCounters

	mu     sync.Mutex
	ring   []*Packet
	head   int
	size   int
	bell   chan struct{} // rung when the ring turns non-empty; nil = nobody waits
	sealed bool          // ExportState ran: the ring admits nothing more
	heir   IPacketPush   // takes what reaches a sealed queue; nil = drop
}

// putLocked appends p to the ring, which must have room. Caller holds mu.
func (c *queueCore) putLocked(p *Packet) {
	c.ring[(c.head+c.size)%len(c.ring)] = p
	c.size++
}

// unlockRing releases mu after an admission and rings the doorbell if the
// ring went from empty (wasEmpty: size was 0 when the caller took mu) to
// non-empty. Ringing only on that edge keeps the pusher's cost to one
// non-blocking send per drain of the queue, not one per batch. The send
// never blocks: a token already waiting in the capacity-1 bell covers
// this one too, and a nil bell takes the default branch.
func (c *queueCore) unlockRing(wasEmpty bool) {
	bell := c.bell
	rings := wasEmpty && c.size > 0
	c.mu.Unlock()
	if rings {
		select {
		case bell <- struct{}{}:
		default:
		}
	}
}

// setBell registers the doorbell the queue rings when it turns non-empty
// (LinkScheduler registers its own on every input). A queue that already
// holds packets rings at once, so a puller that registers and then waits
// cannot miss a packet that arrived before it registered.
func (c *queueCore) setBell(bell chan struct{}) {
	c.mu.Lock()
	c.bell = bell
	c.unlockRing(true)
}

// late disposes of a batch that reached the queue after ExportState sealed
// it — a push that loaded its binding target just before HotSwap diverted
// the binding. The packets go to the replacement HotSwap recorded, or are
// counted and dropped: never left in a ring nobody pulls from.
func (c *queueCore) late(batch []*Packet) error {
	if c.heir != nil {
		return ForwardBatch(c.heir, batch)
	}
	c.in.Add(uint64(len(batch)))
	c.dropped.Add(uint64(len(batch)))
	for _, p := range batch {
		p.Release()
	}
	return nil
}

// Pull implements IPacketPull: PullBatch of one packet.
func (c *queueCore) Pull() (*Packet, error) {
	var one [1]*Packet
	if got := c.PullBatch(one[:0], 1, math.MaxInt); len(got) == 1 {
		return got[0], nil
	}
	return nil, ErrNoPacket
}

// drainLocked pops packets into dst (appending, clearing the vacated
// slots) while fewer than max have moved and credit is positive; each
// packet costs its length. Caller holds mu.
func (c *queueCore) drainLocked(dst []*Packet, max, credit int) []*Packet {
	for ; max > 0 && credit > 0 && c.size > 0; max-- {
		p := c.ring[c.head]
		dst = append(dst, p)
		credit -= len(p.Data)
		c.ring[c.head] = nil
		c.head = (c.head + 1) % len(c.ring)
		c.size--
	}
	return dst
}

// PullBatch moves queued packets into dst (appending) under one lock
// acquisition while fewer than max have moved and byte credit remains,
// and returns the extended slice. Each packet costs len(p.Data) of the
// credit, and the packet that exhausts it is still taken — DRR's debt
// carrying. It is the batch form of Pull, and what LinkScheduler's
// disciplines drain a queue with: one lock per queue visit.
func (c *queueCore) PullBatch(dst []*Packet, max, credit int) []*Packet {
	before := len(dst)
	c.mu.Lock()
	dst = c.drainLocked(dst, max, credit)
	c.mu.Unlock()
	if n := len(dst) - before; n > 0 {
		c.out.Add(uint64(n))
	}
	return dst
}

// Len reports the queued packet count.
func (c *queueCore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Capacity reports the configured limit.
func (c *queueCore) Capacity() int { return len(c.ring) }

// FIFOQueue is the standard store-and-forward element: IPacketPush on the
// input side, IPacketPull on the output side (the push/pull boundary in
// Figure 3 between the queueing and forwarding Gateway-CF instances).
// Overflow is drop-tail.
type FIFOQueue struct {
	*core.Base
	queueCore
}

// NewFIFOQueue creates a queue with the given capacity.
func NewFIFOQueue(capacity int) (*FIFOQueue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("router: queue capacity %d", capacity)
	}
	q := &FIFOQueue{Base: core.NewBase(TypeFIFOQueue)}
	q.ring = make([]*Packet, capacity)
	q.Provide(IPacketPushID, q)
	q.Provide(IPacketPullID, q)
	return q, nil
}

// Push implements IPacketPush.
func (q *FIFOQueue) Push(p *Packet) error { return pushOne(q, p) }

// PushBatch implements IPacketPushBatch: the whole batch is admitted under
// one lock acquisition. Packets beyond the remaining capacity are dropped
// (drop-tail; the drop is counted and absorbed, not propagated, so
// upstream elements keep forwarding). The packet pointers are copied into
// the ring — the batch slice itself is not retained.
func (q *FIFOQueue) PushBatch(batch []*Packet) error {
	q.mu.Lock()
	if q.sealed {
		q.mu.Unlock()
		return q.late(batch)
	}
	wasEmpty := q.size == 0
	take := min(len(batch), len(q.ring)-q.size)
	for _, p := range batch[:take] {
		q.putLocked(p)
	}
	q.unlockRing(wasEmpty)
	q.in.Add(uint64(len(batch)))
	if over := batch[take:]; len(over) > 0 {
		q.dropped.Add(uint64(len(over)))
		for _, p := range over {
			p.Release()
		}
	}
	return nil
}

// Stats implements core.IStats, adding the depth and occupancy gauges the
// adaptation engine's queue rules watch.
func (q *FIFOQueue) Stats() []core.Stat {
	depth := q.Len()
	capacity := len(q.ring)
	return append(q.statList(),
		core.G("queue_len", "packets", float64(depth)),
		core.G("queue_cap", "packets", float64(capacity)),
		core.G("queue_occupancy", "ratio", float64(depth)/float64(capacity)))
}

// ---------------------------------------------------------------------------
// RED queue

// REDQueue implements Random Early Detection (Floyd & Jacobson): packets
// are dropped probabilistically as the EWMA of the queue length climbs
// between minTh and maxTh, and always beyond maxTh. It is one of the
// paper's example in-band functions ("diffserv schedulers, shapers" class).
type REDQueue struct {
	*core.Base
	queueCore

	avg    float64
	count  int // packets since last early drop
	weight float64
	minTh  float64
	maxTh  float64
	maxP   float64
	rng    func() float64 // injectable for determinism

	earlyDrops  atomic.Uint64
	forcedDrops atomic.Uint64
}

// REDConfig parameterises a REDQueue.
type REDConfig struct {
	Capacity int
	MinTh    float64 // early-drop onset (packets)
	MaxTh    float64 // forced-drop onset (packets)
	MaxP     float64 // drop probability at MaxTh (0..1]
	Weight   float64 // EWMA weight (default 0.002)
	Rand     func() float64
}

// NewREDQueue creates a RED queue.
func NewREDQueue(cfg REDConfig) (*REDQueue, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("router: red capacity %d", cfg.Capacity)
	}
	if cfg.MinTh <= 0 || cfg.MaxTh <= cfg.MinTh || float64(cfg.Capacity) < cfg.MaxTh {
		return nil, fmt.Errorf("router: red thresholds min=%f max=%f cap=%d",
			cfg.MinTh, cfg.MaxTh, cfg.Capacity)
	}
	if cfg.MaxP <= 0 || cfg.MaxP > 1 {
		return nil, fmt.Errorf("router: red maxP %f", cfg.MaxP)
	}
	if cfg.Weight <= 0 || cfg.Weight > 1 {
		cfg.Weight = 0.002
	}
	if cfg.Rand == nil {
		// xorshift-based default; deterministic seeds are injected in tests.
		state := uint64(0x9e3779b97f4a7c15)
		cfg.Rand = func() float64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return float64(state>>11) / (1 << 53)
		}
	}
	q := &REDQueue{
		Base:   core.NewBase(TypeREDQueue),
		weight: cfg.Weight,
		minTh:  cfg.MinTh,
		maxTh:  cfg.MaxTh,
		maxP:   cfg.MaxP,
		rng:    cfg.Rand,
	}
	q.ring = make([]*Packet, cfg.Capacity)
	q.Provide(IPacketPushID, q)
	q.Provide(IPacketPullID, q)
	return q, nil
}

// admitLocked runs the RED admission decision for one arriving packet and
// enqueues it when admitted. Caller holds q.mu.
func (q *REDQueue) admitLocked(p *Packet) (drop, forced bool) {
	q.avg = (1-q.weight)*q.avg + q.weight*float64(q.size)
	switch {
	case q.size == len(q.ring) || q.avg >= q.maxTh:
		drop, forced = true, true
	case q.avg >= q.minTh:
		pb := q.maxP * (q.avg - q.minTh) / (q.maxTh - q.minTh)
		pa := pb / (1 - float64(q.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if q.rng() < pa {
			drop = true
			q.count = 0
		} else {
			q.count++
		}
	default:
		q.count = 0
	}
	if !drop {
		q.putLocked(p)
	}
	return drop, forced
}

// Push implements IPacketPush.
func (q *REDQueue) Push(p *Packet) error { return pushOne(q, p) }

// PushBatch implements IPacketPushBatch: the RED decision stays strictly
// per-packet (the EWMA evolves arrival by arrival), but the whole batch is
// admitted under one lock acquisition. Dropped packets are released
// outside the lock.
func (q *REDQueue) PushBatch(batch []*Packet) error {
	var drops []*Packet
	var early, forcedN uint64
	q.mu.Lock()
	if q.sealed {
		q.mu.Unlock()
		return q.late(batch)
	}
	wasEmpty := q.size == 0
	for _, p := range batch {
		if drop, forced := q.admitLocked(p); drop {
			if forced {
				forcedN++
			} else {
				early++
			}
			drops = append(drops, p)
		}
	}
	q.unlockRing(wasEmpty)
	q.in.Add(uint64(len(batch)))
	if len(drops) > 0 {
		q.earlyDrops.Add(early)
		q.forcedDrops.Add(forcedN)
		q.dropped.Add(uint64(len(drops)))
		for _, p := range drops {
			p.Release()
		}
	}
	return nil
}

// AvgLen reports the EWMA queue length RED decides on.
func (q *REDQueue) AvgLen() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.avg
}

// EarlyDrops returns probabilistic drops; ForcedDrops returns over-max
// drops.
func (q *REDQueue) EarlyDrops() uint64 { return q.earlyDrops.Load() }

// ForcedDrops returns drops taken at or beyond the hard threshold.
func (q *REDQueue) ForcedDrops() uint64 { return q.forcedDrops.Load() }

// Stats implements core.IStats, adding depth/occupancy gauges, the EWMA
// length RED decides on, and the early/forced drop split.
func (q *REDQueue) Stats() []core.Stat {
	q.mu.Lock()
	depth, avg := q.size, q.avg
	q.mu.Unlock()
	capacity := len(q.ring)
	return append(q.statList(),
		core.G("queue_len", "packets", float64(depth)),
		core.G("queue_cap", "packets", float64(capacity)),
		core.G("queue_occupancy", "ratio", float64(depth)/float64(capacity)),
		core.G("queue_avg_len", "packets", avg),
		core.C("early_drops", "packets", q.earlyDrops.Load()),
		core.C("forced_drops", "packets", q.forcedDrops.Load()))
}

func init() {
	core.Components.MustRegister(TypeFIFOQueue, func(cfg map[string]string) (core.Component, error) {
		capacity := 128
		if s, ok := cfg["capacity"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("router: queue capacity: %w", err)
			}
			capacity = v
		}
		return NewFIFOQueue(capacity)
	})
	core.Components.MustRegister(TypeREDQueue, func(cfg map[string]string) (core.Component, error) {
		conf := REDConfig{Capacity: 128, MinTh: 32, MaxTh: 96, MaxP: 0.1}
		if s, ok := cfg["capacity"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("router: red capacity: %w", err)
			}
			conf.Capacity = v
			conf.MinTh = float64(v) / 4
			conf.MaxTh = float64(v) * 3 / 4
		}
		return NewREDQueue(conf)
	})
}
