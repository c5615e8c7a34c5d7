package router

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"netkit/core"
	"netkit/packet"
)

// Component type names registered with the loader.
const (
	TypeCounter     = "netkit.router.Counter"
	TypeDropper     = "netkit.router.Dropper"
	TypeTee         = "netkit.router.Tee"
	TypeProtoRecogn = "netkit.router.ProtoRecogn"
	TypeIPv4Proc    = "netkit.router.IPv4Proc"
	TypeIPv6Proc    = "netkit.router.IPv6Proc"
	TypeChecksumVal = "netkit.router.ChecksumValidator"
	TypeClassifier  = "netkit.router.Classifier"
	TypeFIFOQueue   = "netkit.router.FIFOQueue"
	TypeREDQueue    = "netkit.router.REDQueue"
	TypeLinkSched   = "netkit.router.LinkScheduler"
	TypeTokenShaper = "netkit.router.TokenShaper"
	TypeNICSource   = "netkit.router.NICSource"
	TypeNICSink     = "netkit.router.NICSink"
)

// ElementStats is the common per-element counter set.
type ElementStats struct {
	In      uint64 // packets received
	Out     uint64 // packets forwarded
	Dropped uint64 // packets absorbed (policy or error)
	Errors  uint64 // structural errors from downstream
}

// elementCounters is embedded by data-path components.
type elementCounters struct {
	in, out, dropped, errs atomic.Uint64
}

func (e *elementCounters) snapshot() ElementStats {
	return ElementStats{
		In: e.in.Load(), Out: e.out.Load(),
		Dropped: e.dropped.Load(), Errors: e.errs.Load(),
	}
}

// ElemStats returns the typed counter snapshot, promoted to every
// component that embeds elementCounters. It is the struct-shaped
// convenience alongside the uniform core.IStats capability.
func (e *elementCounters) ElemStats() ElementStats { return e.snapshot() }

// statList is the shared-counter part of the uniform core.IStats snapshot.
func (e *elementCounters) statList() []core.Stat { return e.snapshot().list() }

// list is the counters' uniform core.Stat form.
func (s ElementStats) list() []core.Stat {
	return []core.Stat{
		core.C("packets_in", "packets", s.In),
		core.C("packets_out", "packets", s.Out),
		core.C("packets_dropped", "packets", s.Dropped),
		core.C("errors", "errors", s.Errors),
	}
}

// Stats implements core.IStats with the shared counter set; components
// with additional observables shadow this method and append to statList.
func (e *elementCounters) Stats() []core.Stat { return e.statList() }

// configInt reads the integer key of a component factory's config, or def
// when the key is absent.
func configInt(cfg map[string]string, key string, def int) (int, error) {
	s, ok := cfg[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("router: config %q: %w", key, err)
	}
	return v, nil
}

// StatsReporter is implemented by all standard components: the typed
// ElementStats accessor, retained alongside the uniform telemetry
// capability core.IStats (Stats() []core.Stat) that every standard
// component also implements.
type StatsReporter interface {
	ElemStats() ElementStats
}

// ---------------------------------------------------------------------------
// Counter

// Counter counts packets and bytes and forwards them unchanged.
type Counter struct {
	*core.Base
	elementCounters
	bytes atomic.Uint64
	out   *core.Receptacle[IPacketPush]
	plan  *fusedPlan
}

// NewCounter returns a counting pass-through element.
func NewCounter() *Counter {
	c := &Counter{Base: core.NewBase(TypeCounter)}
	c.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	c.AddReceptacle("out", c.out)
	c.Provide(IPacketPushID, c)
	c.plan = onePlan(c.fuseStep())
	return c
}

// PushBatch implements IPacketPush: counters are updated once per
// batch and the batch is forwarded whole.
func (c *Counter) PushBatch(batch []*Packet) error { return c.plan.run(batch) }

// Stats implements core.IStats, adding the byte count.
func (c *Counter) Stats() []core.Stat {
	return append(c.statList(), core.C("bytes_in", "bytes", c.bytes.Load()))
}

// Bytes returns the cumulative byte count.
func (c *Counter) Bytes() uint64 { return c.bytes.Load() }

// ---------------------------------------------------------------------------
// Dropper

// Dropper absorbs every packet: the standard sink for unwanted traffic.
type Dropper struct {
	*core.Base
	elementCounters
	plan *fusedPlan
}

// NewDropper returns a packet sink.
func NewDropper() *Dropper {
	d := &Dropper{Base: core.NewBase(TypeDropper)}
	d.Provide(IPacketPushID, d)
	d.plan = onePlan(d.fuseStep())
	return d
}

// PushBatch implements IPacketPush.
func (d *Dropper) PushBatch(batch []*Packet) error { return d.plan.run(batch) }

// ---------------------------------------------------------------------------
// Tee

// Tee forwards each packet to every bound output slot. The packet is
// shared (not copied): downstream elements must treat packets as
// read-only, matching the zero-copy discipline of the data path; the last
// consumer's Release is a no-op for caller-owned packets and pooled
// packets are retained per extra output.
type Tee struct {
	*core.Base
	elementCounters
	outs *core.MultiReceptacle[IPacketPush]
}

// NewTee returns a splitter with n output slots named "out0".."out<n-1>".
func NewTee(n int) (*Tee, error) {
	if n < 1 {
		return nil, fmt.Errorf("router: tee needs >=1 output, got %d", n)
	}
	t := &Tee{Base: core.NewBase(TypeTee)}
	t.outs = core.NewMultiReceptacle[IPacketPush](IPacketPushID)
	for i := 0; i < n; i++ {
		name := "out" + strconv.Itoa(i)
		slot, err := t.outs.AddSlot(name)
		if err != nil {
			return nil, err
		}
		t.AddReceptacle(name, slot)
	}
	t.Provide(IPacketPushID, t)
	return t, nil
}

// PushBatch implements IPacketPush. The targets are read once per batch,
// and every clone is taken before the first delivery: a consumer may
// release the shared buffers before later deliveries otherwise. The first
// target gets the batch itself, each other target a batch of clones, so
// every consumer owns its own Packet wrappers. Each delivery is accounted
// on its own: out counts the packets delivered, errs every failed one.
func (t *Tee) PushBatch(batch []*Packet) error {
	if len(batch) == 0 {
		return nil
	}
	t.in.Add(uint64(len(batch)))
	var targets []IPacketPush
	t.outs.Each(func(_ string, tgt IPacketPush) bool {
		targets = append(targets, tgt)
		return true
	})
	if len(targets) == 0 {
		t.dropped.Add(uint64(len(batch)))
		for _, p := range batch {
			p.Release()
		}
		return nil
	}
	deliveries := make([][]*Packet, len(targets))
	deliveries[0] = batch
	for i := 1; i < len(targets); i++ {
		clones := GetBatch()
		for _, p := range batch {
			clones = append(clones, p.Clone())
		}
		deliveries[i] = clones
	}
	var agg batchErrAgg
	for i, tgt := range targets {
		err := tgt.PushBatch(deliveries[i])
		failed := FailedPackets(err, len(batch))
		t.errs.Add(uint64(failed))
		t.out.Add(uint64(len(batch) - failed))
		agg.note(err, len(batch))
		if i > 0 {
			PutBatch(deliveries[i])
		}
	}
	// A packet fails when any of its deliveries does; the sum over targets
	// bounds that count from above, so it is clamped to the batch.
	agg.failed = min(agg.failed, len(batch))
	return agg.err()
}

// ---------------------------------------------------------------------------
// Protocol recogniser

// ProtoRecogn demultiplexes by IP version to the "ipv4", "ipv6" and
// "other" outputs (Figure 3's first stage).
type ProtoRecogn struct {
	*core.Base
	elementCounters
	v4, v6, other *core.Receptacle[IPacketPush]
}

// NewProtoRecogn returns a version demultiplexer.
func NewProtoRecogn() *ProtoRecogn {
	r := &ProtoRecogn{Base: core.NewBase(TypeProtoRecogn)}
	r.v4 = core.NewReceptacle[IPacketPush](IPacketPushID)
	r.v6 = core.NewReceptacle[IPacketPush](IPacketPushID)
	r.other = core.NewReceptacle[IPacketPush](IPacketPushID)
	r.AddReceptacle("ipv4", r.v4)
	r.AddReceptacle("ipv6", r.v6)
	r.AddReceptacle("other", r.other)
	r.Provide(IPacketPushID, r)
	return r
}

// PushBatch implements IPacketPush: each output's packets leave as
// one sub-batch in arrival order (scatter), so a mixed batch crosses each
// output's binding once.
func (r *ProtoRecogn) PushBatch(batch []*Packet) error {
	r.in.Add(uint64(len(batch)))
	to := [...]*core.Receptacle[IPacketPush]{r.v4, r.v6, r.other}
	var agg batchErrAgg
	var slot [demuxChunk]uint8
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), demuxChunk)]
		batch = batch[len(chunk):]
		for i, p := range chunk {
			switch packet.Version(p.Data) {
			case 4:
				slot[i] = 0
			case 6:
				slot[i] = 1
			default:
				slot[i] = 2
			}
		}
		r.scatter(chunk, slot[:len(chunk)], to[:], &agg)
	}
	return agg.err()
}

// ---------------------------------------------------------------------------
// IPv4 header processor

// IPv4Proc performs the per-hop IPv4 work: optional checksum validation
// and TTL decrement (with RFC 1141 incremental checksum update). Expired
// or malformed packets are dropped and counted.
type IPv4Proc struct {
	*core.Base
	elementCounters
	validate bool
	out      *core.Receptacle[IPacketPush]
	plan     *fusedPlan
	ttlDrops atomic.Uint64
	csDrops  atomic.Uint64
}

// NewIPv4Proc returns a header processor; validate enables checksum
// verification before processing.
func NewIPv4Proc(validate bool) *IPv4Proc {
	h := &IPv4Proc{Base: core.NewBase(TypeIPv4Proc), validate: validate}
	h.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	h.AddReceptacle("out", h.out)
	h.Provide(IPacketPushID, h)
	h.plan = onePlan(h.fuseStep())
	return h
}

// PushBatch implements IPacketPush: per-packet header work is done in
// place and the survivors are forwarded as one batch.
func (h *IPv4Proc) PushBatch(batch []*Packet) error { return h.plan.run(batch) }

// Stats implements core.IStats, adding the specialised drop causes.
func (h *IPv4Proc) Stats() []core.Stat {
	return append(h.statList(),
		core.C("ttl_drops", "packets", h.ttlDrops.Load()),
		core.C("checksum_drops", "packets", h.csDrops.Load()))
}

// TTLDrops returns packets dropped for TTL expiry.
func (h *IPv4Proc) TTLDrops() uint64 { return h.ttlDrops.Load() }

// ChecksumDrops returns packets dropped for checksum failure.
func (h *IPv4Proc) ChecksumDrops() uint64 { return h.csDrops.Load() }

// ---------------------------------------------------------------------------
// IPv6 header processor

// IPv6Proc decrements the hop limit, dropping expired packets.
type IPv6Proc struct {
	*core.Base
	elementCounters
	out      *core.Receptacle[IPacketPush]
	plan     *fusedPlan
	hopDrops atomic.Uint64
}

// NewIPv6Proc returns an IPv6 per-hop processor.
func NewIPv6Proc() *IPv6Proc {
	h := &IPv6Proc{Base: core.NewBase(TypeIPv6Proc)}
	h.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	h.AddReceptacle("out", h.out)
	h.Provide(IPacketPushID, h)
	h.plan = onePlan(h.fuseStep())
	return h
}

// PushBatch implements IPacketPush (see IPv4Proc.PushBatch).
func (h *IPv6Proc) PushBatch(batch []*Packet) error { return h.plan.run(batch) }

// Stats implements core.IStats, adding the specialised drop cause.
func (h *IPv6Proc) Stats() []core.Stat {
	return append(h.statList(), core.C("hop_drops", "packets", h.hopDrops.Load()))
}

// HopDrops returns packets dropped for hop-limit expiry.
func (h *IPv6Proc) HopDrops() uint64 { return h.hopDrops.Load() }

// ---------------------------------------------------------------------------
// Checksum validator

// ChecksumValidator drops IPv4 packets with invalid header checksums and
// forwards everything else untouched (IPv6 has no header checksum).
type ChecksumValidator struct {
	*core.Base
	elementCounters
	out  *core.Receptacle[IPacketPush]
	plan *fusedPlan
}

// NewChecksumValidator returns a validator element.
func NewChecksumValidator() *ChecksumValidator {
	v := &ChecksumValidator{Base: core.NewBase(TypeChecksumVal)}
	v.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	v.AddReceptacle("out", v.out)
	v.Provide(IPacketPushID, v)
	v.plan = onePlan(v.fuseStep())
	return v
}

// PushBatch implements IPacketPush.
func (v *ChecksumValidator) PushBatch(batch []*Packet) error { return v.plan.run(batch) }

// ---------------------------------------------------------------------------
// Factories

func init() {
	core.Components.MustRegister(TypeCounter, func(map[string]string) (core.Component, error) {
		return NewCounter(), nil
	})
	core.Components.MustRegister(TypeDropper, func(map[string]string) (core.Component, error) {
		return NewDropper(), nil
	})
	core.Components.MustRegister(TypeTee, func(cfg map[string]string) (core.Component, error) {
		n, err := configInt(cfg, "outputs", 2)
		if err != nil {
			return nil, err
		}
		return NewTee(n)
	})
	core.Components.MustRegister(TypeProtoRecogn, func(map[string]string) (core.Component, error) {
		return NewProtoRecogn(), nil
	})
	core.Components.MustRegister(TypeIPv4Proc, func(cfg map[string]string) (core.Component, error) {
		return NewIPv4Proc(cfg["validate"] == "true"), nil
	})
	core.Components.MustRegister(TypeIPv6Proc, func(map[string]string) (core.Component, error) {
		return NewIPv6Proc(), nil
	})
	core.Components.MustRegister(TypeChecksumVal, func(map[string]string) (core.Component, error) {
		return NewChecksumValidator(), nil
	})
}
