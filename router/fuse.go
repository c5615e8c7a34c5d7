package router

import (
	"sync/atomic"

	"netkit/core"
	"netkit/packet"
)

// This file is the data path's one execution model (DESIGN.md §8): a plan
// is a list of per-element steps plus the receptacle the survivors leave
// through, and one runner executes it. Every linear element's PushBatch
// runs the one-hop plan made of its own step — that IS the hop-by-hop
// path. When the binding chain downstream of a FastPath or shard ingress
// is interceptor-free, the planner compiles the whole chain into one
// longer plan — no receptacle loads, no interface dispatch, no sub-batch
// hand-offs between hops — while keeping reflection one meta-call away.
// Installing an interceptor (or any structural mutation: bind, rebind,
// unbind, hot-swap, insert/remove) retires the long plan by advancing a
// generation stamp; traffic runs the head's one-hop plan and re-fuses
// lazily once the chain is clean again. The paper's central tension —
// reflective flexibility vs raw forwarding speed — resolved the way the
// programmable-data-plane literature does it: specialise the common case,
// de-specialise on meta-level activity.

// maxFuseDepth bounds how many hops (head included) one plan may flatten;
// it also sizes the stack-local tally of a compiled run, so a run
// allocates nothing.
const maxFuseDepth = 32

// stepKind classifies a hop for the runner. The generic form is a
// per-packet closure; the specialised kinds let the runner skip the
// indirect call entirely for the most common hop shapes.
type stepKind uint8

const (
	// stepProc runs the hop's proc closure per packet (may drop).
	stepProc stepKind = iota
	// stepCount is a pass-through byte meter: never drops, accumulates
	// len(p.Data). The runner inlines the traversal — and collapses a RUN
	// of consecutive stepCount hops into a single traversal, since they
	// all see the same packets.
	stepCount
	// stepPass does no per-packet work at all (a nested FastPath).
	stepPass
	// stepDrop unconditionally consumes every packet (a terminal
	// Dropper): the runner releases the live set in a tight loop.
	stepDrop
)

// fuseStep is the single definition of a linear element's per-packet
// behaviour, decoupled from its forwarding: the element's own PushBatch
// runs it as a one-hop plan, a fuser runs it inside a longer one.
type fuseStep struct {
	// kind selects the runner strategy for this hop.
	kind stepKind
	// proc performs a stepProc hop's per-packet work (header mutation,
	// conformance) and reports whether the packet survives. It maintains
	// the hop's SPECIALISED counters (ttl_drops, cs_drops) itself; the
	// shared in/out/dropped/errs block is the runner's. nil for the other
	// kinds.
	proc func(p *Packet) bool
	// meter receives a stepCount hop's byte total once per chunk.
	meter *atomic.Uint64
	// counters is the hop's element counter block, settled by the runner
	// once per chunk.
	counters *elementCounters
	// out is the hop's egress receptacle. nil marks a terminal hop (the
	// Dropper) that consumes every packet.
	out *core.Receptacle[IPacketPush]
}

// chainFusible is the capability interface of the fusion planner,
// discovered by type assertion like the batch capability. Components that
// buffer (queues), split (Tee, recognisers, classifiers) or block are
// simply not fusible: the planner stops at them and the fused prefix hands
// off to the remainder through the ordinary receptacle crossing.
type chainFusible interface {
	fuseStep() fuseStep
}

// fusedPlan is one immutable chain of steps; hops[0] is the element whose
// PushBatch runs it. gen is the structural generation a fuser compiled it
// for. An element's own one-hop plan leaves gen zero: it crosses every
// binding through its receptacle, so it never goes stale.
type fusedPlan struct {
	gen  uint64
	hops []fuseStep
	tail *core.Receptacle[IPacketPush] // last hop's egress; nil if terminal
}

// onePlan is the hop-by-hop form of an element: its own step, handing the
// survivors to whatever its receptacle is bound to.
func onePlan(step fuseStep) *fusedPlan {
	return &fusedPlan{hops: []fuseStep{step}, tail: step.out}
}

// ChainFuser owns the plan for the chain downstream of one head element (a
// FastPath or a shard ingress):
//
//   - gen counts structural mutations of the owning capsule (bumped by a
//     synchronous core.WatchStructure observer, so an interceptor install
//     can never be missed the way a lossy event stream could miss it).
//   - plan is the plan compiled for the generation it is stamped with. A
//     batch that finds plan.gen == gen runs it; otherwise it compiles the
//     plan for the current generation first. An unfusable chain compiles
//     to the head's one-hop plan stamped with its generation, so the
//     stamp doubles as the negative cache: one graph walk per mutation,
//     not one per batch.
//
// A batch already running a plan when the chain mutates finishes on it:
// the ordinary batch-boundary semantics. Where a caller needs an exact cut
// — an audit that sees every packet after its install returns — the
// owner's worker provides it (ShardedCF parks its lanes around Intercept).
//
// Both plan forms go through the same runner, so fusion is invisible to
// semantics: same delivery, same order, same counters, same errors.
type ChainFuser struct {
	capsule *core.Capsule
	head    fuseStep

	gen  atomic.Uint64
	plan atomic.Pointer[fusedPlan]

	fusions       atomic.Uint64 // published plans fusing >= 2 hops
	invalidations atomic.Uint64 // structural events observed

	cancel func()
}

// newChainFuser attaches a fuser to the chain rooted at head's egress
// receptacle in capsule c and compiles eagerly. The fuser re-specialises
// lazily on the data path after every structural mutation.
func newChainFuser(c *core.Capsule, head fuseStep) *ChainFuser {
	f := &ChainFuser{capsule: c, head: head}
	f.cancel = c.WatchStructure(func(core.Event) {
		// Any structural mutation may have changed the chain: count it and
		// advance the generation, which retires the plan. Atomics only —
		// this runs synchronously under capsule/binding locks.
		f.invalidations.Add(1)
		f.gen.Add(1)
	})
	f.replan(nil, f.gen.Load())
	return f
}

// Close detaches the fuser's structure watcher. Optional: a fuser left
// attached dies with its capsule.
func (f *ChainFuser) Close() {
	if f.cancel != nil {
		f.cancel()
		f.cancel = nil
	}
}

// Forward runs batch through the head and its downstream chain under the
// plan of the current generation.
func (f *ChainFuser) Forward(batch []*Packet) error {
	pl := f.plan.Load()
	if g := f.gen.Load(); pl.gen != g {
		pl = f.replan(pl, g)
	}
	var t [maxFuseDepth]hopTally
	return pl.exec(batch, t[:len(pl.hops)])
}

// replan compiles the plan for generation g and publishes it in place of
// old. Concurrent callers may both compile; only the one whose swap lands
// publishes (and counts a fusion), the other runs its own copy for one
// batch. A plan never replaces a newer one: old was loaded before g.
func (f *ChainFuser) replan(old *fusedPlan, g uint64) *fusedPlan {
	pl := f.compile(g)
	if f.plan.CompareAndSwap(old, pl) && len(pl.hops) > 1 {
		f.fusions.Add(1)
	}
	return pl
}

// compile walks the binding graph from the head's receptacle, collecting
// consecutive fusible hops whose inbound bindings carry no interceptor
// chain. The walk stops — leaving the remainder to the ordinary receptacle
// crossing — at the first intercepted binding, unbound receptacle,
// non-fusible component, cycle, or maxFuseDepth. Fewer than two hops
// behind the head is not worth fusing and compiles to the head's one-hop
// plan. g must be loaded before the walk, so the plan reflects a structure
// at least as new as its stamp.
func (f *ChainFuser) compile(g uint64) *fusedPlan {
	byRecp := make(map[core.GenReceptacle]*core.Binding)
	for _, b := range f.capsule.Bindings() {
		byRecp[b.Receptacle()] = b
	}
	hops := append(make([]fuseStep, 0, 8), f.head)
	seen := make(map[core.Component]bool, 8)
	tail := f.head.out
	for len(hops) < maxFuseDepth && tail != nil {
		b, ok := byRecp[tail]
		if !ok || len(b.Interceptors()) > 0 {
			break
		}
		toName, _ := b.To()
		comp, ok := f.capsule.Component(toName)
		if !ok || seen[comp] {
			break
		}
		fz, ok := comp.(chainFusible)
		if !ok {
			break
		}
		seen[comp] = true
		step := fz.fuseStep()
		hops = append(hops, step)
		tail = step.out // nil after a terminal hop
	}
	if len(hops) < 3 {
		hops, tail = hops[:1], f.head.out
	}
	return &fusedPlan{gen: g, hops: hops, tail: tail}
}

// hopTally is the runner's per-hop account of one chunk.
type hopTally struct {
	enter, drops int32
	bytes        uint64
}

// run executes batch through a one-hop plan: every linear element's
// PushBatch. It is exec with a one-entry tally, so a long hop-by-hop chain
// nests small frames.
func (pl *fusedPlan) run(batch []*Packet) error {
	var t [1]hopTally
	return pl.exec(batch, t[:])
}

// exec is the runner. It executes batch through the plan in chunks of at
// most batchCap (so the scratch never outgrows a pooled batch), each chunk
// hop-major: every processing hop compacts the surviving ("live") set,
// pass-through byte meters (stepCount) collapse into a single traversal
// shared by every consecutive meter, and the compacted survivors leave to
// the tail as ONE batch. The caller's slice is never mutated (callers reuse
// their batches): survivors move into a pooled scratch batch lazily, at the
// first hop that both drops and keeps — the no-drop and drop-everything
// paths never copy. The shared counters of every hop are settled after each
// chunk, with per-packet-exact error accounting via BatchError: a packet
// the tail refused counts errs, not out, at every hop it crossed. tally has
// one entry per hop.
func (pl *fusedPlan) exec(batch []*Packet, tally []hopTally) error {
	n := len(pl.hops)
	var agg batchErrAgg
	var scratch []*Packet // pooled; live aliases it once a hop compacts into it
	for len(batch) > 0 {
		live := batch
		if len(live) > batchCap {
			live = live[:batchCap]
		}
		batch = batch[len(live):]
		inScratch := false

		for h := 0; h < n && len(live) > 0; {
			hp := &pl.hops[h]
			tally[h].enter = int32(len(live))
			switch hp.kind {
			case stepPass:
				h++
			case stepCount:
				// One byte-sum traversal serves every consecutive meter:
				// they never drop, so they all see the same live set.
				var bytes uint64
				for _, p := range live {
					bytes += uint64(len(p.Data))
				}
				for h < n && pl.hops[h].kind == stepCount {
					tally[h] = hopTally{enter: int32(len(live)), bytes: bytes}
					h++
				}
			case stepDrop:
				tally[h].drops = int32(len(live))
				for _, p := range live {
					p.Release()
				}
				live = live[:0]
				h++
			default: // stepProc
				// proc stays in a register across the closure calls: the
				// compiler would otherwise reload the hop field every
				// iteration, since a closure call could alias it.
				proc := hp.proc
				i := 0
				for i < len(live) && proc(live[i]) {
					i++
				}
				if i == len(live) {
					h++
					continue
				}
				// First drop at i. Survivors before it stay a read-only
				// view; the first subsequent keeper forces them into
				// scratch (an in-place no-op once live already is scratch,
				// since the write index never passes the read index).
				d := int32(1)
				live[i].Release()
				kept := live[:i]
				for _, p := range live[i+1:] {
					if !proc(p) {
						d++
						p.Release()
						continue
					}
					if !inScratch {
						if scratch == nil {
							scratch = GetBatch()
						}
						kept = append(scratch[:0], kept...)
						inScratch = true
					}
					kept = append(kept, p)
				}
				tally[h].drops = d
				live = kept
				h++
			}
		}

		failed := 0
		if len(live) > 0 {
			var tail IPacketPush
			if pl.tail != nil {
				tail, _ = pl.tail.Get()
			}
			if tail == nil {
				// Unbound tail (or a terminal hop that unexpectedly kept a
				// packet): the last hop drops.
				tally[n-1].drops += int32(len(live))
				for _, p := range live {
					p.Release()
				}
			} else if err := tail.PushBatch(live); err != nil {
				before := agg.failed
				agg.note(err, len(live))
				failed = agg.failed - before
			}
		}

		for h := range pl.hops {
			c, t := pl.hops[h].counters, &tally[h]
			if t.enter == 0 {
				break // never reached: an earlier hop consumed everything
			}
			c.in.Add(uint64(t.enter))
			if t.drops > 0 {
				c.dropped.Add(uint64(t.drops))
			}
			if out := int(t.enter-t.drops) - failed; out > 0 {
				c.out.Add(uint64(out))
			}
			if failed > 0 {
				c.errs.Add(uint64(failed))
			}
			if t.bytes != 0 {
				pl.hops[h].meter.Add(t.bytes)
			}
		}
		if len(batch) > 0 {
			clear(tally) // for the next chunk; the caller handed it in zeroed
		}
	}
	if scratch != nil {
		PutBatch(scratch) // every packet in it was delivered or released
	}
	return agg.err()
}

// FusedHops reports how many hops behind the head the current compiled
// plan flattens, 0 while de-specialised. This is the `fused` gauge's
// value: the reflective loop watches it drop to 0 on interceptor install
// and return on re-fusion.
func (f *ChainFuser) FusedHops() int {
	pl := f.plan.Load()
	if pl.gen != f.gen.Load() {
		return 0
	}
	return len(pl.hops) - 1
}

// Fusions reports how many plans fusing at least two hops have been
// published.
func (f *ChainFuser) Fusions() uint64 { return f.fusions.Load() }

// Invalidations reports how many structural mutations have been observed.
func (f *ChainFuser) Invalidations() uint64 { return f.invalidations.Load() }

// statList is the fuser's contribution to its owner's stats: the fused
// gauge plus the specialisation churn counters.
func (f *ChainFuser) statList() []core.Stat {
	return []core.Stat{
		core.G("fused", "hops", float64(f.FusedHops())),
		core.C("fusions", "plans", f.fusions.Load()),
		core.C("fuse_invalidations", "events", f.invalidations.Load()),
	}
}

// ---------------------------------------------------------------------------
// Steps of the standard linear elements
//
// A proc maintains its element's specialised counters; the shared counter
// block and forwarding belong to the runner.

func (c *Counter) fuseStep() fuseStep {
	return fuseStep{
		kind:     stepCount,
		meter:    &c.bytes,
		counters: &c.elementCounters,
		out:      c.out,
	}
}

func (h *IPv4Proc) fuseStep() fuseStep {
	return fuseStep{
		proc: func(p *Packet) bool {
			if h.validate {
				if packet.ValidateIPv4Checksum(p.Data) != nil {
					h.csDrops.Add(1)
					return false
				}
			}
			if packet.DecrementTTL(p.Data) != nil {
				h.ttlDrops.Add(1)
				return false
			}
			return true
		},
		counters: &h.elementCounters,
		out:      h.out,
	}
}

func (h *IPv6Proc) fuseStep() fuseStep {
	return fuseStep{
		proc: func(p *Packet) bool {
			if packet.DecrementHopLimit(p.Data) != nil {
				h.hopDrops.Add(1)
				return false
			}
			return true
		},
		counters: &h.elementCounters,
		out:      h.out,
	}
}

func (v *ChecksumValidator) fuseStep() fuseStep {
	return fuseStep{
		proc: func(p *Packet) bool {
			return packet.Version(p.Data) != 4 || packet.ValidateIPv4Checksum(p.Data) == nil
		},
		counters: &v.elementCounters,
		out:      v.out,
	}
}

func (s *TokenShaper) fuseStep() fuseStep {
	return fuseStep{
		proc: func(p *Packet) bool {
			return s.bucket.Allow(len(p.Data))
		},
		counters: &s.elementCounters,
		out:      s.out,
	}
}

func (d *Dropper) fuseStep() fuseStep {
	return fuseStep{
		kind:     stepDrop,
		counters: &d.elementCounters,
		out:      nil, // terminal: consumes everything
	}
}

// ---------------------------------------------------------------------------
// FastPath: the fused chain as a first-class component

// TypeFastPath is the component type of the fused chain entry point. It is
// not in the loader registry: construction needs the owning capsule
// (NewFastPath), which the map[string]string factory signature cannot
// carry.
const TypeFastPath = "netkit.router.FastPath"

// FastPath is a fused chain entry point: an ordinary component with one
// "out" receptacle whose downstream chain it fuses. Pushing into it runs
// the flattened chain; its stats expose the fused gauge the adaptation
// loop watches. Bind it ahead of a pipeline (Blueprint.FastPath + Pipe)
// and push into it instead of the first processing component. A FastPath
// is itself fusible as a pass-through, so nested fast paths flatten.
type FastPath struct {
	*core.Base
	elementCounters
	out  *core.Receptacle[IPacketPush]
	fuse *ChainFuser
}

// NewFastPath returns a fused entry point attached to capsule c. The
// caller must Insert it into the same capsule.
func NewFastPath(c *core.Capsule) *FastPath {
	f := &FastPath{Base: core.NewBase(TypeFastPath)}
	f.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	f.AddReceptacle("out", f.out)
	f.Provide(IPacketPushID, f)
	f.fuse = newChainFuser(c, f.fuseStep())
	return f
}

// PushBatch implements IPacketPush through the compiled plan when one
// is valid, the FastPath's own one-hop plan otherwise.
func (f *FastPath) PushBatch(batch []*Packet) error { return f.fuse.Forward(batch) }

// Fuser exposes the fuser for introspection.
func (f *FastPath) Fuser() *ChainFuser { return f.fuse }

// Stats implements core.IStats: the element counters plus the fused gauge
// and specialisation churn.
func (f *FastPath) Stats() []core.Stat {
	return append(f.statList(), f.fuse.statList()...)
}

func (f *FastPath) fuseStep() fuseStep {
	return fuseStep{kind: stepPass, counters: &f.elementCounters, out: f.out}
}

var (
	_ IPacketPush  = (*FastPath)(nil)
	_ core.IStats  = (*FastPath)(nil)
	_ chainFusible = (*FastPath)(nil)
	_ chainFusible = (*Counter)(nil)
	_ chainFusible = (*IPv4Proc)(nil)
	_ chainFusible = (*IPv6Proc)(nil)
	_ chainFusible = (*ChecksumValidator)(nil)
	_ chainFusible = (*TokenShaper)(nil)
	_ chainFusible = (*Dropper)(nil)
)
