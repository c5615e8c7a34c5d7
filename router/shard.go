package router

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"netkit/cf"
	"netkit/core"
)

// This file is the sharded multi-core data plane (DESIGN.md §4.5): an
// RSS-style dispatcher that flow-hashes incoming traffic across N
// independent Router CF pipeline replicas, each serviced by its own
// goroutine behind an SPSC ring that owns its batch arrays, with a
// batch-aware merge at egress. The reflective twist over a plain RSS
// fan-out is that the whole arrangement remains ONE component to the
// meta-space:
//
//   - architecture: the replicas live in a cf.Composite's inner capsule,
//     enumerable via Replicas() and the ordinary Snapshot/Subscribe paths;
//   - interception: Intercept installs an Around on the same binding of
//     every replica all-or-nothing (core.Capsule.AddInterceptorAll), so
//     audits never observe a subset of shards;
//   - reconfiguration: every meta-operation that needs a consistent cut
//     (HotSwap, Intercept, SetActiveShards, Quiesce) runs as "park,
//     mutate, resume". Two fences make the cut: the intake fence, which
//     each dispatch holds shared for its whole batch and park holds
//     exclusively, and each lane's worker, which park has drain its ring
//     and wait at that batch boundary. So no packet is in flight anywhere
//     in any replica while the mutation runs, and none is lost.
//
// Correctness contract, proven by the race/fuzz/stress tests in
// shard_test.go and shard_fuzz_test.go: packets of one flow (same RSS
// hash) are delivered downstream in arrival order, the sharded pipeline
// delivers exactly the per-flow sequences the equivalent single pipeline
// would, and no packet is lost across Stop, HotSwap or a rescale.

// TypeShardedCF is the registered component type of the sharded data
// plane; TypeShardIngress/TypeShardEgress name its per-replica endpoints.
const (
	TypeShardedCF    = "netkit.router.ShardedCF"
	TypeShardIngress = "netkit.router.ShardIngress"
	TypeShardEgress  = "netkit.router.ShardEgress"
)

// ShardName returns the inner-capsule instance name of a replica-scoped
// component: shard 2's "queue" is "s2/queue".
func ShardName(shard int, name string) string {
	return "s" + strconv.Itoa(shard) + "/" + name
}

// ReplicaFactory builds one pipeline replica inside the sharded CF's inner
// framework. The per-shard ingress and egress are pre-admitted under
// ShardName(shard, "ingress") / ShardName(shard, "egress"); the factory
// admits its own components (names must be scoped with ShardName), wires
// them, binds the tail of the pipeline to the egress, and returns the name
// of the entry component the ingress should push into. Replicas must be
// mutually independent: sharing one stateful component across factories
// reintroduces exactly the cross-core contention sharding removes.
type ReplicaFactory func(shard int, fw *cf.Framework) (entry string, err error)

// ShardConfig parameterises a ShardedCF.
type ShardConfig struct {
	// Shards is the replica count (required, >= 1). Every replica is
	// built up front and every lane receives traffic until
	// SetActiveShards rescales the dispatcher.
	Shards int
	// LatencyHistogram enables per-lane tail-latency telemetry: packets
	// are stamped (Packet.Born, unless already stamped upstream) at the
	// dispatcher and their residence — ring wait plus the whole replica
	// traversal — is recorded at shard egress into a per-lane
	// core.Histogram, published as the StatLatency histogram stat on each
	// lane and merged at the CF root. The per-lane recorder has one
	// writer (the shard worker), so recording is an uncontended atomic
	// add plus one clock read per packet.
	LatencyHistogram bool
}

// ringDepth bounds each shard's SPSC ring, in batches.
const ringDepth = 256

// shard is one replica lane: its ring, worker bookkeeping, fence channel,
// and the ingress/egress endpoints.
type shard struct {
	ring    *spscRing
	prodMu  sync.Mutex // only keeps the ring single-producer under concurrent dispatchers
	fence   chan *cut  // park requests, taken by the worker between batches
	ingress *shardIngress
	egress  *shardEgress
	lat     *core.Histogram // per-lane residence histogram (nil unless enabled)

	inflight atomic.Int64 // packets accepted but not yet through the replica
	done     chan struct{}
}

// ShardedCF is the sharded Router CF. It provides IPacketPush (and the
// batched fast path) on its boundary and exposes one "out" receptacle that
// every replica's egress merges into; the component downstream of "out" is
// pushed concurrently by all shard workers and must be safe for concurrent
// use (all standard components are). Build one with NewShardedCF, insert
// it into a capsule, and Start it like any other component.
type ShardedCF struct {
	*cf.Composite
	elementCounters
	out    *core.Receptacle[IPacketPush]
	shards []*shard
	stamp  bool // LatencyHistogram: stamp unstamped packets at intake

	// intake is the plane's one intake fence. Every PushBatch holds it
	// shared for its whole batch, so one dispatch sees one started value
	// and one lane count from start to finish; Start, Stop and park hold
	// it exclusively, so an exclusive holder knows no dispatch is in
	// flight.
	intake  sync.RWMutex
	started bool // guarded by intake
	quit    chan struct{}

	// active is the lane count the dispatcher spreads flows over
	// (1..len(shards)). It is written only under the exclusive intake
	// fence; it is atomic so stats readers never take the fence.
	active atomic.Int32

	stage sync.Pool // per-dispatch *[][]*Packet scratch, one array per shard
}

// NewShardedCF builds a sharded data plane over cfg.Shards replicas, each
// produced by build. outer supplies the component/interface registries the
// inner capsule inherits.
func NewShardedCF(outer *core.Capsule, cfg ShardConfig, build ReplicaFactory) (*ShardedCF, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("router: sharded CF needs >=1 shard, got %d", cfg.Shards)
	}
	if build == nil {
		return nil, fmt.Errorf("router: sharded CF needs a replica factory")
	}
	ctrl := &shardController{n: cfg.Shards, build: build}
	comp, err := cf.NewComposite(TypeShardedCF, outer, Rules(false), ctrl)
	if err != nil {
		return nil, err
	}
	s := &ShardedCF{
		Composite: comp,
		out:       core.NewReceptacle[IPacketPush](IPacketPushID),
		shards:    make([]*shard, cfg.Shards),
	}
	s.stage.New = func() any { st := make([][]*Packet, cfg.Shards); return &st }
	s.stamp = cfg.LatencyHistogram
	for i := range s.shards {
		sh := &shard{
			ring:    newSPSCRing(ringDepth),
			fence:   make(chan *cut),
			ingress: newShardIngress(comp.Inner()),
		}
		if cfg.LatencyHistogram {
			sh.lat = core.NewHistogram()
		}
		sh.egress = newShardEgress(s, sh.lat)
		s.shards[i] = sh
	}
	s.active.Store(int32(cfg.Shards))
	s.SetAnnotation(AnnotActiveShards, strconv.Itoa(cfg.Shards))
	s.AddReceptacle("out", s.out)
	s.Provide(IPacketPushID, s)
	ctrl.s = s
	// Configure() drives the controller over the inner capsule (building
	// every replica) and then re-checks the Router CF rules recursively.
	if err := s.Configure(); err != nil {
		return nil, err
	}
	return s, nil
}

// shardController is the composite's managing controller: it builds the
// replicas and annotates every constituent with its replica index so the
// architecture meta-space can enumerate the shards.
type shardController struct {
	s     *ShardedCF
	n     int
	build ReplicaFactory
}

// Principal implements cf.Controller.
func (c *shardController) Principal() string { return "netkit.router.sharded" }

// Configure implements cf.Controller: admit ingress/egress per shard, run
// the replica factory, wire ingress -> entry, and annotate the replica.
func (c *shardController) Configure(inner *core.Capsule) error {
	fw := c.s.Framework()
	for i := 0; i < c.n; i++ {
		sh := c.s.shards[i]
		before := make(map[string]bool)
		for _, name := range inner.ComponentNames() {
			before[name] = true
		}
		if err := fw.Admit(ShardName(i, "ingress"), sh.ingress); err != nil {
			return err
		}
		if err := fw.Admit(ShardName(i, "egress"), sh.egress); err != nil {
			return err
		}
		entry, err := c.build(i, fw)
		if err != nil {
			return fmt.Errorf("router: sharded CF: replica %d: %w", i, err)
		}
		if _, err := inner.Bind(ShardName(i, "ingress"), "out", entry, IPacketPushID); err != nil {
			return fmt.Errorf("router: sharded CF: replica %d entry: %w", i, err)
		}
		for _, name := range inner.ComponentNames() {
			if before[name] {
				continue
			}
			if comp, ok := inner.Component(name); ok {
				comp.SetAnnotation(cf.AnnotReplica, strconv.Itoa(i))
			}
		}
	}
	return nil
}

// AnnotActiveShards is the annotation through which the architecture
// meta-model sees (and rescaling updates) the active lane count.
const AnnotActiveShards = "netkit.shards.active"

// Shards returns the replica count.
func (s *ShardedCF) Shards() int { return len(s.shards) }

// ActiveShards returns how many lanes the dispatcher currently spreads
// flows over.
func (s *ShardedCF) ActiveShards() int { return int(s.active.Load()) }

// SetActiveShards rescales the dispatcher to n lanes (clamped to
// [1, Shards]) without losing a packet or breaking per-flow ordering: the
// modulus changes under park, after every already-accepted packet has
// drained through its replica, so no flow has packets in two lanes at
// once. The change is recorded on the AnnotActiveShards annotation,
// keeping the architecture meta-model's view causally connected. ctx
// bounds the drain wait. Rescaling to the current lane count is a cheap
// no-op (adaptation rules may re-fire with an unchanged target).
func (s *ShardedCF) SetActiveShards(ctx context.Context, n int) error {
	n = max(1, min(n, len(s.shards)))
	if int(s.active.Load()) == n {
		return nil
	}
	resume, err := s.park(ctx)
	if err != nil {
		return fmt.Errorf("router: sharded CF: rescale drain: %w", err)
	}
	defer resume()
	s.active.Store(int32(n))
	s.SetAnnotation(AnnotActiveShards, strconv.Itoa(n))
	return nil
}

// ---------------------------------------------------------------------------
// Lifecycle

// Start implements core.Starter: it starts the inner capsule's components
// and then one worker goroutine per shard.
func (s *ShardedCF) Start(ctx context.Context) error {
	s.intake.Lock()
	defer s.intake.Unlock()
	if s.started {
		return nil
	}
	if err := s.Composite.Start(ctx); err != nil {
		return err
	}
	s.quit = make(chan struct{})
	for _, sh := range s.shards {
		sh.done = make(chan struct{})
		go s.worker(sh, s.quit)
	}
	s.started = true
	return nil
}

// Stop implements core.Stopper: it takes the intake fence, which waits out
// every in-flight dispatch (a producer blocked on a full ring is let
// through by its still-running worker), lets every worker drain its ring
// (no accepted packet is abandoned), joins the workers, and stops the
// inner capsule. Dispatches arriving meanwhile wait, then see the CF
// stopped.
func (s *ShardedCF) Stop(ctx context.Context) error {
	s.intake.Lock()
	defer s.intake.Unlock()
	if !s.started {
		return nil
	}
	s.started = false
	close(s.quit)
	for _, sh := range s.shards {
		<-sh.done
	}
	return s.Composite.Stop(ctx)
}

// worker services one shard: it runs every ring batch through the
// replica, and between batches it is the lane's fence — a park request
// makes it drain the ring and wait at that boundary until resumed.
func (s *ShardedCF) worker(sh *shard, quit <-chan struct{}) {
	defer close(sh.done)
	var b []*Packet // the batch in hand, handed back to the ring on the next dequeue
	drain := func() {
		for ok := true; ok; {
			if b, ok = sh.ring.tryDequeue(b); ok {
				_ = sh.ingress.fuse.Forward(b)
				sh.inflight.Add(-int64(len(b)))
			}
		}
	}
	for {
		drain()
		select {
		case <-sh.ring.wake:
		case c := <-sh.fence:
			drain()
			c.parked <- struct{}{}
			<-c.resume
		case <-quit:
			// Everything enqueued before quit closed is still delivered,
			// so Stop loses nothing.
			drain()
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Dispatch (the RSS fast path)

// Push implements IPacketPush. Sustained traffic should arrive via
// PushBatch.
func (s *ShardedCF) Push(p *Packet) error { return pushOne(s, p) }

// PushBatch implements IPacketPushBatch: the batch is split by flow hash
// into per-shard sub-batches (in per-dispatch stage arrays) which enter
// each shard's ring as single hand-offs. Per-flow arrival order is
// preserved: one flow hashes to one shard, sub-batches keep slice order,
// and rings are FIFO. The whole batch is dispatched under the shared intake fence,
// so a rescale never lands mid-batch: it waits for the dispatch, then
// drains every lane before switching the modulus. The incoming slice is
// not retained.
func (s *ShardedCF) PushBatch(batch []*Packet) error {
	if len(batch) == 0 {
		return nil
	}
	if s.stamp {
		// One clock read covers the whole batch, taken before the fence so
		// a park's back-pressure counts as residence; packets stamped
		// upstream (a driver measuring end-to-end latency) keep their
		// earlier Born.
		now := Nanotime()
		for _, p := range batch {
			if p.Born == 0 {
				p.Born = now
			}
		}
	}
	s.intake.RLock()
	defer s.intake.RUnlock()
	s.in.Add(uint64(len(batch)))
	if !s.started {
		s.dropped.Add(uint64(len(batch)))
		for _, p := range batch {
			p.Release()
		}
		return ErrStopped
	}
	n := uint32(s.active.Load())
	if n == 1 {
		s.dispatch(s.shards[0], batch)
		return nil
	}
	stage := s.stage.Get().(*[][]*Packet)
	st := *stage
	for _, p := range batch {
		i := FlowHash(p) % n
		st[i] = append(st[i], p)
	}
	for i, b := range st {
		if len(b) > 0 {
			s.dispatch(s.shards[i], b)
			clear(b)
			st[i] = b[:0]
		}
	}
	s.stage.Put(stage)
	return nil
}

// dispatch copies one sub-batch into a shard's ring, blocking for space
// (back-pressure, never loss); the ring keeps none of b, so the caller
// reuses it. The caller holds the intake fence shared, so the CF stays
// started and the worker keeps consuming until the enqueue completes.
func (s *ShardedCF) dispatch(sh *shard, b []*Packet) {
	sh.prodMu.Lock()
	sh.inflight.Add(int64(len(b)))
	sh.ring.enqueue(b)
	sh.prodMu.Unlock()
}

// cut is one park: every parked worker sends one token on parked
// (buffered for every lane, so the send never blocks) and waits for
// resume to close.
type cut struct {
	parked chan struct{}
	resume chan struct{}
}

// park brings the CF to a consistent cut and returns the function that
// ends it. It takes the intake fence exclusively (so it never races Start,
// Stop or a dispatch, and intake back-pressures: nothing is lost), then
// asks each started worker to drain its ring and wait at that batch
// boundary, and returns once every worker is parked: no packet is in
// flight anywhere in any replica until resume is called. A never-started
// or stopped CF has no workers and empty rings, so it is parked at once.
// If ctx expires first, every worker is released, the fence is dropped and
// ctx.Err() is returned. A producer blocked on a full ring holds the fence
// shared until its worker makes room, so park waits for it before ctx is
// consulted.
func (s *ShardedCF) park(ctx context.Context) (resume func(), err error) {
	s.intake.Lock()
	c := &cut{parked: make(chan struct{}, len(s.shards)), resume: make(chan struct{})}
	resume = func() {
		close(c.resume)
		s.intake.Unlock()
	}
	if !s.started {
		return resume, nil
	}
	for _, sh := range s.shards {
		select {
		case sh.fence <- c:
		case <-ctx.Done():
			resume()
			return nil, ctx.Err()
		}
	}
	for range s.shards {
		select {
		case <-c.parked:
		case <-ctx.Done():
			resume()
			return nil, ctx.Err()
		}
	}
	return resume, nil
}

// Quiesce blocks until every packet accepted before the call has been
// handed INTO its replica (rings empty, workers between batches), or ctx
// expires. It does not wait for packets buffered inside replica components
// — a replica containing a queue drained by a scheduler pump may still
// hold packets when Quiesce returns; wait on downstream counters for full
// drainage. Producers block for its duration; with producers still active
// the answer is stale the moment it returns.
func (s *ShardedCF) Quiesce(ctx context.Context) error {
	resume, err := s.park(ctx)
	if err == nil {
		resume()
	}
	return err
}

// ---------------------------------------------------------------------------
// Meta-space surface

// shardBindings resolves the binding rooted at (component, receptacle) in
// every replica, in shard order. component is the unscoped name.
func (s *ShardedCF) shardBindings(component, receptacle string) ([]core.BindingID, error) {
	inner := s.Inner()
	ids := make([]core.BindingID, 0, len(s.shards))
	for i := range s.shards {
		scoped := ShardName(i, component)
		var found *core.Binding
		for _, b := range inner.BindingsOf(scoped) {
			from, recp := b.From()
			if from == scoped && recp == receptacle {
				found = b
				break
			}
		}
		if found == nil {
			return nil, fmt.Errorf("router: sharded CF: no binding at %s.%s: %w",
				scoped, receptacle, core.ErrNotFound)
		}
		ids = append(ids, found.ID())
	}
	return ids, nil
}

// Intercept installs a named Around on the binding rooted at (component,
// receptacle) — unscoped names, e.g. ("ingress", "out") — of EVERY
// replica, all-or-nothing: if any replica refuses, the interceptor is
// rolled back off the replicas it reached and the CF is unchanged. The
// same Around value observes every shard, so an accumulating interceptor
// (an audit counting via PacketCount) aggregates across shards by
// construction.
//
// The install runs under park, so it is an exact cut: every packet
// accepted before Intercept has crossed its replica before the
// interceptor exists, and every packet pushed after Intercept returns
// crosses it (a fused run bypasses the binding, but the install retired
// every lane's plan before the lanes resume). Removal needs no cut: a
// hop-by-hop batch in flight during Unintercept crosses the chain at the
// binding, the ordinary batch-boundary semantics.
func (s *ShardedCF) Intercept(component, receptacle, name string, around core.Around) error {
	ids, err := s.shardBindings(component, receptacle)
	if err != nil {
		return err
	}
	resume, _ := s.park(context.TODO()) // fails only when its context ends
	defer resume()
	return s.Inner().AddInterceptorAll(ids, core.Interceptor{Name: name, Wrap: around})
}

// Unintercept removes the named interceptor from every replica's binding
// rooted at (component, receptacle).
func (s *ShardedCF) Unintercept(component, receptacle, name string) error {
	ids, err := s.shardBindings(component, receptacle)
	if err != nil {
		return err
	}
	return s.Inner().RemoveInterceptorAll(ids, name)
}

// ---------------------------------------------------------------------------
// Managed reconfiguration

// HotSwap replaces the component known (unscoped) as oldName in EVERY
// replica with a fresh instance from mk, without losing a packet: the
// swaps run under park, so no call is in flight anywhere in any replica;
// each swap rebinds atomically and migrates Exportable state
// (router.HotSwap); the workers resume. Traffic arriving during the swap
// back-pressures at the lanes' intake, never lost. On error some replicas
// may have been swapped and others not — the error names the failing
// shard; retrying with the same arguments re-attempts only the unswapped
// replicas' names.
func (s *ShardedCF) HotSwap(oldName, newName string, mk func(shard int) (core.Component, error)) error {
	resume, _ := s.park(context.TODO()) // fails only when its context ends
	defer resume()
	inner := s.Inner()
	for i := range s.shards {
		// Idempotence across retries: a shard already carrying newName
		// (and no oldName) was swapped by a previous partially-failed
		// call and is skipped, so retrying with the same arguments
		// re-attempts only the unswapped replicas.
		_, hasOld := inner.Component(ShardName(i, oldName))
		_, hasNew := inner.Component(ShardName(i, newName))
		switch {
		case !hasOld && hasNew:
			continue
		case !hasOld:
			return fmt.Errorf("router: sharded CF: shard %d: %q: %w",
				i, ShardName(i, oldName), core.ErrNotFound)
		case hasNew:
			// A previous swap of this shard failed after inserting the
			// replacement but before diverting traffic (router.HotSwap's
			// documented failure mode). Remove the abandoned remnant so
			// the retry can re-insert cleanly.
			if err := removeAbandoned(inner, ShardName(i, newName)); err != nil {
				return fmt.Errorf("router: sharded CF: shard %d: stale %q: %w",
					i, ShardName(i, newName), err)
			}
		}
		repl, err := mk(i)
		if err != nil {
			return fmt.Errorf("router: sharded CF: shard %d replacement: %w", i, err)
		}
		repl.SetAnnotation(cf.AnnotReplica, strconv.Itoa(i))
		if err := HotSwap(inner, ShardName(i, oldName), ShardName(i, newName), repl); err != nil {
			return fmt.Errorf("router: sharded CF: shard %d: %w", i, err)
		}
	}
	return nil
}

// removeAbandoned dismantles a replacement component a failed HotSwap left
// behind with no traffic diverted to it: its outgoing bindings are unbound,
// it is stopped if started, and removed. If any binding still targets the
// component (traffic WAS diverted), it is left alone and an error reports
// that the capsule needs manual repair.
func removeAbandoned(c *core.Capsule, name string) error {
	for _, b := range c.BindingsOf(name) {
		if to, _ := b.To(); to == name {
			return fmt.Errorf("router: %q still receives traffic (binding #%d): %w",
				name, b.ID(), core.ErrAlreadyBound)
		}
	}
	for _, b := range c.BindingsOf(name) {
		if err := c.Unbind(b.ID()); err != nil {
			return err
		}
	}
	if c.Started(name) {
		if err := c.StopComponent(context.Background(), name); err != nil {
			return err
		}
	}
	return c.Remove(name)
}

// ---------------------------------------------------------------------------
// Stats

// ElemStats reports the CF as one element: In counts packets offered to
// the dispatcher, Out packets merged out of the egresses, Dropped/Errors
// aggregate the dispatcher (pushes refused by a stopped CF) and the
// endpoints.
func (s *ShardedCF) ElemStats() ElementStats {
	agg := s.snapshot()
	for _, sh := range s.shards {
		e := sh.egress.snapshot()
		agg.Out += e.Out
		agg.Dropped += e.Dropped
		agg.Errors += e.Errors
		agg.Dropped += sh.ingress.snapshot().Dropped
	}
	return agg
}

// ShardStats reports one replica lane: In/Out/Dropped/Errors across its
// ingress and egress endpoints.
func (s *ShardedCF) ShardStats(i int) ElementStats {
	sh := s.shards[i]
	in := sh.ingress.snapshot()
	eg := sh.egress.snapshot()
	return ElementStats{
		In:      in.In,
		Out:     eg.Out,
		Dropped: in.Dropped + eg.Dropped,
		Errors:  in.Errors + eg.Errors,
	}
}

// Stats implements core.IStats for the CF as one element (merged across
// the dispatcher and every lane endpoint), plus the lane-count gauges.
// Defined explicitly: the embedded cf.Composite and elementCounters both
// carry a Stats method, and the merged element view is the right one.
func (s *ShardedCF) Stats() []core.Stat {
	st := s.ElemStats()
	out := []core.Stat{
		core.C("packets_in", "packets", st.In),
		core.C("packets_out", "packets", st.Out),
		core.C("packets_dropped", "packets", st.Dropped),
		core.C("errors", "errors", st.Errors),
		core.G("shards", "lanes", float64(len(s.shards))),
		core.G("shards_active", "lanes", float64(s.active.Load())),
	}
	if s.stamp {
		// The CF-level latency view is the bucket-wise merge of the lane
		// histograms — exactly the distribution of all packets' residence.
		var merged *core.HistSnapshot
		for _, sh := range s.shards {
			merged = merged.Merge(sh.lat.Snapshot())
		}
		out = append(out, core.H(StatLatency, "ns", merged))
	}
	return out
}

// laneStats is one replica lane's uniform snapshot: its element counters
// plus the SPSC ring's depth and back-pressure stalls.
func (s *ShardedCF) laneStats(i int) []core.Stat {
	sh := s.shards[i]
	st := s.ShardStats(i)
	out := []core.Stat{
		core.C("packets_in", "packets", st.In),
		core.C("packets_out", "packets", st.Out),
		core.C("packets_dropped", "packets", st.Dropped),
		core.C("errors", "errors", st.Errors),
		core.G("ring_batches", "batches", float64(sh.ring.len())),
		core.C("ring_stalls", "stalls", sh.ring.stalls.Load()),
		core.G("inflight", "packets", float64(sh.inflight.Load())),
	}
	if sh.lat != nil {
		out = append(out, core.H(StatLatency, "ns", sh.lat.Snapshot()))
	}
	// The fused gauge (hops in the lane's compiled plan, 0 while
	// de-specialised) plus specialisation churn — the reflective loop's
	// view of whether this lane is running flat-out or hop by hop under
	// meta-level activity.
	return append(out, sh.ingress.fuse.statList()...)
}

// StatsTree implements core.IStatsTree: the CF's own merged stats at the
// root, one "shard<i>" child per replica lane carrying the lane counters
// and ring gauges, and under each lane the replica's inner constituents
// (grouped by their cf.AnnotReplica annotation). This is how a sharded
// data plane stays ONE component to the meta-space while the stats
// capability still resolves per-replica detail.
func (s *ShardedCF) StatsTree() core.StatNode {
	node := core.StatNode{Type: s.TypeName(), Stats: s.Stats()}
	inner := s.Inner()
	replicas := s.Replicas()
	for i := range s.shards {
		lane := core.StatNode{
			Name:  "shard" + strconv.Itoa(i),
			Stats: s.laneStats(i),
		}
		for _, name := range replicas[strconv.Itoa(i)] {
			comp, ok := inner.Component(name)
			if !ok {
				continue
			}
			lane.Children = append(lane.Children, core.ComponentStats(name, comp))
		}
		node.Children = append(node.Children, lane)
	}
	return node
}

// ---------------------------------------------------------------------------
// Per-shard endpoints

// shardIngress is the worker-driven head of one replica: its "out"
// receptacle is the first-class (and therefore interceptable/auditable)
// binding into the replica's entry component.
type shardIngress struct {
	*core.Base
	elementCounters
	out *core.Receptacle[IPacketPush]
	// fuse runs each ring batch into the replica: through one compiled
	// plan while the chain is interceptor-free (DESIGN.md §8), through the
	// ingress's own one-hop plan while it is intercepted or mid-mutation.
	fuse *ChainFuser
}

// newShardIngress builds the head of a replica that inner will hold. The
// fuser attaches before the replica is wired; wiring it is a structural
// mutation like any other, so the lane fuses on first traffic.
func newShardIngress(inner *core.Capsule) *shardIngress {
	g := &shardIngress{Base: core.NewBase(TypeShardIngress)}
	g.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	g.AddReceptacle("out", g.out)
	g.fuse = newChainFuser(inner, fuseStep{kind: stepPass, counters: &g.elementCounters, out: g.out})
	return g
}

// shardEgress is the tail of one replica: replicas bind their last
// component to it, and it merges into the parent CF's shared "out"
// receptacle. The merge is batch-aware (whole batches cross) and
// concurrent (every shard worker pushes), relying on the downstream
// component's own thread-safety.
type shardEgress struct {
	*core.Base
	elementCounters
	parent *ShardedCF
	lat    *core.Histogram // lane residence histogram; nil unless enabled
}

func newShardEgress(parent *ShardedCF, lat *core.Histogram) *shardEgress {
	e := &shardEgress{Base: core.NewBase(TypeShardEgress), parent: parent, lat: lat}
	e.Provide(IPacketPushID, e)
	return e
}

// latencySample is the residence-latency predicate: unstamped packets
// (Born <= 0) and clock regressions (now < born) yield no sample; a zero
// duration IS a sample.
func latencySample(now, born int64) (uint64, bool) {
	if born <= 0 || now < born {
		return 0, false
	}
	return uint64(now - born), true
}

// Push implements IPacketPush.
func (e *shardEgress) Push(p *Packet) error { return pushOne(e, p) }

// PushBatch implements IPacketPushBatch. Latency is recorded against one
// clock read for the whole batch, before the downstream hand-off, so the
// lane histogram measures intake-to-egress residence (ring wait plus the
// replica traversal), not the consumer beyond the merge.
func (e *shardEgress) PushBatch(batch []*Packet) error {
	e.in.Add(uint64(len(batch)))
	if e.lat != nil {
		now := Nanotime()
		for _, p := range batch {
			if d, ok := latencySample(now, p.Born); ok {
				e.lat.Record(d)
			}
		}
	}
	return e.forwardBatch(e.parent.out, batch)
}

var (
	_ core.Starter     = (*ShardedCF)(nil)
	_ core.Stopper     = (*ShardedCF)(nil)
	_ IPacketPushBatch = (*ShardedCF)(nil)
	_ IPacketPushBatch = (*shardEgress)(nil)
	_ StatsReporter    = (*ShardedCF)(nil)
	_ core.IStats      = (*ShardedCF)(nil)
	_ core.IStatsTree  = (*ShardedCF)(nil)
	_ core.Component   = (*ShardedCF)(nil)
)
