package router

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"netkit/core"
	"netkit/internal/filter"
)

// Classifier routes packets to named outputs according to installed filter
// specifications. It provides IClassifier, honouring §5's rule: "the
// component must honour the semantics of installed filter specifications
// in terms of the particular named outgoing IPacketPush ... interface(s)
// on which each incoming packet should be emitted". Output slots can be
// added and removed at run time — the CF re-checks its rules afterwards.
type Classifier struct {
	*core.Base
	elementCounters
	table *filter.Table

	mu   sync.Mutex // serialises output-set mutators (control path)
	outs map[string]*core.Receptacle[IPacketPush]
	// snap is the data path's copy-on-write view of the output set: one
	// atomic load per packet (or per batch scan), no locks — the same
	// discipline receptacles use. Mutators republish it under mu.
	snap atomic.Pointer[clsOutputs]
	// cache is the megaflow verdict cache (flowcache.go); nil when
	// disabled. Swapped whole on resize, so the data path never sees a
	// half-built cache. It only engages when the compiled table snapshot
	// reports CacheWorthwhile (flow-pure verdicts, non-trivial table).
	cache atomic.Pointer[FlowCache]
}

// clsOutputs is an immutable output-set snapshot.
type clsOutputs struct {
	outs  map[string]*core.Receptacle[IPacketPush]
	deflt *core.Receptacle[IPacketPush] // optional "default" output
}

// publishLocked rebuilds the data-path snapshot. Caller holds c.mu.
func (c *Classifier) publishLocked() {
	outs := make(map[string]*core.Receptacle[IPacketPush], len(c.outs))
	for name, r := range c.outs {
		outs[name] = r
	}
	c.snap.Store(&clsOutputs{outs: outs, deflt: outs["default"]})
}

// NewClassifier creates a classifier with the named output slots. A slot
// named "default" receives unmatched packets; without one, unmatched
// packets are dropped (counted).
func NewClassifier(outputs ...string) (*Classifier, error) {
	if len(outputs) == 0 {
		return nil, fmt.Errorf("router: classifier needs >=1 output")
	}
	c := &Classifier{
		Base:  core.NewBase(TypeClassifier),
		table: filter.NewTable(),
		outs:  make(map[string]*core.Receptacle[IPacketPush], len(outputs)),
	}
	c.publishLocked() // empty snapshot; AddOutput republishes
	c.cache.Store(NewFlowCache(DefaultFlowCacheCap))
	for _, name := range outputs {
		if err := c.AddOutput(name); err != nil {
			return nil, err
		}
	}
	c.Provide(IPacketPushID, c)
	c.Provide(IClassifierID, c)
	return c, nil
}

// AddOutput creates a new named output slot at run time.
func (c *Classifier) AddOutput(name string) error {
	if name == "" {
		return fmt.Errorf("router: empty output name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.outs[name]; ok {
		return fmt.Errorf("router: output %q: %w", name, core.ErrAlreadyExists)
	}
	r := core.NewReceptacle[IPacketPush](IPacketPushID)
	c.outs[name] = r
	c.AddReceptacle(name, r)
	c.publishLocked()
	return nil
}

// RemoveOutput removes an unbound output slot; filters routed to it keep
// their names and simply drop until (if ever) the slot is re-added.
func (c *Classifier) RemoveOutput(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.outs[name]
	if !ok {
		return fmt.Errorf("router: output %q: %w", name, core.ErrNotFound)
	}
	if r.Bound() {
		return fmt.Errorf("router: output %q: %w", name, core.ErrAlreadyBound)
	}
	if err := c.RemoveReceptacle(name); err != nil {
		return err
	}
	delete(c.outs, name)
	c.publishLocked()
	return nil
}

// RegisterFilter implements IClassifier.
func (c *Classifier) RegisterFilter(spec string, priority int, output string) (uint64, error) {
	if _, ok := c.snap.Load().outs[output]; !ok {
		return 0, fmt.Errorf("router: register_filter to unknown output %q: %w",
			output, core.ErrNotFound)
	}
	return c.table.Add(spec, priority, output)
}

// UnregisterFilter implements IClassifier.
func (c *Classifier) UnregisterFilter(id uint64) error {
	return c.table.Remove(id)
}

// FilterOutputs implements IClassifier.
func (c *Classifier) FilterOutputs() []string {
	snap := c.snap.Load()
	out := make([]string, 0, len(snap.outs))
	for n := range snap.outs {
		out = append(out, n)
	}
	return out
}

// Rules returns the installed filter rules (diagnostic).
func (c *Classifier) Rules() []filter.Rule { return c.table.Rules() }

// pick maps a classification verdict to the output receptacle (nil = drop)
// against this output-set snapshot. Cached verdicts carry the output NAME,
// not the receptacle, so output-topology changes need no invalidation.
func (s *clsOutputs) pick(v flowVerdict) *core.Receptacle[IPacketPush] {
	if v.matched {
		return s.outs[v.out]
	}
	return s.deflt
}

// resolve classifies p with the megaflow fast path: probe the verdict
// cache on the packet's flow hash (exact-key, generation-fenced — see
// flowcache.go), fall back to the compiled table on a miss, and install
// the computed verdict for the flow's successors. fv is nil when the cache
// is off for this batch: then this is exactly the uncached compiled lookup.
func resolve(ts *filter.Snapshot, fv *cacheVisit, p *Packet) flowVerdict {
	if fv == nil {
		out, matched := ts.Lookup(p.View())
		return flowVerdict{out: out, matched: matched}
	}
	key := flowKeyOf(p.View())
	h := FlowHash(p)
	if v, ok := fv.probe(h, key); ok {
		return v
	}
	out, matched := ts.Lookup(p.View())
	v := flowVerdict{out: out, matched: matched}
	fv.insert(h, key, v)
	return v
}

// outputSlots maps one chunk's verdicts to scatter slots. Each distinct
// verdict is resolved to its receptacle once, and verdicts that reach the
// same receptacle (a rule routed to "default" and the unmatched path, or
// two unknown outputs dropping) share a slot, so every output keeps
// arrival order.
type outputSlots struct {
	verdicts [demuxChunk]flowVerdict
	slots    [demuxChunk]uint8
	nv       int
	to       [demuxChunk]*core.Receptacle[IPacketPush]
	n        int
}

func (m *outputSlots) slot(snap *clsOutputs, v flowVerdict) uint8 {
	for i := 0; i < m.nv; i++ {
		if m.verdicts[i] == v {
			return m.slots[i]
		}
	}
	r := snap.pick(v)
	s := 0
	for s < m.n && m.to[s] != r {
		s++
	}
	if s == m.n {
		m.to[s] = r
		m.n++
	}
	m.verdicts[m.nv], m.slots[m.nv] = v, uint8(s)
	m.nv++
	return uint8(s)
}

// PushBatch implements IPacketPush: each packet is classified once,
// then every output's packets leave as ONE sub-batch (scatter). Order is
// arrival order per output; packets of different outputs are no longer
// interleaved with each other. Unmatched packets with no default output
// are dropped.
// The output-set snapshot, compiled-table snapshot, and cache reference
// are all loaded once for the whole batch, so every packet in the batch
// is classified against one frozen rule generation; the cache's hit/miss
// counters and LRU clock are advanced once per batch (cacheVisit).
func (c *Classifier) PushBatch(batch []*Packet) error {
	c.in.Add(uint64(len(batch)))
	snap := c.snap.Load()
	ts := c.table.Snapshot()
	var fv *cacheVisit
	if fc := c.cache.Load(); fc != nil && ts.CacheWorthwhile() {
		v := fc.visit(ts.Gen(), len(batch))
		fv = &v
	}
	var agg batchErrAgg
	var m outputSlots
	var slot [demuxChunk]uint8
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), demuxChunk)]
		batch = batch[len(chunk):]
		m.nv, m.n = 0, 0
		for i, p := range chunk {
			slot[i] = m.slot(snap, resolve(ts, fv, p))
		}
		c.scatter(chunk, slot[:len(chunk)], m.to[:m.n], &agg)
	}
	if fv != nil {
		fv.settle()
	}
	return agg.err()
}

// FlowCache returns the live verdict cache (nil when disabled).
func (c *Classifier) FlowCache() *FlowCache { return c.cache.Load() }

// FlowCacheResize replaces the verdict cache with a fresh one of the given
// capacity (entries; rounded up to the set geometry). capacity <= 0
// disables caching. The swap is atomic: in-flight batches finish against
// the cache they loaded, new batches see the new one — the same hot-swap
// discipline as the output-set snapshot. This is the hook the adapt
// plane's ResizeFlowCache action drives.
func (c *Classifier) FlowCacheResize(capacity int) error {
	if capacity <= 0 {
		c.cache.Store(nil)
		return nil
	}
	c.cache.Store(NewFlowCache(capacity))
	return nil
}

// FlowCacheFlush drops every cached verdict (capacity and counters keep).
func (c *Classifier) FlowCacheFlush() {
	if fc := c.cache.Load(); fc != nil {
		fc.Flush()
	}
}

// Stats implements core.IStats, adding the output-set and filter-table
// sizes so the control plane sees classification capacity, not just flow.
func (c *Classifier) Stats() []core.Stat {
	snap := c.snap.Load()
	stats := append(c.statList(),
		core.G("classifier_outputs", "outputs", float64(len(snap.outs))),
		core.G("classifier_filters", "filters", float64(c.table.Len())))
	fc := c.cache.Load()
	if fc == nil {
		return append(stats, core.G("flowcache_capacity", "entries", 0))
	}
	hits, misses, evicts := fc.Counters()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return append(stats,
		core.C("flowcache_hits", "lookups", hits),
		core.C("flowcache_misses", "lookups", misses),
		core.C("flowcache_evictions", "entries", evicts),
		core.G("flowcache_entries", "entries", float64(fc.Len())),
		core.G("flowcache_capacity", "entries", float64(fc.Cap())),
		// Unit "ratio" so CF-root merges AVERAGE lane hit rates rather
		// than summing them, weighted by lookups so an idle lane's stale
		// rate carries nothing (core.MergeStats convention).
		core.GW("flowcache_hitrate", "ratio", rate, float64(hits+misses)))
}

func init() {
	core.Components.MustRegister(TypeClassifier, func(cfg map[string]string) (core.Component, error) {
		n, err := configInt(cfg, "outputs", 1)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, n+1)
		for i := 0; i < n; i++ {
			names = append(names, "out"+strconv.Itoa(i))
		}
		if cfg["default"] != "false" {
			names = append(names, "default")
		}
		c, err := NewClassifier(names...)
		if err != nil {
			return nil, err
		}
		if s, ok := cfg["flowcache"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("router: classifier flowcache: %w", err)
			}
			if err := c.FlowCacheResize(v); err != nil {
				return nil, err
			}
		}
		return c, nil
	})
}
