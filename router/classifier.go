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

// Push implements IPacketPush.
func (c *Classifier) Push(p *Packet) error { return pushOne(c, p) }

// pick maps a classification verdict to the output receptacle (nil = drop)
// against this output-set snapshot. Cached verdicts carry the output NAME,
// not the receptacle, so output-topology changes need no invalidation.
func (s *clsOutputs) pick(name string, matched bool) *core.Receptacle[IPacketPush] {
	if matched {
		return s.outs[name]
	}
	return s.deflt
}

// resolve classifies p with the megaflow fast path: probe the verdict
// cache on the packet's flow hash (exact-key, generation-fenced — see
// flowcache.go), fall back to the compiled table on a miss, and install
// the computed verdict for the flow's successors. The cache engages only
// when the table snapshot is flow-safe and big enough to beat a probe;
// otherwise this is exactly the uncached compiled lookup.
func (c *Classifier) resolve(snap *clsOutputs, ts *filter.Snapshot, fc *FlowCache, p *Packet) *core.Receptacle[IPacketPush] {
	if fc != nil && ts.CacheWorthwhile() {
		key := flowKeyOf(p.View())
		h := FlowHash(p)
		if v, ok := fc.probe(h, key, ts.Gen()); ok {
			return snap.pick(v.out, v.matched)
		}
		out, matched := ts.Lookup(p.View())
		fc.insert(h, key, ts.Gen(), flowVerdict{out: out, matched: matched})
		return snap.pick(out, matched)
	}
	out, matched := ts.Lookup(p.View())
	return snap.pick(out, matched)
}

// PushBatch implements IPacketPushBatch: each packet is classified
// individually, then maximal runs routed to the same output are forwarded
// as sub-batches of the incoming slice (no per-output copying), so
// per-output order is arrival order. Unmatched packets with no default
// output are dropped.
// The output-set snapshot, compiled-table snapshot, and cache reference
// are all loaded once for the whole batch, so every packet in the batch
// is classified against one frozen rule generation.
func (c *Classifier) PushBatch(batch []*Packet) error {
	c.in.Add(uint64(len(batch)))
	snap := c.snap.Load()
	ts := c.table.Snapshot()
	fc := c.cache.Load()
	return c.splitRuns(batch, func(p *Packet) *core.Receptacle[IPacketPush] {
		return c.resolve(snap, ts, fc, p)
	})
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
		core.G("classifier_filters", "filters", float64(len(c.table.Rules()))))
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
		n := 1
		if s, ok := cfg["outputs"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("router: classifier outputs: %w", err)
			}
			n = v
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
