package router

import (
	"fmt"
	"testing"
)

// clsRuleCount is enough rules to push the table past the compiler's
// linear cutoff, so the snapshot is cache-worthy.
const clsRuleCount = 8

// buildCachedClassifier wires a classifier with clsRuleCount udp/dst-port
// rules to outputs "a"/"b" plus a default sink, and returns the sinks.
func buildCachedClassifier(t *testing.T) (*Classifier, *sink, *sink, *sink) {
	t.Helper()
	c := newCap()
	cls, err := NewClassifier("a", "b", "default")
	if err != nil {
		t.Fatal(err)
	}
	sa, sb, sd := newSink(), newSink(), newSink()
	for name, comp := range map[string]*sink{"sa": sa, "sb": sb, "sd": sd} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert("cls", cls); err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]string{{"a", "sa"}, {"b", "sb"}, {"default", "sd"}} {
		if _, err := ConnectPush(c, "cls", w[0], w[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < clsRuleCount; i++ {
		out := "a"
		if i%2 == 1 {
			out = "b"
		}
		if _, err := cls.RegisterFilter(fmt.Sprintf("udp and dst port %d", 1000+i), 1, out); err != nil {
			t.Fatal(err)
		}
	}
	return cls, sa, sb, sd
}

// TestFlowCacheHitPath: the second packet of a flow is served from the
// cache, routes identically, and the hit/miss counters tell the story.
func TestFlowCacheHitPath(t *testing.T) {
	cls, sa, _, sd := buildCachedClassifier(t)
	fc := cls.FlowCache()
	if fc == nil {
		t.Fatal("cache should be on by default")
	}
	for i := 0; i < 3; i++ {
		if err := cls.Push(udpPkt(t, 1000, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // unmatched flow: default verdict caches too
		if err := cls.Push(udpPkt(t, 9999, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sa.pkts) != 3 || len(sd.pkts) != 2 {
		t.Fatalf("routing diverged: a=%d default=%d", len(sa.pkts), len(sd.pkts))
	}
	hits, misses, _ := fc.Counters()
	if misses != 2 || hits != 3 {
		t.Fatalf("hits=%d misses=%d, want 3/2", hits, misses)
	}
	if fc.Len() != 2 {
		t.Fatalf("occupancy %d, want 2", fc.Len())
	}
}

// TestFlowCacheGenerationFence: a rule mutation must make every prior
// entry unservable — the very next packet of a cached flow reclassifies
// under the new rules and routes by them.
func TestFlowCacheGenerationFence(t *testing.T) {
	cls, sa, sb, _ := buildCachedClassifier(t)
	p := func() *Packet { return udpPkt(t, 1000, 64) }
	if err := cls.Push(p()); err != nil { // miss; caches verdict "a"
		t.Fatal(err)
	}
	if err := cls.Push(p()); err != nil { // hit
		t.Fatal(err)
	}
	// Shadow the flow's rule with a higher-priority route to "b".
	if _, err := cls.RegisterFilter("udp and dst port 1000", 0, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cls.Push(p()); err != nil {
		t.Fatal(err)
	}
	if len(sa.pkts) != 2 || len(sb.pkts) != 1 {
		t.Fatalf("stale verdict served: a=%d b=%d, want 2/1", len(sa.pkts), len(sb.pkts))
	}
	hits, misses, _ := cls.FlowCache().Counters()
	if hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2 (post-swap probe must miss)", hits, misses)
	}
}

// TestFlowCacheDisabledForUnsafeRules: a ttl-comparing rule disables the
// cache (verdicts are not flow-pure), and lookups bypass it entirely.
func TestFlowCacheDisabledForUnsafeRules(t *testing.T) {
	cls, sa, _, _ := buildCachedClassifier(t)
	if _, err := cls.RegisterFilter("ttl < 10", 0, "a"); err != nil {
		t.Fatal(err)
	}
	for ttl := uint8(5); ttl <= 15; ttl += 10 { // same 5-tuple, different ttl
		if err := cls.Push(udpPkt(t, 1000, ttl)); err != nil {
			t.Fatal(err)
		}
	}
	// ttl=5 matches the ttl rule -> a; ttl=15 falls to the port rule -> a.
	if len(sa.pkts) != 2 {
		t.Fatalf("a=%d, want 2", len(sa.pkts))
	}
	hits, misses, _ := cls.FlowCache().Counters()
	if hits != 0 || misses != 0 {
		t.Fatalf("cache touched (%d/%d) despite unsafe rules", hits, misses)
	}
}

// TestFlowCacheResizeAndFlush: resize swaps the cache atomically (fresh
// counters, new capacity), 0 disables, and flush empties without
// disturbing capacity.
func TestFlowCacheResizeAndFlush(t *testing.T) {
	cls, _, _, _ := buildCachedClassifier(t)
	if err := cls.FlowCacheResize(128); err != nil {
		t.Fatal(err)
	}
	fc := cls.FlowCache()
	if fc.Cap() != 128 {
		t.Fatalf("cap %d, want 128", fc.Cap())
	}
	if err := cls.Push(udpPkt(t, 1000, 64)); err != nil {
		t.Fatal(err)
	}
	if fc.Len() != 1 {
		t.Fatalf("len %d, want 1", fc.Len())
	}
	cls.FlowCacheFlush()
	if fc.Len() != 0 {
		t.Fatalf("len %d after flush, want 0", fc.Len())
	}
	if err := cls.FlowCacheResize(0); err != nil {
		t.Fatal(err)
	}
	if cls.FlowCache() != nil {
		t.Fatal("resize(0) should disable the cache")
	}
	if err := cls.Push(udpPkt(t, 1000, 64)); err != nil { // still classifies
		t.Fatal(err)
	}
}

// TestFlowCacheEviction: a 1-set cache (flowWays entries) overflows by
// distinct flows; evictions are counted and occupancy stays bounded.
func TestFlowCacheEviction(t *testing.T) {
	fc := NewFlowCache(flowWays) // single set
	gen := uint64(1)
	for i := 0; i < flowWays*3; i++ {
		key := flowKey{srcPort: uint16(i), version: 4}
		fc.insert(0, key, gen, flowVerdict{out: "x", matched: true})
	}
	if fc.Len() != flowWays {
		t.Fatalf("occupancy %d, want %d", fc.Len(), flowWays)
	}
	_, _, evicts := fc.Counters()
	if evicts != uint64(flowWays*2) {
		t.Fatalf("evicts %d, want %d", evicts, flowWays*2)
	}
	// LRU: touch way for key 8..11 except 9; insert a new flow; 9 is gone.
	for i := flowWays * 2; i < flowWays*3; i++ {
		if i == flowWays*2+1 {
			continue
		}
		if _, ok := fc.probe(0, flowKey{srcPort: uint16(i), version: 4}, gen); !ok {
			t.Fatalf("flow %d should be resident", i)
		}
	}
	fc.insert(0, flowKey{srcPort: 999, version: 4}, gen, flowVerdict{})
	if _, ok := fc.probe(0, flowKey{srcPort: uint16(flowWays*2 + 1), version: 4}, gen); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := fc.probe(0, flowKey{srcPort: 999, version: 4}, gen); !ok {
		t.Fatal("new entry missing")
	}
}

// TestFlowCacheRecencyWithinBatch: one batch's pass takes one clock add
// yet keeps per-lookup recency, so the flow the batch touched first is the
// one evicted next — not whichever way a tie would pick.
func TestFlowCacheRecencyWithinBatch(t *testing.T) {
	fc := NewFlowCache(flowWays) // single set
	const gen = 1
	key := func(i int) flowKey { return flowKey{srcPort: uint16(i), version: 4} }
	v := fc.visit(gen, flowWays)
	for i := 0; i < flowWays; i++ {
		v.insert(0, key(i), flowVerdict{})
	}
	fc.insert(0, key(999), gen, flowVerdict{})
	if _, ok := fc.probe(0, key(0), gen); ok {
		t.Fatal("the batch's first flow survived the next eviction")
	}
	for i := 1; i < flowWays; i++ {
		if _, ok := fc.probe(0, key(i), gen); !ok {
			t.Fatalf("flow %d, touched later in the batch, was evicted", i)
		}
	}
}

// TestFlowCacheStatsSurface: the classifier's Stats() carries the cache
// counters and gauges the adapt plane and nkctl read.
func TestFlowCacheStatsSurface(t *testing.T) {
	cls, _, _, _ := buildCachedClassifier(t)
	for i := 0; i < 4; i++ {
		if err := cls.Push(udpPkt(t, 1000, 64)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]float64{}
	for _, s := range cls.Stats() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		"flowcache_hits":     3,
		"flowcache_misses":   1,
		"flowcache_entries":  1,
		"flowcache_capacity": DefaultFlowCacheCap,
		"flowcache_hitrate":  0.75,
	} {
		if got[name] != want {
			t.Fatalf("%s = %v, want %v (all: %v)", name, got[name], want, got)
		}
	}
}

// TestFlowCacheVerdictTransparency: with and without the cache, a mixed
// packet sequence (repeats, misses, both outputs) routes identically —
// the single-classifier cousin of FuzzCacheTransparency.
func TestFlowCacheVerdictTransparency(t *testing.T) {
	ports := []uint16{1000, 1001, 1000, 9999, 1001, 1000, 9999, 1002, 1002, 1000}
	run := func(disable bool) ([]uint16, []uint16, []uint16) {
		cls, sa, sb, sd := buildCachedClassifier(t)
		if disable {
			if err := cls.FlowCacheResize(0); err != nil {
				t.Fatal(err)
			}
		}
		for _, port := range ports {
			if err := cls.Push(udpPkt(t, port, 64)); err != nil {
				t.Fatal(err)
			}
		}
		return dstPorts(sa.pkts), dstPorts(sb.pkts), dstPorts(sd.pkts)
	}
	ca, cb, cd := run(false)
	ua, ub, ud := run(true)
	if !equalPorts(ca, ua) || !equalPorts(cb, ub) || !equalPorts(cd, ud) {
		t.Fatalf("cached vs uncached diverged:\n a %v vs %v\n b %v vs %v\n d %v vs %v",
			ca, ua, cb, ub, cd, ud)
	}
}

// TestSnapshotLinearTableNotCached guards the engagement condition: a
// sub-cutoff table must not pay cache costs even with the cache enabled.
func TestSnapshotLinearTableNotCached(t *testing.T) {
	c := newCap()
	cls, err := NewClassifier("a", "default")
	if err != nil {
		t.Fatal(err)
	}
	sa := newSink()
	if err := c.Insert("cls", cls); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("sa", sa); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "cls", "a", "sa"); err != nil {
		t.Fatal(err)
	}
	if _, err := cls.RegisterFilter("udp and dst port 1000", 1, "a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cls.Push(udpPkt(t, 1000, 64)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := cls.FlowCache().Counters()
	if hits != 0 || misses != 0 {
		t.Fatalf("tiny table used the cache (%d/%d)", hits, misses)
	}
	if len(sa.pkts) != 3 {
		t.Fatalf("a=%d, want 3", len(sa.pkts))
	}
}
