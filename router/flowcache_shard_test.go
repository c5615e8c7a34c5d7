package router

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"netkit/cf"
	"netkit/core"
)

// This file proves the megaflow cache is invisible to routing semantics in
// the two settings the ISSUE names: arbitrary batch segmentation with
// interleaved rule-table swaps (FuzzCacheTransparency), and a 4-shard CF
// whose rule tables are swapped mid-replay under concurrent traffic
// (TestFlowCacheInvalidationUnderShardedTraffic), plus the stats-tree
// acceptance test mirroring PR 5's lane-histogram check.

// buildTransparencyClassifier wires a classifier with recording sinks on
// outputs "a", "b" and "default" plus a cache-worthy base rule set: src
// ports 1000..1007 alternate between a and b at priority 10.
func buildTransparencyClassifier(t testing.TB, cached bool) (*Classifier, map[string]*recordingSink) {
	t.Helper()
	c := core.NewCapsule("transp")
	cls, err := NewClassifier("a", "b", "default")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("cls", cls); err != nil {
		t.Fatal(err)
	}
	sinks := map[string]*recordingSink{}
	for _, out := range []string{"a", "b", "default"} {
		s := newRecordingSink()
		sinks[out] = s
		if err := c.Insert("sink_"+out, s); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(c, "cls", out, "sink_"+out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		out := "a"
		if i%2 == 1 {
			out = "b"
		}
		if _, err := cls.RegisterFilter(fmt.Sprintf("udp and src port %d", 1000+i), 10, out); err != nil {
			t.Fatal(err)
		}
	}
	if !cached {
		if err := cls.FlowCacheResize(0); err != nil {
			t.Fatal(err)
		}
	}
	return cls, sinks
}

// FuzzCacheTransparency replays one fuzz-chosen packet stream twice — once
// through a cached classifier fed fuzz-segmented batches, once through an
// uncached classifier fed per packet — applying the IDENTICAL rule-table
// mutation sequence to both at batch boundaries, and requires identical
// per-output per-flow delivery. This is the cache's whole contract: for
// any batch split and any interleaved rule swap, a verdict cache may only
// change WHEN classification happens, never what it answers.
func FuzzCacheTransparency(f *testing.F) {
	f.Add(uint64(1), []byte{4, 9}, []byte{0, 1, 7})
	f.Add(uint64(7), []byte{1}, []byte{})
	f.Add(uint64(99), []byte{32, 3, 17}, []byte{0, 0, 4, 1, 2, 8})
	f.Add(uint64(1234), []byte{}, []byte{0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, seed uint64, splits []byte, muts []byte) {
		if seed == 0 {
			seed = 1
		}
		rng := xorshift(seed)
		const total, flows = 160, 24

		type unit struct{ flow, seq uint32 }
		stream := make([]unit, total)
		seqs := make([]uint32, flows)
		for i := range stream {
			fl := uint32(rng.next() % flows)
			stream[i] = unit{fl, seqs[fl]}
			seqs[fl]++
		}
		// Batch boundaries from the fuzzed split list.
		bounds := make([]int, 0, 8)
		pos, k := 0, 0
		for pos < total {
			n := 1
			if len(splits) > 0 {
				n = 1 + int(splits[k%len(splits)]%32)
				k++
			}
			pos += n
			if pos > total {
				pos = total
			}
			bounds = append(bounds, pos)
		}

		// mutate applies mutation step m to cls; `ids` carries the rule IDs
		// this classifier got for earlier adds, so the cached and uncached
		// runs remove the same rule. Returns the updated id list.
		mutate := func(tb testing.TB, cls *Classifier, ids []uint64, m byte) []uint64 {
			switch m % 4 {
			case 0: // shadow or extend: higher-priority re-route of a port
				out := "a"
				if m%8 >= 4 {
					out = "b"
				}
				id, err := cls.RegisterFilter(
					fmt.Sprintf("udp and src port %d", 1000+int(m)%32), int(m%5), out)
				if err != nil {
					tb.Fatal(err)
				}
				return append(ids, id)
			case 1: // retire the oldest added rule
				if len(ids) > 0 {
					if err := cls.UnregisterFilter(ids[0]); err != nil {
						tb.Fatal(err)
					}
					return ids[1:]
				}
			}
			return ids
		}

		run := func(cached bool) map[string]*recordingSink {
			cls, sinks := buildTransparencyClassifier(t, cached)
			var ids []uint64
			start := 0
			for bi, end := range bounds {
				if cached {
					batch := GetBatch()
					for _, u := range stream[start:end] {
						batch = append(batch, mkFlowPacket(t, u.flow, u.seq))
					}
					if err := cls.PushBatch(batch); err != nil {
						t.Fatal(err)
					}
					PutBatch(batch)
				} else {
					for _, u := range stream[start:end] {
						if err := push1(cls, mkFlowPacket(t, u.flow, u.seq)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if len(muts) > 0 {
					ids = mutate(t, cls, ids, muts[bi%len(muts)])
				}
				start = end
			}
			return sinks
		}

		cachedSinks := run(true)
		uncachedSinks := run(false)
		for _, out := range []string{"a", "b", "default"} {
			cs, us := cachedSinks[out], uncachedSinks[out]
			if cs.total() != us.total() {
				t.Fatalf("output %s: cached delivered %d, uncached %d",
					out, cs.total(), us.total())
			}
			for fl, want := range us.flows {
				got := cs.flows[fl]
				if len(got) != len(want) {
					t.Fatalf("output %s flow %d: cached got %d packets, uncached %d",
						out, fl, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("output %s flow %d position %d: cached seq %d, uncached %d",
							out, fl, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// ---- sharded invalidation ---------------------------------------------------

// classifierReplica builds ingress -> classifier -> {hot: counter ->
// egress, default: egress}. The base rules (src ports 2000..2007, which
// test traffic never carries) make the table cache-worthy while routing
// all traffic to default — so the "hot" counter reads exactly the packets
// classified to "hot" by later-installed rules, making stale cached
// verdicts directly countable.
func classifierReplica(shard int, fw *cf.Framework) (string, error) {
	name := ShardName(shard, "cls")
	cls, err := NewClassifier("hot", "default")
	if err != nil {
		return "", err
	}
	if err := fw.Admit(name, cls); err != nil {
		return "", err
	}
	hotName := ShardName(shard, "hotcnt")
	if err := fw.Admit(hotName, NewCounter()); err != nil {
		return "", err
	}
	if _, err := fw.Capsule().Bind(name, "hot", hotName, IPacketPushID); err != nil {
		return "", err
	}
	if _, err := fw.Capsule().Bind(hotName, "out", ShardName(shard, "egress"), IPacketPushID); err != nil {
		return "", err
	}
	if _, err := fw.Capsule().Bind(name, "default", ShardName(shard, "egress"), IPacketPushID); err != nil {
		return "", err
	}
	for i := 0; i < 8; i++ {
		if _, err := cls.RegisterFilter(fmt.Sprintf("udp and src port %d", 2000+i), 10, "hot"); err != nil {
			return "", err
		}
	}
	return name, nil
}

// replicaClassifiers resolves every shard's classifier instance through
// the CF's inner capsule (the meta-space path an adaptation manager uses).
func replicaClassifiers(t testing.TB, s *ShardedCF) []*Classifier {
	t.Helper()
	out := make([]*Classifier, s.Shards())
	for i := range out {
		comp, ok := s.Inner().Component(ShardName(i, "cls"))
		if !ok {
			t.Fatalf("shard %d classifier missing", i)
		}
		out[i] = comp.(*Classifier)
	}
	return out
}

// TestFlowCacheInvalidationUnderShardedTraffic is the ISSUE's stress test:
// a 4-shard CF of cached classifiers takes continuous multi-flow traffic
// while every replica's rule table churns concurrently (race coverage for
// snapshot/cache publication); then, with the table warm in every cache, a
// rule swap re-routes an already-cached flow and a fenced probe asserts
// ZERO stale verdicts — every probe packet lands on the new route — plus
// zero loss and audit-count conservation across the whole run.
func TestFlowCacheInvalidationUnderShardedTraffic(t *testing.T) {
	const (
		shards     = 4
		flows      = 32
		churnRnds  = 150
		warmRounds = 120
		probes     = 200
		probeFlow  = 5 // src port 1005
	)
	_, s, sink := buildSharded(t, shards, classifierReplica)
	classifiers := replicaClassifiers(t, s)

	var audited uint64
	var auditMu sync.Mutex
	if err := s.Intercept("ingress", "out", "audit", core.PrePost(func(op string, args []any) {
		auditMu.Lock()
		audited += uint64(PacketCount(op, args))
		auditMu.Unlock()
	}, nil)); err != nil {
		t.Fatal(err)
	}

	// Phase 1: traffic and rule churn race. The churn rule (src port 2100)
	// never matches traffic, so routing is stable while generations advance
	// constantly — the hostile case for cache invalidation.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < churnRnds; r++ {
			for _, cls := range classifiers {
				id, err := cls.RegisterFilter("udp and src port 2100", 1, "hot")
				if err != nil {
					t.Error(err)
					return
				}
				if err := cls.UnregisterFilter(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	seqs := make([]uint32, flows)
	total := 0
	for round := 0; round < warmRounds; round++ {
		batch := GetBatch()
		for fl := uint32(0); fl < flows; fl++ {
			batch = append(batch, mkFlowPacket(t, fl, seqs[fl]))
			seqs[fl]++
			total++
		}
		if err := s.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		PutBatch(batch)
	}
	wg.Wait()
	quiesce(t, s)
	if got := sink.total(); got != total {
		t.Fatalf("warm phase: sink received %d of %d", got, total)
	}
	sink.perFlowInOrder(t)

	// The caches must actually be in play before invalidation means much.
	var warmHits uint64
	for _, cls := range classifiers {
		h, _, _ := cls.FlowCache().Counters()
		warmHits += h
	}
	if warmHits == 0 {
		t.Fatal("warm phase produced zero cache hits; stress proves nothing")
	}

	// Phase 2: fenced probe. Flow 5's default verdict sits warm in its
	// shard's cache; re-route it to "hot" on every replica, then replay it.
	hotBefore := uint64(0)
	for i := 0; i < shards; i++ {
		comp, _ := s.Inner().Component(ShardName(i, "hotcnt"))
		hotBefore += comp.(*Counter).ElemStats().In
	}
	if hotBefore != 0 {
		t.Fatalf("hot path saw %d packets before any matching rule existed", hotBefore)
	}
	for _, cls := range classifiers {
		if _, err := cls.RegisterFilter(
			fmt.Sprintf("udp and src port %d", 1000+probeFlow), 1, "hot"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < probes; i++ {
		if err := push1(s, mkFlowPacket(t, probeFlow, seqs[probeFlow])); err != nil {
			t.Fatal(err)
		}
		seqs[probeFlow]++
		total++
	}
	quiesce(t, s)

	hotAfter := uint64(0)
	for i := 0; i < shards; i++ {
		comp, _ := s.Inner().Component(ShardName(i, "hotcnt"))
		hotAfter += comp.(*Counter).ElemStats().In
	}
	if got := hotAfter - hotBefore; got != probes {
		t.Fatalf("stale verdicts: %d of %d probes bypassed the new rule", probes-int(got), probes)
	}

	// Zero loss + audit conservation over the whole run.
	if got := sink.total(); got != total {
		t.Fatalf("sink received %d of %d", got, total)
	}
	sink.perFlowInOrder(t)
	auditMu.Lock()
	aud := audited
	auditMu.Unlock()
	if aud != uint64(total) {
		t.Fatalf("audit counted %d of %d", aud, total)
	}
	st := s.ElemStats()
	if st.In != uint64(total) || st.Out != uint64(total) || st.Dropped != 0 || st.Errors != 0 {
		t.Fatalf("CF stats %+v, want in=out=%d dropped=0", st, total)
	}
}

// TestFlowCacheStatsTreeAcrossShards is the stats-tree acceptance test:
// every lane's classifier exposes its cache counters in the CF's stats
// tree, the per-lane lookups account for every packet exactly once, and
// merging the lane classifiers at the root follows the repo's MergeStats
// conventions — counters SUM, ratio gauges AVERAGE weighted by lookups
// (mirroring PR 5's lane-histogram acceptance test).
func TestFlowCacheStatsTreeAcrossShards(t *testing.T) {
	const shards, flows, rounds = 4, 16, 6
	_, s, sink := buildSharded(t, shards, classifierReplica)
	total := 0
	for round := 0; round < rounds; round++ {
		batch := GetBatch()
		for fl := uint32(0); fl < flows; fl++ {
			batch = append(batch, mkFlowPacket(t, fl, uint32(round)))
			total++
		}
		if err := s.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		PutBatch(batch)
	}
	quiesce(t, s)
	if sink.total() != total {
		t.Fatalf("sink received %d of %d", sink.total(), total)
	}

	tree := s.StatsTree()
	var laneHits, laneMisses, laneEntries float64
	var hitrates, laneWeights []float64
	laneStats := make([][]core.Stat, 0, shards)
	for i := 0; i < shards; i++ {
		lane, ok := tree.Find("shard" + strconv.Itoa(i))
		if !ok {
			t.Fatalf("no lane shard%d in stats tree", i)
		}
		var clsNode *core.StatNode
		for j := range lane.Children {
			if lane.Children[j].Name == ShardName(i, "cls") {
				clsNode = &lane.Children[j]
			}
		}
		if clsNode == nil {
			t.Fatalf("lane shard%d lacks its classifier child: %+v", i, lane.Children)
		}
		got := map[string]core.Stat{}
		for _, st := range clsNode.Stats {
			got[st.Name] = st
		}
		for _, name := range []string{"flowcache_hits", "flowcache_misses",
			"flowcache_evictions", "flowcache_entries", "flowcache_capacity", "flowcache_hitrate"} {
			if _, ok := got[name]; !ok {
				t.Fatalf("lane shard%d classifier lacks %s: %v", i, name, clsNode.Stats)
			}
		}
		if got["flowcache_hitrate"].Unit != "ratio" || got["flowcache_hitrate"].Kind != core.KindGauge {
			t.Fatalf("hitrate must be a ratio gauge, got %+v", got["flowcache_hitrate"])
		}
		lookups := got["flowcache_hits"].Value + got["flowcache_misses"].Value
		if w := got["flowcache_hitrate"].Weight; math.Abs(w-lookups) > 1e-9 {
			t.Fatalf("hitrate weight %v, want lane lookups %v", w, lookups)
		}
		laneHits += got["flowcache_hits"].Value
		laneMisses += got["flowcache_misses"].Value
		laneEntries += got["flowcache_entries"].Value
		hitrates = append(hitrates, got["flowcache_hitrate"].Value)
		laneWeights = append(laneWeights, lookups)
		laneStats = append(laneStats, clsNode.Stats)
	}

	// Conservation: every packet probed exactly one lane's cache; each
	// flow missed once (its first packet) and was cached in one lane.
	if laneHits+laneMisses != float64(total) {
		t.Fatalf("lane lookups %v+%v != %d packets", laneHits, laneMisses, total)
	}
	if laneMisses != flows {
		t.Fatalf("lane misses %v, want one per flow (%d)", laneMisses, flows)
	}
	if laneEntries != flows {
		t.Fatalf("lane occupancy %v, want %d", laneEntries, flows)
	}

	// Root merge: counters sum, ratio gauges average.
	merged := map[string]core.Stat{}
	for _, st := range core.MergeStats(laneStats...) {
		merged[st.Name] = st
	}
	if merged["flowcache_hits"].Value != laneHits || merged["flowcache_misses"].Value != laneMisses {
		t.Fatalf("merged counters %v/%v, want %v/%v",
			merged["flowcache_hits"].Value, merged["flowcache_misses"].Value, laneHits, laneMisses)
	}
	// The merge is weighted by lookups, so the root hit rate equals the
	// fleet-wide hits/lookups — idle lanes cannot drag it.
	var wsum, wval float64
	for i, r := range hitrates {
		wval += r * laneWeights[i]
		wsum += laneWeights[i]
	}
	wantRate := wval / wsum
	if math.Abs(merged["flowcache_hitrate"].Value-wantRate) > 1e-9 {
		t.Fatalf("merged hitrate %v, want lookup-weighted average %v",
			merged["flowcache_hitrate"].Value, wantRate)
	}
	if math.Abs(wantRate-laneHits/(laneHits+laneMisses)) > 1e-9 {
		t.Fatalf("weighted lane average %v diverges from global rate %v",
			wantRate, laneHits/(laneHits+laneMisses))
	}
	if math.Abs(merged["flowcache_hitrate"].Weight-wsum) > 1e-9 {
		t.Fatalf("merged hitrate weight %v, want total lookups %v",
			merged["flowcache_hitrate"].Weight, wsum)
	}
}
