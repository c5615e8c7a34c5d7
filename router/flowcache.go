package router

import (
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"netkit/internal/filter"
)

// FlowCache is the megaflow verdict cache fronting a Classifier's compiled
// rule table: repeat flows skip classification entirely and go straight to
// the verdict, an index into that generation's Snapshot.Outputs (-1:
// unmatched). Soundness rests on two fences:
//
//   - Entries are keyed on the EXACT flow identity (flowKey, derived from
//     the parsed View) — FlowHashRaw only selects the set, so 32-bit hash
//     collisions can cause a miss, never a wrong verdict.
//   - Entries are stamped with the rule-table generation they were computed
//     under, and a probe only hits when the stamp equals the caller's
//     current generation. Generations are monotonic (Table.Gen bumps on
//     every Add/Remove), so a racing insert from a concurrently-retired
//     snapshot leaves an entry that can only ever miss — invalidation is
//     the same atomic publication that makes the rule change visible. The
//     same fence keeps an index from being read against another
//     generation's output list.
//
// The layout is set-associative (flowWays entries per set, pseudo-LRU
// replacement by access stamp) with one mutex per stripe of sets, so
// concurrent shard lanes sharing a cache do not serialise on one lock.
type FlowCache struct {
	sets    []flowSet
	stripes []sync.Mutex
	mask    uint32 // len(sets)-1; sets is a power of two
	smask   uint32 // len(stripes)-1

	tick     atomic.Uint64 // pseudo-LRU clock
	hits     atomic.Uint64
	misses   atomic.Uint64
	evicts   atomic.Uint64
	occupied atomic.Int64

	// names interns the outputs InsertView stores, so its entries carry
	// an index like the classifier's; ProbeView maps the index back.
	namesMu sync.Mutex
	names   atomic.Pointer[[]string]
}

const (
	flowWays = 4
	// DefaultFlowCacheCap is the verdict-cache capacity a Classifier starts
	// with; the adapt plane can retune it at run time (ResizeFlowCache).
	DefaultFlowCacheCap = 4096
)

type flowSet struct {
	ways [flowWays]flowEntry
}

// flowEntry caches one flow's verdict: the matched rule's output index
// under generation gen, or -1 for the unmatched path. The classifier
// resolves the index through its route table at forward time, so output
// topology changes need no cache invalidation.
type flowEntry struct {
	key     flowKey
	verdict int32
	gen     uint64
	stamp   uint64
	live    bool
}

// flowKey is the exact flow identity a verdict is a pure function of when
// the rule table is flow-safe (Snapshot.FlowSafe): every field the filter
// language can test except the per-packet numeric fields (ttl/len/tos),
// which disable caching altogether. netip.Addr is comparable, so flowKey
// works as a struct key with ==.
type flowKey struct {
	src, dst netip.Addr
	srcPort  uint16
	dstPort  uint16
	proto    uint8
	version  uint8
	hasPorts bool
}

func flowKeyOf(v *filter.View) flowKey {
	return flowKey{
		src:      v.Src,
		dst:      v.Dst,
		srcPort:  v.SrcPort,
		dstPort:  v.DstPort,
		proto:    v.Proto,
		version:  uint8(v.Version),
		hasPorts: v.HasPorts,
	}
}

// NewFlowCache builds a cache with at least capacity entries (rounded up
// to a power-of-two set count times flowWays).
func NewFlowCache(capacity int) *FlowCache {
	if capacity < flowWays {
		capacity = flowWays
	}
	nsets := 1
	for nsets*flowWays < capacity {
		nsets <<= 1
	}
	nstripes := nsets
	if nstripes > 64 {
		nstripes = 64
	}
	fc := &FlowCache{
		sets:    make([]flowSet, nsets),
		stripes: make([]sync.Mutex, nstripes),
		mask:    uint32(nsets - 1),
		smask:   uint32(nstripes - 1),
	}
	fc.names.Store(new([]string))
	return fc
}

// Cap returns the entry capacity.
func (fc *FlowCache) Cap() int { return len(fc.sets) * flowWays }

// Len returns the live-entry count (occupancy).
func (fc *FlowCache) Len() int { return int(fc.occupied.Load()) }

// Counters returns the lifetime hit/miss/eviction counts.
func (fc *FlowCache) Counters() (hits, misses, evicts uint64) {
	return fc.hits.Load(), fc.misses.Load(), fc.evicts.Load()
}

// cacheVisit is one batch's pass over a FlowCache under one rule
// generation. It reserves one pseudo-LRU stamp per lookup from the shared
// clock in a single add, so entries keep their exact per-packet recency
// order, and it settles the hit/miss counts once: a batch pays the tick
// and counter atomics once rather than per packet.
type cacheVisit struct {
	fc           *FlowCache
	gen, stamp   uint64 // stamp: the next reserved stamp
	hits, misses uint64
}

// visit opens a pass of at most n lookups under rule generation gen.
func (fc *FlowCache) visit(gen uint64, n int) cacheVisit {
	end := fc.tick.Add(uint64(n))
	return cacheVisit{fc: fc, gen: gen, stamp: end - uint64(n) + 1}
}

// settle publishes the pass's hit and miss counts.
func (v *cacheVisit) settle() {
	if v.hits > 0 {
		v.fc.hits.Add(v.hits)
	}
	if v.misses > 0 {
		v.fc.misses.Add(v.misses)
	}
}

// probe looks up the verdict for key, selecting the set by hash. A
// generation mismatch is a miss: the entry was computed under retired
// rules and must not be served.
func (v *cacheVisit) probe(hash uint32, key flowKey) (int32, bool) {
	fc := v.fc
	si := hash & fc.mask
	mu := &fc.stripes[si&fc.smask]
	mu.Lock()
	set := &fc.sets[si]
	for w := range set.ways {
		e := &set.ways[w]
		if e.live && e.gen == v.gen && e.key == key {
			e.stamp = v.stamp
			v.stamp++
			verdict := e.verdict
			mu.Unlock()
			v.hits++
			return verdict, true
		}
	}
	mu.Unlock()
	v.misses++
	return -1, false
}

// insert records a verdict computed under the pass's generation.
// Replacement prefers dead or generation-stale ways, then the
// least-recently-touched one.
func (v *cacheVisit) insert(hash uint32, key flowKey, verdict int32) {
	fc, gen, stamp := v.fc, v.gen, v.stamp
	v.stamp++
	si := hash & fc.mask
	mu := &fc.stripes[si&fc.smask]
	mu.Lock()
	defer mu.Unlock()
	set := &fc.sets[si]
	victim, victimStamp := -1, ^uint64(0)
	for w := range set.ways {
		e := &set.ways[w]
		if e.live && e.key == key {
			// Same flow: refresh in place (the gen may have advanced).
			e.gen, e.verdict = gen, verdict
			e.stamp = stamp
			return
		}
		switch {
		case !e.live:
			victim, victimStamp = w, 0
		case e.gen != gen && victimStamp > 0:
			// Stale generations are free to reclaim, but an empty way
			// (stamp 0) still wins.
			victim, victimStamp = w, 1
		case e.stamp < victimStamp:
			victim, victimStamp = w, e.stamp
		}
	}
	e := &set.ways[victim]
	if !e.live {
		fc.occupied.Add(1)
	} else {
		fc.evicts.Add(1)
	}
	*e = flowEntry{key: key, verdict: verdict, gen: gen, stamp: stamp, live: true}
}

// probe is a one-lookup pass: visit, probe, settle.
func (fc *FlowCache) probe(hash uint32, key flowKey, gen uint64) (int32, bool) {
	v := fc.visit(gen, 1)
	verdict, ok := v.probe(hash, key)
	v.settle()
	return verdict, ok
}

// insert is a one-insert pass.
func (fc *FlowCache) insert(hash uint32, key flowKey, gen uint64, verdict int32) {
	v := fc.visit(gen, 1)
	v.insert(hash, key, verdict)
}

// ProbeView is the exported probe, keyed on an extracted View — the form
// benchmarks and external drivers use. Returns (output, matched, hit): on
// a hit, the output and match InsertView stored for the flow.
func (fc *FlowCache) ProbeView(hash uint32, v *filter.View, gen uint64) (string, bool, bool) {
	i, ok := fc.probe(hash, flowKeyOf(v), gen)
	if names := *fc.names.Load(); ok && i >= 0 && int(i) < len(names) {
		return names[i], true, true
	}
	return "", false, ok
}

// InsertView is the exported insert, keyed on an extracted View. An
// unmatched verdict stores no output.
func (fc *FlowCache) InsertView(hash uint32, v *filter.View, gen uint64, out string, matched bool) {
	i := int32(-1)
	if matched {
		i = fc.intern(out)
	}
	fc.insert(hash, flowKeyOf(v), gen, i)
}

// intern returns name's index in fc.names, appending it when new.
func (fc *FlowCache) intern(name string) int32 {
	if i := slices.Index(*fc.names.Load(), name); i >= 0 {
		return int32(i)
	}
	fc.namesMu.Lock()
	defer fc.namesMu.Unlock()
	names := *fc.names.Load()
	i := slices.Index(names, name)
	if i < 0 {
		i = len(names)
		names = append(names[:i:i], name)
		fc.names.Store(&names)
	}
	return int32(i)
}

// Flush drops every entry (counters are preserved; occupancy resets).
func (fc *FlowCache) Flush() {
	for si := range fc.sets {
		mu := &fc.stripes[uint32(si)&fc.smask]
		mu.Lock()
		set := &fc.sets[si]
		for w := range set.ways {
			if set.ways[w].live {
				set.ways[w] = flowEntry{}
				fc.occupied.Add(-1)
			}
		}
		mu.Unlock()
	}
}
