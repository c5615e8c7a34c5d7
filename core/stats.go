package core

import (
	"sort"
	"strings"
)

// This file is the uniform telemetry capability of the meta-space: one
// representation (Stat), one capability interface (IStats), and one walker
// (CapsuleStats) that turns a running capsule into a coherent stats tree.
// Before it existed, observability was scattered across incompatible
// per-component surfaces (router.ElementStats, queue Len(),
// osabs drop counters, shard ring depths); the reflective loop — an
// adaptation engine that watches the system and reconfigures it through
// the meta-space — needs all of them in one shape.

// StatKind classifies how a Stat evolves and therefore how it aggregates.
type StatKind string

// Stat kinds.
const (
	// KindCounter is a monotonically increasing count; aggregation sums.
	KindCounter StatKind = "counter"
	// KindGauge is an instantaneous level; aggregation sums, except
	// ratio-unit gauges which average (a merged occupancy is the mean of
	// the constituents', not their sum).
	KindGauge StatKind = "gauge"
	// KindHistogram is a cumulative value distribution (hist.go):
	// aggregation merges bucket-wise, so shard-lane histograms sum into
	// exactly the histogram of the union of their observations.
	KindHistogram StatKind = "histogram"
)

// Stat is one named scalar observation: a cheap atomic snapshot of a
// counter or gauge. Values are float64 so counters, byte totals, EWMA
// queue lengths and occupancy ratios share one representation; integral
// counters below 2^53 round-trip exactly.
type Stat struct {
	Name  string   `json:"name"`
	Kind  StatKind `json:"kind"`
	Unit  string   `json:"unit,omitempty"`
	Value float64  `json:"value"`
	// Weight makes a ratio gauge mergeable without bias: MergeStats
	// averages ratio gauges weighted by it (a cache hit rate weighted by
	// lookups, an occupancy weighted by capacity), so an idle
	// constituent with Weight 0 cannot drag the merged mean. Zero on
	// every stat in a group falls back to the unweighted average.
	Weight float64 `json:"weight,omitempty"`
	// Hist carries the bucketed distribution for KindHistogram stats
	// (Value then holds the observation count); nil otherwise.
	Hist *HistSnapshot `json:"hist,omitempty"`
}

// C builds a counter Stat from an integral count.
func C(name, unit string, v uint64) Stat {
	return Stat{Name: name, Kind: KindCounter, Unit: unit, Value: float64(v)}
}

// G builds a gauge Stat.
func G(name, unit string, v float64) Stat {
	return Stat{Name: name, Kind: KindGauge, Unit: unit, Value: v}
}

// GW builds a weighted gauge Stat (see Stat.Weight).
func GW(name, unit string, v, weight float64) Stat {
	return Stat{Name: name, Kind: KindGauge, Unit: unit, Value: v, Weight: weight}
}

// IStats is the uniform telemetry capability. Implementations must be
// cheap (atomic loads, no blocking on data-path locks beyond what a
// control-path reader may take) and safe to call concurrently with
// traffic. Like the batch capability, it is discovered by type assertion,
// not declared through the interface registry.
type IStats interface {
	// Stats returns a snapshot of the component's counters and gauges.
	Stats() []Stat
}

// IStatsTree is implemented by composite components that want to shape
// their own subtree in the capsule stats tree — e.g. a sharded data plane
// grouping its inner constituents into per-replica lanes with lane-level
// ring gauges. Components without it get a subtree derived from IStats
// plus (for composites exposing Inner()) a recursive walk.
type IStatsTree interface {
	// StatsTree returns the component's subtree. The walker overwrites
	// the root's Name with the instance name.
	StatsTree() StatNode
}

// StatNode is one node of the capsule stats tree: a named component (or
// grouping) with its own stats and its observable children.
type StatNode struct {
	Name     string     `json:"name"`
	Type     string     `json:"type,omitempty"`
	Stats    []Stat     `json:"stats,omitempty"`
	Children []StatNode `json:"children,omitempty"`
}

// Stat returns the named stat of this node.
func (n *StatNode) Stat(name string) (Stat, bool) {
	for _, s := range n.Stats {
		if s.Name == name {
			return s, true
		}
	}
	return Stat{}, false
}

// Find resolves a slash-separated path to a descendant node. Because
// component instance names may themselves contain slashes (a sharded
// replica's "s0/queue"), each step first tries the whole remaining path
// as one child name, then the longest matching prefix.
func (n *StatNode) Find(path string) (*StatNode, bool) {
	if path == "" {
		return n, true
	}
	// Whole remainder as one child name.
	for i := range n.Children {
		if n.Children[i].Name == path {
			return &n.Children[i], true
		}
	}
	// Longest child-name prefix followed by "/".
	best := -1
	for i := range n.Children {
		name := n.Children[i].Name
		if strings.HasPrefix(path, name+"/") && (best < 0 || len(name) > len(n.Children[best].Name)) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	return n.Children[best].Find(path[len(n.Children[best].Name)+1:])
}

// MergeStats aggregates several stat snapshots into one: stats are grouped
// by (Name, Kind, Unit); counters and gauges sum, except gauges with unit
// "ratio", which average; histograms merge bucket-wise (and Value, their
// observation count, sums). The result is sorted by name for determinism.
// It is the aggregation rule composites use to present their constituents
// as one element.
//
// Ratio gauges average weighted by Stat.Weight when any constituent
// carries one: the merged value is Σ(value·weight)/Σweight and the result
// keeps Weight = Σweight, so nested merges (lane → shard root → capsule)
// stay associative. Constituents with Weight 0 are thereby excluded — an
// idle shard lane's stale flow-cache hit rate no longer drags the root
// mean. A group where every stat has Weight 0 keeps the historical
// unweighted average (occupancy-style gauges that carry no weight).
func MergeStats(groups ...[]Stat) []Stat {
	type acc struct {
		stat Stat
		n    int
		wsum float64 // Σ weight over the group
		wval float64 // Σ value·weight
	}
	byKey := make(map[Stat]*acc)
	order := make([]Stat, 0, 8)
	for _, g := range groups {
		for _, s := range g {
			key := Stat{Name: s.Name, Kind: s.Kind, Unit: s.Unit}
			a, ok := byKey[key]
			if !ok {
				a = &acc{stat: key}
				byKey[key] = a
				order = append(order, key)
			}
			a.stat.Value += s.Value
			if s.Weight > 0 {
				a.wsum += s.Weight
				a.wval += s.Value * s.Weight
			}
			if s.Kind == KindHistogram {
				a.stat.Hist = a.stat.Hist.Merge(s.Hist)
			}
			a.n++
		}
	}
	out := make([]Stat, 0, len(order))
	for _, key := range order {
		a := byKey[key]
		if a.stat.Kind == KindGauge && a.stat.Unit == "ratio" && a.n > 0 {
			if a.wsum > 0 {
				a.stat.Value = a.wval / a.wsum
				a.stat.Weight = a.wsum
			} else {
				a.stat.Value /= float64(a.n)
			}
		}
		out = append(out, a.stat)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// innerCapsule is the structural hook by which composite components expose
// their nested runtime to the stats walker without core depending on the
// cf package.
type innerCapsule interface {
	Inner() *Capsule
}

// ComponentStats builds the stats subtree of one component instance:
// its IStats snapshot (when the capability is present) plus either the
// component's self-shaped subtree (IStatsTree) or a recursive walk of its
// inner capsule (composites).
func ComponentStats(name string, comp Component) StatNode {
	if st, ok := comp.(IStatsTree); ok {
		node := st.StatsTree()
		node.Name = name
		if node.Type == "" {
			node.Type = comp.TypeName()
		}
		return node
	}
	node := StatNode{Name: name, Type: comp.TypeName()}
	if s, ok := comp.(IStats); ok {
		node.Stats = s.Stats()
	}
	if ic, ok := comp.(innerCapsule); ok {
		inner := CapsuleStats(ic.Inner())
		node.Children = inner.Children
	}
	return node
}

// CapsuleStats snapshots the capsule-wide stats tree: one child per
// component instance in sorted name order, recursing through composites.
// The root carries no aggregate of its own — aggregation is a composite's
// (or the reader's) decision, via MergeStats.
func CapsuleStats(c *Capsule) StatNode {
	root := StatNode{Name: c.Name()}
	for _, name := range c.ComponentNames() {
		comp, ok := c.Component(name)
		if !ok {
			continue
		}
		root.Children = append(root.Children, ComponentStats(name, comp))
	}
	return root
}
