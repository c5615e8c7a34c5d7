package filter

import (
	"net/netip"
	"sort"
)

// This file is the compiled classification backend (DESIGN.md §7): a
// tuple-space-search index in front of the per-rule VM programs, which
// makes table lookup cost flat in the rule count instead of the linear
// walk's ~1000× degradation from 1 to 1024 rules (E5). The VM program is
// the only evaluator: the index only chooses which rules to run.
// Table.LookupViewVM (the plain linear walk) is the reference oracle, and
// FuzzCompiledEquivalence pins this backend to it for arbitrary rule sets
// and packets.
//
// The scheme, in the match-action-table tradition of the programmable
// data-plane literature:
//
//  1. Each rule's AST is expanded to disjunctive normal form, treating
//     NOT subtrees as opaque literals (the VM's "not" carries a parsed
//     guard, so De Morgan pushdown would change semantics; AND/OR are
//     pure booleans over position-independent leaf tests, so
//     distribution is exact). Expansion is capped — a rule whose DNF
//     exceeds maxClauses goes to the residual list.
//  2. Each conjunctive clause contributes exact-match dimensions —
//     version, protocol, src/dst host, src/dst single port — forming a
//     field mask. Clauses sharing a mask live in one tuple space: a hash
//     table keyed by the masked field values. A rule with a keyless
//     clause goes to the residual list once, whole.
//  3. Every entry verifies with its rule's own program, so a hash probe
//     only ever *narrows* to candidates — it never decides. That is
//     sound (a rule is returned only if its whole program matches) and
//     complete (a matching rule has a matching clause, and that clause's
//     exact-key bucket holds the rule).
//  4. Lookup probes each space once (one key computation + one map
//     access), verifies candidates in rule order, scans the residual
//     list, and returns the first match by (priority, insertion) order —
//     identical first-match semantics to the linear walk.
//
// Cost is O(#spaces + residual) per lookup: rule sets built from one
// syntactic family (the common case — an ACL of "proto and port" rules)
// collapse into a single space, giving the flat E15 curve. Tables at or
// under linearCutoff rules build no spaces at all: every rule sits on the
// residual list, an ordered VM walk that is cheaper than hashing at that
// size.

// tssDim enumerates the exact-match key dimensions.
type tssDim int

const (
	dimVersion tssDim = iota
	dimProto
	dimSrcAddr
	dimDstAddr
	dimSrcPort
	dimDstPort
	numDims
)

// dimMask is a bitset of tssDim.
type dimMask uint8

// maxClauses bounds the DNF expansion of one rule; beyond it the rule is
// matched linearly from the residual list.
const maxClauses = 16

// linearCutoff is the table size at or below which compilation builds no
// spaces and keeps the plain ordered VM walk (hashing costs more than it
// saves there).
const linearCutoff = 4

// 64-bit FNV-1a parameters, word-at-a-time (key mixing, not a wire format).
const (
	fnv64Init  uint64 = 14695981039346656037
	fnv64Prime uint64 = 1099511628211
)

func mix64(h, v uint64) uint64 { return (h ^ v) * fnv64Prime }

// addrKey collapses a netip.Addr to a key word such that a == b implies
// addrKey(a) == addrKey(b): the 16-byte form plus the Is4 bit (which
// distinguishes a v4 address from its 4-in-6 mapping, exactly as ==
// does). Collisions between unequal addresses are harmless — the rule's
// program re-checks equality.
func addrKey(a netip.Addr) uint64 {
	b := a.As16()
	h := fnv64Init
	for i := 0; i < 16; i += 8 {
		w := uint64(b[i])<<56 | uint64(b[i+1])<<48 | uint64(b[i+2])<<40 |
			uint64(b[i+3])<<32 | uint64(b[i+4])<<24 | uint64(b[i+5])<<16 |
			uint64(b[i+6])<<8 | uint64(b[i+7])
		h = mix64(h, w)
	}
	if a.Is4() {
		h = mix64(h, 4)
	}
	return h
}

// tssEntry is one matchable unit: a rule's program with its global
// evaluation order and routed output, as an index into the snapshot's
// Outputs. The program is held by value (it shares the rule's
// instructions), so verifying a candidate reads them straight from the
// bucket without first loading the rule's Program.
type tssEntry struct {
	order int // index into the priority-ordered rule list
	prog  Program
	out   int32
}

// tupleSpace is one mask's hash table. Buckets keep entries in ascending
// order, so the first verified candidate in a bucket is the best the
// space can offer.
type tupleSpace struct {
	mask    dimMask
	buckets map[uint64][]tssEntry
}

// keyOf computes the lookup key of v under the space's mask. Dimension
// order is fixed (ascending tssDim) so rule-side and view-side keys agree.
func (sp *tupleSpace) keyOf(v *View) uint64 {
	h := fnv64Init
	m := sp.mask
	if m&(1<<dimVersion) != 0 {
		h = mix64(h, uint64(v.Version))
	}
	if m&(1<<dimProto) != 0 {
		h = mix64(h, uint64(v.Proto))
	}
	if m&(1<<dimSrcAddr) != 0 {
		h = mix64(h, addrKey(v.Src))
	}
	if m&(1<<dimDstAddr) != 0 {
		h = mix64(h, addrKey(v.Dst))
	}
	if m&(1<<dimSrcPort) != 0 {
		h = mix64(h, uint64(v.SrcPort))
	}
	if m&(1<<dimDstPort) != 0 {
		h = mix64(h, uint64(v.DstPort))
	}
	return h
}

// Snapshot is one generation's compiled lookup structure. It stays valid
// (and behaviourally frozen) after further table mutations — callers that
// batch lookups take one snapshot per batch, exactly like the classifier's
// output-set snapshot discipline.
type Snapshot struct {
	spaces   []*tupleSpace // nil at or under linearCutoff rules
	residual []tssEntry    // rules no space indexes, ascending order
	outputs  []string      // the generation's output names, interned
	flowSafe bool
	rules    int
	gen      uint64
}

// Gen returns the generation this snapshot was compiled from.
func (s *Snapshot) Gen() uint64 { return s.gen }

// FlowSafe reports whether every verdict is a pure function of the flow
// identity fields a View carries for the 5-tuple — Version, Src, Dst,
// Proto, SrcPort, DstPort, HasPorts. Numeric comparisons (ttl/len/tos)
// read outside that set and vary packet-to-packet within one flow, so
// their presence anywhere in the table makes per-flow verdict caching
// unsound; the router's megaflow cache keys on exactly those fields and
// engages only when this holds.
func (s *Snapshot) FlowSafe() bool { return s.flowSafe }

// CacheWorthwhile reports whether fronting this snapshot with a per-flow
// cache can pay off: the verdict must be flow-pure, and the table large
// enough that a probe beats reclassification (small tables run the linear
// walk, which is already cheaper than a cache probe).
func (s *Snapshot) CacheWorthwhile() bool {
	return s.flowSafe && s.rules > linearCutoff
}

// Outputs returns the output names this generation's rules route to,
// each once, in first-use (priority) order: the list LookupIndex indexes.
// It is shared and must not be modified.
func (s *Snapshot) Outputs() []string { return s.outputs }

// Lookup classifies v: the output of the first matching rule in
// (priority, insertion) order, or "" and false. Behaviourally identical
// to the linear VM walk (fuzz-proven).
func (s *Snapshot) Lookup(v *View) (string, bool) {
	if i := s.LookupIndex(v); i >= 0 {
		return s.outputs[i], true
	}
	return "", false
}

// LookupIndex is Lookup's data-path form: the first matching rule's
// output as an index into Outputs, or -1 when no rule matches.
func (s *Snapshot) LookupIndex(v *View) int32 {
	best := -1
	out := int32(-1)
	for _, sp := range s.spaces {
		bucket := sp.buckets[sp.keyOf(v)]
		for i := range bucket {
			e := &bucket[i]
			if best >= 0 && e.order >= best {
				break
			}
			if e.prog.Match(v) {
				best, out = e.order, e.out
				break
			}
		}
	}
	for i := range s.residual {
		e := &s.residual[i]
		if best >= 0 && e.order >= best {
			break
		}
		if e.prog.Match(v) {
			best, out = e.order, e.out
			break
		}
	}
	return out
}

// compile builds generation gen's snapshot over rules, which must be in
// evaluation (priority, insertion) order — the order Table snapshots
// maintain. Rules whose DNF explodes or that have a keyless clause go to
// the residual list, so compilation never rejects a rule the interpreter
// accepts.
func compile(rules []*Rule, gen uint64) *Snapshot {
	s := &Snapshot{flowSafe: true, rules: len(rules), gen: gen}
	for _, r := range rules {
		if usesNumCmp(r.ast) {
			s.flowSafe = false
		}
	}
	spaces := make(map[dimMask]*tupleSpace)
	index := make(map[string]int32)
	for i, r := range rules {
		out, ok := index[r.Output]
		if !ok {
			out = int32(len(s.outputs))
			index[r.Output] = out
			s.outputs = append(s.outputs, r.Output)
		}
		e := tssEntry{order: i, prog: *r.prog, out: out}
		clauses, ok := [][]Node(nil), false
		if len(rules) > linearCutoff {
			clauses, ok = dnf(r.ast, maxClauses)
		}
		var masks [maxClauses]dimMask
		var keys [maxClauses]uint64
		for j, clause := range clauses {
			masks[j], keys[j] = clauseKey(clause)
			ok = ok && masks[j] != 0
		}
		if !ok {
			s.residual = append(s.residual, e)
			continue
		}
		for j, mask := range masks[:len(clauses)] {
			sp := spaces[mask]
			if sp == nil {
				sp = &tupleSpace{mask: mask, buckets: make(map[uint64][]tssEntry)}
				spaces[mask] = sp
			}
			// Rules iterate in ascending order, so buckets stay sorted.
			sp.buckets[keys[j]] = append(sp.buckets[keys[j]], e)
		}
	}
	for _, sp := range spaces {
		s.spaces = append(s.spaces, sp)
	}
	// Deterministic probe order (map iteration order is not): by mask.
	sort.Slice(s.spaces, func(i, j int) bool { return s.spaces[i].mask < s.spaces[j].mask })
	return s
}

// dnf expands n into disjunctive normal form: a list of conjunctive
// clauses, each a list of literal nodes (leaves and whole NOT subtrees).
// AND/OR in the filter VM are pure boolean combiners of position-
// independent leaf tests, so ∧-over-∨ distribution preserves semantics
// exactly; NOT carries a parsed guard and is therefore never pushed down.
// Returns ok=false when the clause count would exceed limit.
func dnf(n Node, limit int) ([][]Node, bool) {
	switch t := n.(type) {
	case *AndNode:
		ls, ok := dnf(t.L, limit)
		if !ok {
			return nil, false
		}
		rs, ok := dnf(t.R, limit)
		if !ok {
			return nil, false
		}
		if len(ls)*len(rs) > limit {
			return nil, false
		}
		out := make([][]Node, 0, len(ls)*len(rs))
		for _, l := range ls {
			for _, r := range rs {
				clause := make([]Node, 0, len(l)+len(r))
				clause = append(clause, l...)
				clause = append(clause, r...)
				out = append(out, clause)
			}
		}
		return out, true
	case *OrNode:
		ls, ok := dnf(t.L, limit)
		if !ok {
			return nil, false
		}
		rs, ok := dnf(t.R, limit)
		if !ok {
			return nil, false
		}
		if len(ls)+len(rs) > limit {
			return nil, false
		}
		return append(ls, rs...), true
	default:
		return [][]Node{{n}}, true
	}
}

// clauseKey extracts the clause's exact-match dimensions and computes its
// bucket key (same dimension order and mixing as tupleSpace.keyOf). When
// a clause constrains one dimension twice, the first occurrence keys it;
// the rule's program enforces the rest (a contradictory clause simply
// never verifies).
func clauseKey(clause []Node) (dimMask, uint64) {
	var vals [numDims]uint64
	var mask dimMask
	set := func(d tssDim, v uint64) {
		if mask&(1<<d) == 0 {
			mask |= 1 << d
			vals[d] = v
		}
	}
	for _, n := range clause {
		switch t := n.(type) {
		case *VersionNode:
			set(dimVersion, uint64(t.V))
		case *ProtoNode:
			set(dimProto, uint64(t.Proto))
		case *HostNode:
			if t.Dir == DirSrc {
				set(dimSrcAddr, addrKey(t.Addr))
			} else {
				set(dimDstAddr, addrKey(t.Addr))
			}
		case *PortNode:
			if t.Lo != t.Hi {
				continue // range: program-verified only
			}
			switch t.Dir {
			case DirSrc:
				set(dimSrcPort, uint64(t.Lo))
			case DirDst:
				set(dimDstPort, uint64(t.Lo))
			}
			// DirEither: program-verified only (matches on either port; no
			// single dimension captures it).
		}
	}
	h := fnv64Init
	for d := tssDim(0); d < numDims; d++ {
		if mask&(1<<d) != 0 {
			h = mix64(h, vals[d])
		}
	}
	return mask, h
}

// usesNumCmp reports whether the AST contains a numeric-field comparison
// (ttl/len/tos) anywhere — the tests whose inputs vary within one flow.
func usesNumCmp(n Node) bool {
	switch t := n.(type) {
	case *AndNode:
		return usesNumCmp(t.L) || usesNumCmp(t.R)
	case *OrNode:
		return usesNumCmp(t.L) || usesNumCmp(t.R)
	case *NotNode:
		return usesNumCmp(t.X)
	case *CmpNode:
		return true
	default:
		return false
	}
}
