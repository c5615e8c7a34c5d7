package filter

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Table errors.
var (
	// ErrRuleNotFound indicates removal of an unknown rule ID.
	ErrRuleNotFound = errors.New("filter: rule not found")
)

// Rule is one installed filter: a compiled specification routed to a named
// output. Rules are evaluated in priority order (lower first; insertion
// order breaks ties), matching the paper's requirement that a classifier
// honours "the semantics of installed filter specifications in terms of
// the particular named outgoing interface(s)".
type Rule struct {
	ID       uint64
	Spec     string
	Priority int
	Output   string
	prog     *Program
	ast      Node // retained for the tuple-space compiler (DESIGN.md §7)
}

// ruleSet is one immutable rule-list snapshot plus its generation stamp.
// The generation increments on every mutation; downstream per-flow verdict
// caches key their entries on it, so a rule change invalidates cached
// verdicts with the same atomic publication that makes the change itself
// visible — no separate flush protocol.
type ruleSet struct {
	rules []*Rule
	gen   uint64
}

// Table is an ordered, concurrency-safe rule set. Lookup is lock-free on
// the fast path: the rule list is an immutable snapshot swapped atomically
// on mutation (classification happens on every packet; rule churn is rare),
// and the tuple-space compiled form of the snapshot (tss.go) is built
// lazily, once per generation, on first lookup after a mutation.
type Table struct {
	mu     sync.Mutex // serialises mutations
	nextID uint64
	rules  atomic.Pointer[ruleSet]

	compileMu sync.Mutex // serialises lazy compilation
	compiled  atomic.Pointer[Snapshot]
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{}
	t.rules.Store(&ruleSet{rules: make([]*Rule, 0), gen: 1})
	return t
}

// Add compiles spec and installs it routed to output with the given
// priority, returning the rule ID.
func (t *Table) Add(spec string, priority int, output string) (uint64, error) {
	n, err := Parse(spec)
	if err != nil {
		return 0, fmt.Errorf("filter: add rule: %w", err)
	}
	prog, err := CompileProgram(n)
	if err != nil {
		return 0, fmt.Errorf("filter: add rule: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	r := &Rule{ID: t.nextID, Spec: spec, Priority: priority, Output: output, prog: prog, ast: n}
	cur := t.rules.Load()
	next := make([]*Rule, 0, len(cur.rules)+1)
	inserted := false
	for _, have := range cur.rules {
		if !inserted && r.Priority < have.Priority {
			next = append(next, r)
			inserted = true
		}
		next = append(next, have)
	}
	if !inserted {
		next = append(next, r)
	}
	t.rules.Store(&ruleSet{rules: next, gen: cur.gen + 1})
	return r.ID, nil
}

// Remove uninstalls a rule by ID.
func (t *Table) Remove(id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.rules.Load()
	next := make([]*Rule, 0, len(cur.rules))
	found := false
	for _, r := range cur.rules {
		if r.ID == id {
			found = true
			continue
		}
		next = append(next, r)
	}
	if !found {
		return fmt.Errorf("filter: rule %d: %w", id, ErrRuleNotFound)
	}
	t.rules.Store(&ruleSet{rules: next, gen: cur.gen + 1})
	return nil
}

// Gen returns the rule-set generation: it changes on every Add/Remove, so
// a cached verdict stamped with the generation it was computed under is
// provably from the current rule set iff the stamps match.
func (t *Table) Gen() uint64 { return t.rules.Load().gen }

// Snapshot is one generation's compiled lookup structure. It stays valid
// (and behaviourally frozen) after further table mutations — callers that
// batch lookups take one snapshot per batch, exactly like the classifier's
// output-set snapshot discipline.
type Snapshot struct {
	ct  *CompiledTable
	gen uint64
}

// Gen returns the generation this snapshot was compiled from.
func (s *Snapshot) Gen() uint64 { return s.gen }

// FlowSafe reports whether verdicts are pure functions of the 5-tuple
// flow identity (see CompiledTable.FlowSafe) — the precondition for
// fronting this snapshot with a per-flow verdict cache.
func (s *Snapshot) FlowSafe() bool { return s.ct.FlowSafe() }

// Compiled exposes the underlying compiled table (diagnostics, benches).
func (s *Snapshot) Compiled() *CompiledTable { return s.ct }

// CacheWorthwhile reports whether fronting this snapshot with a per-flow
// cache can pay off: the verdict must be flow-pure, and the table large
// enough that a probe beats reclassification (small tables run the linear
// walk, which is already cheaper than a cache probe).
func (s *Snapshot) CacheWorthwhile() bool {
	return s.ct.FlowSafe() && s.ct.spaces != nil
}

// Lookup classifies a view against this snapshot.
func (s *Snapshot) Lookup(v *View) (string, bool) { return s.ct.Lookup(v) }

// Snapshot returns the compiled form of the current rule set, building it
// (once per generation, under compileMu) if this generation has not been
// looked up yet. The fast path is two atomic loads and a comparison.
func (t *Table) Snapshot() *Snapshot {
	rs := t.rules.Load()
	if cs := t.compiled.Load(); cs != nil && cs.gen == rs.gen {
		return cs
	}
	t.compileMu.Lock()
	defer t.compileMu.Unlock()
	rs = t.rules.Load()
	if cs := t.compiled.Load(); cs != nil && cs.gen == rs.gen {
		return cs
	}
	cs := &Snapshot{ct: CompileTable(rs.rules), gen: rs.gen}
	t.compiled.Store(cs)
	return cs
}

// Lookup classifies a packet, returning the output of the first matching
// rule and true, or "" and false when nothing matches.
func (t *Table) Lookup(raw []byte) (string, bool) {
	v := Extract(raw)
	return t.LookupView(&v)
}

// LookupView classifies a pre-extracted view through the compiled backend.
func (t *Table) LookupView(v *View) (string, bool) {
	return t.Snapshot().Lookup(v)
}

// LookupViewVM classifies through the linear walk of per-rule VM programs
// — the reference oracle the compiled backend is fuzz-checked against
// (FuzzCompiledEquivalence), kept as the independent semantics.
func (t *Table) LookupViewVM(v *View) (string, bool) {
	for _, r := range t.rules.Load().rules {
		if r.prog.Match(v) {
			return r.Output, true
		}
	}
	return "", false
}

// Rules returns a snapshot of the installed rules in evaluation order.
func (t *Table) Rules() []Rule {
	cur := t.rules.Load()
	out := make([]Rule, len(cur.rules))
	for i, r := range cur.rules {
		out[i] = *r
	}
	return out
}

// Len returns the installed rule count.
func (t *Table) Len() int { return len(t.rules.Load().rules) }
