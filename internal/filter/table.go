package filter

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
	prog     *Program // the rule's only evaluator
	ast      Node     // retained for the tuple-space index (DESIGN.md §7)
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
// and its compiled Snapshot — the tuple-space index over the rules' VM
// programs (tss.go) — is built lazily, once per generation, on first
// lookup after a mutation.
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
	rules := cur.rules
	at := sort.Search(len(rules), func(i int) bool { return rules[i].Priority > r.Priority })
	if at < len(rules) {
		rules = slices.Clip(rules) // a mid-list insert copies
	}
	// A rule that sorts last is appended into the published array: every
	// published list is the latest under mu, and a snapshot reads only its
	// own length, so the slots past it are free.
	t.rules.Store(&ruleSet{rules: slices.Insert(rules, at, r), gen: cur.gen + 1})
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
	cs := compile(rs.rules, rs.gen)
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
// — the reference oracle the compiled index is fuzz-checked against
// (FuzzCompiledEquivalence): the same programs, with no index choosing
// which of them run.
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
