// Package adapt closes the reflective loop: a policy engine that watches
// the capsule-wide stats tree (the uniform core.IStats capability) and,
// when a rule's condition holds, reconfigures the running data plane —
// expressing every action through existing meta-space operations only
// (architecture hot-swap and rescaling, interception install/remove,
// resources retuning). It is the paper's "inspect itself and adapt"
// claim made executable: nothing in here touches a packet; the engine
// observes and then drives the same reflective verbs an operator would.
//
// The engine is itself a component (core.Component + Starter/Stopper), so
// inserting it into the capsule it manages makes the adaptation loop
// visible to the meta-space it operates through: the architecture
// meta-model enumerates it, and the stats tree carries its tick/firing
// counters like any other element's.
//
// DESIGN.md §5 documents the rule grammar and the action-to-meta-model
// mapping; experiment E13 measures reaction time and throughput across a
// rule-triggered queue swap.
package adapt

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"netkit/core"
	"netkit/resources"
)

// TypeEngine is the adaptation engine's registered component type name.
const TypeEngine = "netkit.adapt.Engine"

// View is what a condition (and an action) sees on one sampling tick: the
// current and previous stats-tree snapshots and the wall time between
// them, so rules can express both levels ("occupancy above x") and rates
// ("drops per second above y").
type View struct {
	Now     core.StatNode
	Prev    core.StatNode
	Elapsed time.Duration
}

// Gauge resolves a gauge (or any stat's instantaneous value) at the
// slash-separated component path in the current snapshot.
func (v View) Gauge(path, stat string) (float64, bool) {
	n, ok := v.Now.Find(path)
	if !ok {
		return 0, false
	}
	s, ok := n.Stat(stat)
	return s.Value, ok
}

// Delta returns the increase of a counter at path between the previous
// and current snapshots. The first tick has no previous snapshot and
// reports false.
func (v View) Delta(path, stat string) (float64, bool) {
	now, ok := v.Gauge(path, stat)
	if !ok {
		return 0, false
	}
	pn, ok := v.Prev.Find(path)
	if !ok {
		return 0, false
	}
	ps, ok := pn.Stat(stat)
	if !ok {
		return 0, false
	}
	return now - ps.Value, true
}

// Rate returns a counter's increase per second over the last tick.
func (v View) Rate(path, stat string) (float64, bool) {
	d, ok := v.Delta(path, stat)
	if !ok || v.Elapsed <= 0 {
		return 0, false
	}
	return d / v.Elapsed.Seconds(), true
}

// Quantile resolves the q-quantile of a histogram stat at path in the
// current snapshot — the cumulative, since-start distribution.
func (v View) Quantile(path, stat string, q float64) (float64, bool) {
	n, ok := v.Now.Find(path)
	if !ok {
		return 0, false
	}
	s, ok := n.Stat(stat)
	if !ok || s.Kind != core.KindHistogram || s.Hist == nil || s.Hist.Count == 0 {
		return 0, false
	}
	return s.Hist.Quantile(q), true
}

// WindowQuantile resolves the q-quantile of a histogram stat over the last
// tick only: the bucket-wise difference of the current and previous
// cumulative snapshots (core.HistSnapshot.Sub). This is the SLO view — a
// latency regression shows up here within one tick, where the cumulative
// quantile would stay diluted by history. The first tick, a missing stat,
// and an empty window all report false.
func (v View) WindowQuantile(path, stat string, q float64) (float64, bool) {
	n, ok := v.Now.Find(path)
	if !ok {
		return 0, false
	}
	s, ok := n.Stat(stat)
	if !ok || s.Kind != core.KindHistogram || s.Hist == nil {
		return 0, false
	}
	var prev *core.HistSnapshot
	if pn, ok := v.Prev.Find(path); ok {
		if ps, ok := pn.Stat(stat); ok {
			prev = ps.Hist
		}
	}
	w := s.Hist.Sub(prev)
	if w == nil || w.Count == 0 {
		return 0, false
	}
	return w.Quantile(q), true
}

// Condition decides, from one View, whether a rule wants to fire.
// Conditions must be pure observations: no meta-space mutation.
type Condition func(View) bool

// Action performs one reconfiguration through the capsule's meta-space.
// The View is the evidence the rule fired on, so actions can scale their
// response to the observed magnitude (e.g. retune a rate from measured
// drops).
type Action func(ctx context.Context, c *core.Capsule, v View) error

// Rule is one adaptation policy: When the condition holds (for Sustain
// consecutive ticks), Then runs, and the rule is refractory for Cooldown.
type Rule struct {
	// Name identifies the rule in firings and history.
	Name string
	// When is the observed trigger.
	When Condition
	// Then is the meta-space response.
	Then Action
	// Sustain is how many consecutive ticks When must hold before the
	// rule fires (default 1). Hysteresis against transient spikes.
	Sustain int
	// Cooldown is the refractory period after a firing during which the
	// rule is not evaluated. Guards against reconfiguration thrash.
	Cooldown time.Duration
	// Once disarms the rule after its first successful firing.
	Once bool
}

// Firing records one rule activation.
type Firing struct {
	Rule string    `json:"rule"`
	Tick uint64    `json:"tick"`
	At   time.Time `json:"at"`
	Err  string    `json:"err,omitempty"`
}

// Options parameterises an Engine.
type Options struct {
	// Interval is the sampling tick (default 25ms).
	Interval time.Duration
	// OnFire, when set, observes every firing (after the action ran).
	OnFire func(Firing)
}

// ruleState is the engine's per-rule bookkeeping.
type ruleState struct {
	run       int // consecutive ticks When has held
	lastFired time.Time
	disarmed  bool
}

// Engine samples the capsule's stats tree on a tick and evaluates its
// rules against consecutive snapshots. Actions run on the tick goroutine,
// one at a time — adaptation is deliberately serial, because concurrent
// reconfigurations of one capsule are how control loops fight each other.
type Engine struct {
	*core.Base
	capsule *core.Capsule
	opts    Options
	rules   []Rule

	states []ruleState // the loop's own
	task   *resources.Task

	firings atomic.Uint64
	actErrs atomic.Uint64

	histMu  sync.Mutex
	history []Firing
}

// maxHistory bounds the retained firing log.
const maxHistory = 256

// actionTimeout bounds each action's context. The context is also
// cancelled by Stop, so a blocking action (e.g. a rescale's drain wait)
// can never wedge the engine's shutdown.
const actionTimeout = 10 * time.Second

// NewEngine builds an adaptation engine over the given capsule. Insert it
// into that same capsule and start it (StartAll does both halves under a
// Blueprint); it may equally observe a capsule from outside.
func NewEngine(c *core.Capsule, opts Options, rules ...Rule) *Engine {
	if opts.Interval <= 0 {
		opts.Interval = 25 * time.Millisecond
	}
	e := &Engine{
		Base:    core.NewBase(TypeEngine),
		capsule: c,
		opts:    opts,
		rules:   rules,
		states:  make([]ruleState, len(rules)),
		task:    resources.NewTask("adapt"),
	}
	return e
}

// Rules returns the rule names in evaluation order.
func (e *Engine) Rules() []string {
	out := make([]string, len(e.rules))
	for i, r := range e.rules {
		out[i] = r.Name
	}
	return out
}

// Start implements core.Starter: it runs the sampling tick as the task
// "adapt", one sample per step, parked for the interval between. The first
// step takes only the baseline, and none samples within an interval of
// the last, so no tick sees a near-zero Elapsed. Ticks are the task's work.
func (e *Engine) Start(context.Context) error {
	var prev core.StatNode
	var last time.Time
	e.task.Run(func(ctx context.Context) (int, error) {
		now := time.Now()
		if last.IsZero() {
			prev, last = core.CapsuleStats(e.capsule), now
			return 0, nil
		}
		if now.Sub(last) < e.opts.Interval {
			return 0, nil
		}
		view := View{Now: core.CapsuleStats(e.capsule), Prev: prev, Elapsed: now.Sub(last)}
		e.tick(ctx, view, now)
		prev, last = view.Now, now
		return 1, nil
	}, resources.Idle{Fallback: e.opts.Interval})
	return nil
}

// Stop implements core.Stopper: it stops and joins the tick task. Every
// action's context derives from the task's, which Stop cancels first, so
// even an action stuck in a drain wait unwinds and Stop returns.
func (e *Engine) Stop(context.Context) error {
	e.task.Stop()
	return nil
}

// Tasks lists the engine's task for the control plane.
func (e *Engine) Tasks() []*resources.Task { return []*resources.Task{e.task} }

// tick evaluates every rule against one view; actions run under ctx.
func (e *Engine) tick(ctx context.Context, v View, now time.Time) {
	tickN := e.Ticks() + 1 // the runner counts this tick once it returns
	for i := range e.rules {
		r := &e.rules[i]
		st := &e.states[i]
		if st.disarmed {
			continue
		}
		if r.Cooldown > 0 && !st.lastFired.IsZero() && now.Sub(st.lastFired) < r.Cooldown {
			st.run = 0
			continue
		}
		if r.When == nil || !r.When(v) {
			st.run = 0
			continue
		}
		st.run++
		need := r.Sustain
		if need < 1 {
			need = 1
		}
		if st.run < need {
			continue
		}
		st.run = 0
		st.lastFired = now
		f := Firing{Rule: r.Name, Tick: tickN, At: now}
		if r.Then != nil {
			actx, cancel := context.WithTimeout(ctx, actionTimeout)
			err := r.Then(actx, e.capsule, v)
			cancel()
			if err != nil {
				f.Err = err.Error()
				e.actErrs.Add(1)
			} else if r.Once {
				st.disarmed = true
			}
		} else if r.Once {
			st.disarmed = true
		}
		e.firings.Add(1)
		e.histMu.Lock()
		if len(e.history) >= maxHistory {
			copy(e.history, e.history[1:])
			e.history = e.history[:len(e.history)-1]
		}
		e.history = append(e.history, f)
		e.histMu.Unlock()
		if e.opts.OnFire != nil {
			e.opts.OnFire(f)
		}
	}
}

// Ticks reports how many sampling ticks have run. The first tick's view
// has the engine-start snapshot as its Prev, so callers that want delta
// rules to observe an event should let at least one tick pass first.
func (e *Engine) Ticks() uint64 { return e.task.Stats().Work }

// History returns the retained firing log, oldest first.
func (e *Engine) History() []Firing {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	return append([]Firing(nil), e.history...)
}

// Stats implements core.IStats: the loop observes itself through the same
// capability it samples.
func (e *Engine) Stats() []core.Stat {
	return []core.Stat{
		core.C("adapt_ticks", "ticks", e.Ticks()),
		core.C("adapt_firings", "firings", e.firings.Load()),
		core.C("adapt_action_errors", "errors", e.actErrs.Load()),
		core.G("adapt_rules", "rules", float64(len(e.rules))),
	}
}

var (
	_ core.Component = (*Engine)(nil)
	_ core.Starter   = (*Engine)(nil)
	_ core.Stopper   = (*Engine)(nil)
	_ core.IStats    = (*Engine)(nil)
)
