package adapt

import (
	"context"
	"fmt"

	"netkit/core"
	"netkit/router"
)

// The standard actions. Every one of them is a thin closure over an
// EXISTING meta-space operation — the adapt package adds policy, never
// mechanism: architecture hot-swap (router.HotSwap, ShardedCF.HotSwap),
// architecture rescaling (ShardedCF.SetActiveShards), interception
// install/remove (core.Binding chains), and resources retuning
// (TokenShaper.SetRate over the token bucket). An action that needs a
// verb the meta-space lacks is a missing meta-space feature, not a new
// kind of action.

// Swap hot-swaps component old for a fresh instance from mk, inserted as
// new — the lossless architecture-meta-model reconfiguration (E4). The
// names flip roles in a reverse rule, so a FIFO↔RED pair oscillates
// between two stable names.
func Swap(old, new string, mk func() (core.Component, error)) Action {
	return func(_ context.Context, c *core.Capsule, _ View) error {
		repl, err := mk()
		if err != nil {
			return fmt.Errorf("adapt: swap %s: %w", old, err)
		}
		return router.HotSwap(c, old, new, repl)
	}
}

// ShardSwap hot-swaps the component known (unscoped) as old in EVERY
// replica of the named sharded CF, parking all shard workers at a batch
// boundary (ShardedCF.HotSwap) so the fleet-wide swap is lossless.
func ShardSwap(cf, old, new string, mk func(shard int) (core.Component, error)) Action {
	return func(_ context.Context, c *core.Capsule, _ View) error {
		s, err := shardedCF(c, cf)
		if err != nil {
			return err
		}
		return s.HotSwap(old, new, mk)
	}
}

// ScaleShards rescales the named sharded CF's active lane count to
// target's answer (clamped by the CF). The drain wait is the action's
// context, bounded by the engine tick's lifetime.
func ScaleShards(cf string, target func(View) int) Action {
	return func(ctx context.Context, c *core.Capsule, v View) error {
		s, err := shardedCF(c, cf)
		if err != nil {
			return err
		}
		return s.SetActiveShards(ctx, target(v))
	}
}

// RetuneShaper sets the named shaper's token-bucket fill rate to rate's
// answer — the resources meta-model knob, driven by observed drops.
func RetuneShaper(name string, rate func(View) float64) Action {
	return func(_ context.Context, c *core.Capsule, v View) error {
		comp, ok := c.Component(name)
		if !ok {
			return fmt.Errorf("adapt: shaper %q: %w", name, core.ErrNotFound)
		}
		s, ok := comp.(interface{ SetRate(float64) error })
		if !ok {
			return fmt.Errorf("adapt: %q is not rate-tunable: %w", name, core.ErrTypeMismatch)
		}
		return s.SetRate(rate(v))
	}
}

// Intercept installs a named Around on the binding rooted at the
// client-side (component, receptacle) endpoint — the interception
// meta-model's diagnostic-probe verb. Already-installed probes are left
// alone (no error), so a spike that persists across cooldowns does not
// fail the rule.
func Intercept(component, receptacle, name string, around core.Around) Action {
	return func(_ context.Context, c *core.Capsule, _ View) error {
		b, err := bindingAt(c, component, receptacle)
		if err != nil {
			return err
		}
		for _, have := range b.Interceptors() {
			if have == name {
				return nil
			}
		}
		return b.AddInterceptor(core.Interceptor{Name: name, Wrap: around})
	}
}

// Unintercept removes the named interceptor from the binding rooted at
// (component, receptacle). A probe that is already gone is not an error.
func Unintercept(component, receptacle, name string) Action {
	return func(_ context.Context, c *core.Capsule, _ View) error {
		b, err := bindingAt(c, component, receptacle)
		if err != nil {
			return err
		}
		for _, have := range b.Interceptors() {
			if have == name {
				return b.RemoveInterceptor(name)
			}
		}
		return nil
	}
}

// flowCached is the duck-typed surface of a component carrying a megaflow
// verdict cache (router.Classifier today; anything exposing the verbs
// tomorrow) — the same pattern RetuneShaper uses for SetRate.
type flowCached interface {
	FlowCacheResize(int) error
	FlowCacheFlush()
}

// ResizeFlowCache swaps the named component's flow-verdict cache for one
// of capacity's answer (<= 0 disables it) — the response half of the
// HitRateBelow loop. The swap is atomic and lossless: a cache is an
// accelerator, so replacing it costs re-misses, never packets.
func ResizeFlowCache(name string, capacity func(View) int) Action {
	return func(_ context.Context, c *core.Capsule, v View) error {
		fcc, err := flowCachedAt(c, name)
		if err != nil {
			return err
		}
		return fcc.FlowCacheResize(capacity(v))
	}
}

// FlushFlowCache empties the named component's flow-verdict cache without
// touching its capacity — the cheap "known-stale" response when policy
// outside the rule table changes.
func FlushFlowCache(name string) Action {
	return func(_ context.Context, c *core.Capsule, _ View) error {
		fcc, err := flowCachedAt(c, name)
		if err != nil {
			return err
		}
		fcc.FlowCacheFlush()
		return nil
	}
}

// ShardFlowCacheResize resizes the flow-verdict cache of the component
// known (unscoped) as name inside EVERY replica of the named sharded CF,
// all to capacity's answer — the fleet-wide form of ResizeFlowCache,
// addressed the same way ShardSwap addresses replicas.
func ShardFlowCacheResize(cf, name string, capacity func(View) int) Action {
	return func(_ context.Context, c *core.Capsule, v View) error {
		s, err := shardedCF(c, cf)
		if err != nil {
			return err
		}
		want := capacity(v)
		for i := 0; i < s.Shards(); i++ {
			comp, ok := s.Inner().Component(router.ShardName(i, name))
			if !ok {
				return fmt.Errorf("adapt: shard %d has no %q: %w", i, name, core.ErrNotFound)
			}
			fcc, ok := comp.(flowCached)
			if !ok {
				return fmt.Errorf("adapt: %q is not flow-cached: %w", name, core.ErrTypeMismatch)
			}
			if err := fcc.FlowCacheResize(want); err != nil {
				return err
			}
		}
		return nil
	}
}

// flowCachedAt resolves a component name to its flow-cache surface.
func flowCachedAt(c *core.Capsule, name string) (flowCached, error) {
	comp, ok := c.Component(name)
	if !ok {
		return nil, fmt.Errorf("adapt: flow cache %q: %w", name, core.ErrNotFound)
	}
	fcc, ok := comp.(flowCached)
	if !ok {
		return nil, fmt.Errorf("adapt: %q is not flow-cached: %w", name, core.ErrTypeMismatch)
	}
	return fcc, nil
}

// Seq runs actions in order, stopping at the first error.
func Seq(actions ...Action) Action {
	return func(ctx context.Context, c *core.Capsule, v View) error {
		for _, a := range actions {
			if err := a(ctx, c, v); err != nil {
				return err
			}
		}
		return nil
	}
}

// shardedCF resolves a component name to the sharded data plane.
func shardedCF(c *core.Capsule, name string) (*router.ShardedCF, error) {
	comp, ok := c.Component(name)
	if !ok {
		return nil, fmt.Errorf("adapt: sharded CF %q: %w", name, core.ErrNotFound)
	}
	s, ok := comp.(*router.ShardedCF)
	if !ok {
		return nil, fmt.Errorf("adapt: %q is not a sharded CF: %w", name, core.ErrTypeMismatch)
	}
	return s, nil
}

// bindingAt resolves the client-side endpoint to its (at most one)
// binding, mirroring the interception meta-model's addressing.
func bindingAt(c *core.Capsule, component, receptacle string) (*core.Binding, error) {
	for _, b := range c.BindingsOf(component) {
		from, recp := b.From()
		if from == component && recp == receptacle {
			return b, nil
		}
	}
	return nil, fmt.Errorf("adapt: no binding at %s.%s: %w", component, receptacle, core.ErrNotFound)
}
