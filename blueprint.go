// blueprint.go is the declarative builder for capsule architectures: the
// few-lines replacement for the instantiate/bind/start boilerplate that
// every NETKIT program otherwise repeats. A Blueprint records steps;
// Build replays them in declaration order against a fresh capsule, infers
// each binding's interface from the client receptacle, starts every
// component, and returns the running System.

package netkit

import (
	"context"
	"fmt"
	"time"

	"netkit/adapt"
	"netkit/core"
	"netkit/internal/buffers"
	"netkit/internal/ipc"
	"netkit/internal/osabs"
	"netkit/router"
)

// DefaultReceptacle is the receptacle name Pipe assumes, matching the
// single-output convention of the Router CF components.
const DefaultReceptacle = "out"

// Blueprint is a declarative description of a capsule architecture. All
// methods record steps and return the receiver for chaining; nothing
// touches a capsule until Build. Steps are replayed in declaration order,
// so a constraint declared before a pipe polices that pipe's bind.
type Blueprint struct {
	name  string
	opts  []core.CapsuleOption
	steps []buildStep
}

type buildStep struct {
	desc  string
	apply func(*core.Capsule) error
}

// NewBlueprint starts an empty blueprint for a capsule with the given
// name and options.
func NewBlueprint(name string, opts ...core.CapsuleOption) *Blueprint {
	return &Blueprint{name: name, opts: opts}
}

// Add declares a component instance of typeName, constructed through the
// capsule's loader registry with cfg.
func (b *Blueprint) Add(name, typeName string, cfg map[string]string) *Blueprint {
	return b.step(fmt.Sprintf("add %s (%s)", name, typeName), func(c *core.Capsule) error {
		_, err := c.Instantiate(name, typeName, cfg)
		return err
	})
}

// Insert declares a pre-constructed component instance.
func (b *Blueprint) Insert(name string, comp core.Component) *Blueprint {
	return b.step(fmt.Sprintf("insert %s", name), func(c *core.Capsule) error {
		return c.Insert(name, comp)
	})
}

// FastPath declares a fused chain entry point (router.FastPath) under
// name. Pipe it ahead of a processing chain — FastPath("fast").Pipe(
// "fast", "v4", "count") — and push into it: when the chain downstream is
// interceptor-free and every hop is fusible, packets run it as one
// compiled closure; any structural mutation (interceptor install, rebind,
// hot-swap) de-specialises it on the spot and it re-fuses once the chain
// is clean (DESIGN.md §8).
func (b *Blueprint) FastPath(name string) *Blueprint {
	return b.step(fmt.Sprintf("fastpath %s", name), func(c *core.Capsule) error {
		return c.Insert(name, router.NewFastPath(c))
	})
}

// Isolate declares a component instance of typeName hosted out-of-process
// style behind an ipc transport (§5's isolation mechanism): the capsule
// holds an ipc.RemoteComponent stand-in whose pushes cross the boundary
// as pipelined binary batch frames and whose receptacles deliver what the
// isolated side emits, so it binds, pipes and reports stats like any
// in-proc component. The stand-in owns its transport — stopping the
// capsule tears the isolation boundary down with it. The instance is
// constructed in the isolated capsule through the same loader registry
// this blueprint's capsule uses, so every registered factory can be
// isolated by type name.
func (b *Blueprint) Isolate(name, typeName string, cfg map[string]string) *Blueprint {
	return b.step(fmt.Sprintf("isolate %s (%s)", name, typeName), func(c *core.Capsule) error {
		rc, err := ipc.Isolate(name, typeName, cfg, c.ComponentRegistry())
		if err != nil {
			return err
		}
		if err := c.Insert(name, rc); err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = rc.Stop(ctx)
			return err
		}
		return nil
	})
}

// Pipe declares a chain of bindings through each component's
// DefaultReceptacle: Pipe("a", "b", "c") binds a.out -> b and b.out -> c.
// The bound interface is inferred from each client receptacle, so the
// chain may mix interface types as long as adjacent components agree.
func (b *Blueprint) Pipe(names ...string) *Blueprint {
	if len(names) < 2 {
		return b.step("pipe", func(*core.Capsule) error {
			return fmt.Errorf("netkit: Pipe needs at least two components, got %d", len(names))
		})
	}
	for i := 0; i+1 < len(names); i++ {
		b.Connect(names[i], DefaultReceptacle, names[i+1])
	}
	return b
}

// Connect declares one binding from the client component's named
// receptacle to the server component. The interface is inferred from the
// receptacle's declared interface ID.
func (b *Blueprint) Connect(from, receptacle, to string) *Blueprint {
	return b.step(fmt.Sprintf("connect %s.%s -> %s", from, receptacle, to), func(c *core.Capsule) error {
		comp, ok := c.Component(from)
		if !ok {
			return fmt.Errorf("netkit: connect: client %q: %w", from, core.ErrNotFound)
		}
		recp, ok := comp.Receptacle(receptacle)
		if !ok {
			return fmt.Errorf("netkit: connect: receptacle %s.%q: %w", from, receptacle, core.ErrNotFound)
		}
		_, err := c.Bind(from, receptacle, to, recp.Iface())
		return err
	})
}

// DeviceSource declares a router.NICSource pumping an existing stratum-1
// device (channel-backed NIC, UDP socket, any osabs.Device) into the
// pipeline. pool may be nil: frames are then wrapped zero-copy, and
// arena-backed devices carry their own pooled refcounted storage
// regardless. pump tunes batching and the busy-poll idle policy; the
// zero value takes the defaults.
func (b *Blueprint) DeviceSource(name string, dev osabs.Device, pool *buffers.Pool, pump router.PumpConfig) *Blueprint {
	return b.step(fmt.Sprintf("device-source %s", name), func(c *core.Capsule) error {
		src, err := router.NewNICSourcePump(dev, pool, pump)
		if err != nil {
			return err
		}
		return c.Insert(name, src)
	})
}

// DeviceSink declares a router.NICSink transmitting the pipeline's
// packets out through an existing stratum-1 device, one batched device
// call per packet batch.
func (b *Blueprint) DeviceSink(name string, dev osabs.Device) *Blueprint {
	return b.step(fmt.Sprintf("device-sink %s", name), func(c *core.Capsule) error {
		snk, err := router.NewNICSink(dev)
		if err != nil {
			return err
		}
		return c.Insert(name, snk)
	})
}

// ShardsCfg declares a sharded data plane under name: cfg.Shards parallel
// Router CF pipeline replicas built by build, fed by an RSS flow-hash
// dispatcher so every flow keeps ordering on one replica
// (router.ShardedCF). cfg.LatencyHistogram adds the per-lane latency
// histograms that load harnesses and tail-latency SLO rules read. The
// resulting component provides IPacketPush and a DefaultReceptacle "out"
// where the replicas merge, so it composes with Pipe like any single-lane
// component:
//
//	NewBlueprint("r").ShardsCfg("fwd", router.ShardConfig{Shards: 4}, replica).Pipe("fwd", "sink")
func (b *Blueprint) ShardsCfg(name string, cfg router.ShardConfig, build router.ReplicaFactory) *Blueprint {
	return b.step(fmt.Sprintf("shards %s x%d", name, cfg.Shards), func(c *core.Capsule) error {
		sc, err := router.NewShardedCF(c, cfg, build)
		if err != nil {
			return err
		}
		return c.Insert(name, sc)
	})
}

// AdaptName is the instance name Blueprint.Adapt inserts the adaptation
// engine under.
const AdaptName = "adapt"

// Adapt declares the closed reflective loop: an adapt.Engine, inserted
// under AdaptName, that samples the capsule's stats tree on a tick and
// applies the given rules through the meta-space (hot-swap, rescaling,
// interception, resource retuning). The engine is an ordinary component —
// StartAll starts its sampling loop, the architecture meta-model
// enumerates it, and its own tick/firing counters appear in the very
// stats tree it watches.
func (b *Blueprint) Adapt(opts adapt.Options, rules ...adapt.Rule) *Blueprint {
	return b.step(fmt.Sprintf("adapt (%d rules)", len(rules)), func(c *core.Capsule) error {
		return c.Insert(AdaptName, adapt.NewEngine(c, opts, rules...))
	})
}

// Constrain declares a named bind-time constraint. It polices every bind
// declared after it, and stays installed on the built capsule to police
// post-build reconfiguration.
func (b *Blueprint) Constrain(name string, check func(*core.Capsule, core.BindRequest) error) *Blueprint {
	return b.step(fmt.Sprintf("constrain %s", name), func(c *core.Capsule) error {
		return c.AddConstraint(core.BindConstraint{Name: name, Check: check})
	})
}

// Intercept declares a named Around on the binding most recently reachable
// at the client component's receptacle, installed after the binding exists.
func (b *Blueprint) Intercept(component, receptacle, name string, around core.Around) *Blueprint {
	return b.step(fmt.Sprintf("intercept %s.%s (%s)", component, receptacle, name), func(c *core.Capsule) error {
		return Meta(c).Interception().Install(component, receptacle, name, around)
	})
}

func (b *Blueprint) step(desc string, apply func(*core.Capsule) error) *Blueprint {
	b.steps = append(b.steps, buildStep{desc: desc, apply: apply})
	return b
}

// Build replays the declared steps against a fresh capsule, starts every
// component, and returns the running System. On any failure the partially
// built capsule is closed and the failing step is named in the error.
func (b *Blueprint) Build(ctx context.Context) (*System, error) {
	capsule := core.NewCapsule(b.name, b.opts...)
	for _, s := range b.steps {
		if err := s.apply(capsule); err != nil {
			_ = capsule.Close(ctx)
			return nil, fmt.Errorf("netkit: build %q: step %q: %w", b.name, s.desc, err)
		}
	}
	if err := capsule.StartAll(ctx); err != nil {
		_ = capsule.Close(ctx)
		return nil, fmt.Errorf("netkit: build %q: start: %w", b.name, err)
	}
	return &System{capsule: capsule}, nil
}

// System is a built, started capsule plus its meta-space.
type System struct {
	capsule *core.Capsule
}

// Capsule returns the underlying component runtime.
func (s *System) Capsule() *core.Capsule { return s.capsule }

// Meta returns the system's unified meta-space (Figure 2): architecture,
// interface, interception and resources meta-models.
func (s *System) Meta() *MetaSpace { return Meta(s.capsule) }

// Close stops every component and tears the capsule down.
func (s *System) Close(ctx context.Context) error { return s.capsule.Close(ctx) }
