// meta.go implements the unified meta-space entry point of the paper's
// Figure 2: one handle per capsule from which all four meta-models —
// architecture, interface, interception and resources — are reached.
// Before this facade existed the four models were exercised through
// scattered access paths (Capsule.Snapshot, the process-wide interface
// registry, per-binding interceptor methods, a free-standing resources
// manager); Meta ties them to a single, discoverable surface.

package netkit

import (
	"fmt"
	"sync"

	"netkit/core"
	"netkit/resources"
)

// MetaSpace is the reflective meta-space of one capsule. Obtain one with
// Meta; the zero value is not usable.
type MetaSpace struct {
	capsule *core.Capsule
}

// metaResources associates each capsule with its resources meta-model
// instance. The association lives in the facade (not in core) so the
// kernel stays free of any dependency on the resources package; every
// Meta(c) call for the same capsule observes the same Manager.
var metaResources sync.Map // *core.Capsule -> *resources.Manager

// Meta returns the meta-space of the given capsule. Calling Meta twice on
// the same capsule yields handles onto the same underlying meta-models.
func Meta(c *core.Capsule) *MetaSpace {
	if c == nil {
		panic("netkit: Meta(nil capsule)")
	}
	return &MetaSpace{capsule: c}
}

// Capsule returns the capsule this meta-space reflects.
func (m *MetaSpace) Capsule() *core.Capsule { return m.capsule }

// Architecture returns the architecture meta-model: component/binding
// graph introspection, mutation events, and bind-time constraints.
func (m *MetaSpace) Architecture() *ArchitectureMeta {
	return &ArchitectureMeta{capsule: m.capsule}
}

// Interface returns the interface meta-model: descriptor lookup and
// conformance checking against the registry in force for the capsule.
func (m *MetaSpace) Interface() *InterfaceMeta {
	return &InterfaceMeta{capsule: m.capsule}
}

// Interception returns the interception meta-model: installation and
// removal of named Around chains on live bindings.
func (m *MetaSpace) Interception() *InterceptionMeta {
	return &InterceptionMeta{capsule: m.capsule}
}

// Resources returns the capsule's resources meta-model: the task table
// and abstract resource capacities scoped to this capsule.
// The Manager is created on first access and shared by every MetaSpace
// handle onto the same capsule; the association is dropped when the
// capsule closes, so closed capsules are not retained by the facade.
func (m *MetaSpace) Resources() *resources.Manager {
	if mgr, ok := metaResources.Load(m.capsule); ok {
		return mgr.(*resources.Manager)
	}
	created := resources.NewManager()
	if mgr, loaded := metaResources.LoadOrStore(m.capsule, created); loaded {
		return mgr.(*resources.Manager)
	}
	// We created the association: evict it when the capsule closes, so
	// the map never pins a dead capsule. On an already-closed capsule
	// the hook (and eviction) runs immediately.
	capsule := m.capsule
	capsule.OnClose(func() { metaResources.Delete(capsule) })
	return created
}

// ---------------------------------------------------------------------------
// Architecture meta-model

// ArchitectureMeta exposes the architecture meta-model of one capsule.
type ArchitectureMeta struct {
	capsule *core.Capsule
}

// Snapshot captures the current component/binding graph.
func (a *ArchitectureMeta) Snapshot() *core.Graph { return a.capsule.Snapshot() }

// Validate snapshots the architecture and checks its structural
// invariants.
func (a *ArchitectureMeta) Validate() error { return a.capsule.Snapshot().Validate() }

// Subscribe registers a mutation-event listener with the given channel
// buffer. The returned Subscription exposes the event channel, a cancel
// function, and the subscriber's own drop counter.
func (a *ArchitectureMeta) Subscribe(buf int) *core.Subscription {
	return a.capsule.SubscribeEvents(buf)
}

// DroppedEvents reports how many mutation events the capsule has dropped
// across all subscribers — non-zero means the event stream is incomplete
// and listeners should resynchronise from a fresh Snapshot.
func (a *ArchitectureMeta) DroppedEvents() uint64 { return a.capsule.DroppedEvents() }

// Constrain installs a named bind-time constraint: every subsequent Bind
// and Rebind on the capsule is vetoed unless check returns nil.
func (a *ArchitectureMeta) Constrain(name string, check func(*core.Capsule, core.BindRequest) error) error {
	return a.capsule.AddConstraint(core.BindConstraint{Name: name, Check: check})
}

// Unconstrain removes a named bind-time constraint.
func (a *ArchitectureMeta) Unconstrain(name string) error {
	return a.capsule.RemoveConstraint(name)
}

// Constraints returns the installed constraint names in evaluation order.
func (a *ArchitectureMeta) Constraints() []string { return a.capsule.Constraints() }

// ---------------------------------------------------------------------------
// Interface meta-model

// InterfaceMeta exposes the interface meta-model in force for one capsule.
type InterfaceMeta struct {
	capsule *core.Capsule
}

// Registry returns the underlying descriptor catalogue.
func (i *InterfaceMeta) Registry() *core.InterfaceRegistry { return i.capsule.InterfaceRegistry() }

// Lookup returns the descriptor registered for id.
func (i *InterfaceMeta) Lookup(id core.InterfaceID) (*core.Descriptor, bool) {
	return i.capsule.InterfaceRegistry().Lookup(id)
}

// IDs returns every registered interface ID, sorted.
func (i *InterfaceMeta) IDs() []core.InterfaceID { return i.capsule.InterfaceRegistry().IDs() }

// Conforms reports whether v implements the interface identified by id,
// according to the registered descriptor.
func (i *InterfaceMeta) Conforms(id core.InterfaceID, v any) bool {
	return i.capsule.InterfaceRegistry().Conforms(id, v)
}

// ProvidedBy returns the interface IDs provided by the named component
// instance, or an error if the component does not exist.
func (i *InterfaceMeta) ProvidedBy(component string) ([]core.InterfaceID, error) {
	comp, ok := i.capsule.Component(component)
	if !ok {
		return nil, fmt.Errorf("netkit: component %q: %w", component, core.ErrNotFound)
	}
	return comp.ProvidedIDs(), nil
}

// ---------------------------------------------------------------------------
// Interception meta-model

// InterceptionMeta exposes the interception meta-model of one capsule:
// named Around chains installed on live bindings, addressed either by
// binding ID or by the client-side (component, receptacle) endpoint.
type InterceptionMeta struct {
	capsule *core.Capsule
}

// binding resolves the client-side endpoint to its (at most one) binding.
func (ic *InterceptionMeta) binding(component, receptacle string) (*core.Binding, error) {
	for _, b := range ic.capsule.BindingsOf(component) {
		from, recp := b.From()
		if from == component && recp == receptacle {
			return b, nil
		}
	}
	return nil, fmt.Errorf("netkit: no binding at %s.%s: %w", component, receptacle, core.ErrNotFound)
}

// Install appends a named Around to the interceptor chain of the binding
// rooted at component's receptacle. The target interface must have a
// Proxy-capable descriptor.
func (ic *InterceptionMeta) Install(component, receptacle, name string, around core.Around) error {
	b, err := ic.binding(component, receptacle)
	if err != nil {
		return err
	}
	return b.AddInterceptor(core.Interceptor{Name: name, Wrap: around})
}

// Remove removes the named interceptor from the binding rooted at
// component's receptacle, re-fusing the binding if its chain empties.
func (ic *InterceptionMeta) Remove(component, receptacle, name string) error {
	b, err := ic.binding(component, receptacle)
	if err != nil {
		return err
	}
	return b.RemoveInterceptor(name)
}

// Chain returns the interceptor names installed on the binding rooted at
// component's receptacle, in invocation order.
func (ic *InterceptionMeta) Chain(component, receptacle string) ([]string, error) {
	b, err := ic.binding(component, receptacle)
	if err != nil {
		return nil, err
	}
	return b.Interceptors(), nil
}

// Binding resolves the client-side endpoint to the underlying first-class
// binding for operations beyond the named-chain surface (e.g. Rebind).
func (ic *InterceptionMeta) Binding(component, receptacle string) (*core.Binding, error) {
	return ic.binding(component, receptacle)
}

// Endpoint is the client-side address of one binding: the component whose
// receptacle roots it.
type Endpoint struct {
	Component  string
	Receptacle string
}

// InstallAll appends the named Around to the interceptor chain of EVERY
// listed endpoint's binding, all-or-nothing: endpoints are resolved before
// any chain is touched, and a failed install rolls the interceptor back
// off the bindings it already reached. This is the interception verb for
// replicated (sharded) structures — an audit installed on all replicas
// either observes every shard or none. The same Around value runs on each
// binding, so an accumulating hook aggregates across endpoints naturally.
func (ic *InterceptionMeta) InstallAll(endpoints []Endpoint, name string, around core.Around) error {
	ids := make([]core.BindingID, len(endpoints))
	for i, ep := range endpoints {
		b, err := ic.binding(ep.Component, ep.Receptacle)
		if err != nil {
			return err
		}
		ids[i] = b.ID()
	}
	return ic.capsule.AddInterceptorAll(ids, core.Interceptor{Name: name, Wrap: around})
}

// RemoveAll removes the named interceptor from every listed endpoint's
// binding. All removals are attempted; the first error is returned.
func (ic *InterceptionMeta) RemoveAll(endpoints []Endpoint, name string) error {
	ids := make([]core.BindingID, len(endpoints))
	for i, ep := range endpoints {
		b, err := ic.binding(ep.Component, ep.Receptacle)
		if err != nil {
			return err
		}
		ids[i] = b.ID()
	}
	return ic.capsule.RemoveInterceptorAll(ids, name)
}

// ---------------------------------------------------------------------------

// Around is the interception hook signature, re-exported so facade users
// can write interceptors without importing netkit/core.
type Around = core.Around

// PrePost builds an Around from separate pre- and post-hooks, the common
// pattern in the paper's interception meta-model. Either hook may be nil.
func PrePost(pre func(op string, args []any), post func(op string, args, results []any)) Around {
	return core.PrePost(pre, post)
}

// Service resolves the named component's implementation of the interface
// identified by id, typed. It is the programmatic analogue of binding a
// receptacle by hand: use it at system edges (tests, traffic sources,
// operator tooling) where a full component is not worth defining.
func Service[T any](c *core.Capsule, component string, id core.InterfaceID) (T, error) {
	var zero T
	comp, ok := c.Component(component)
	if !ok {
		return zero, fmt.Errorf("netkit: component %q: %w", component, core.ErrNotFound)
	}
	impl, ok := comp.Provided(id)
	if !ok {
		return zero, fmt.Errorf("netkit: component %q does not provide %q: %w",
			component, id, core.ErrNotFound)
	}
	t, ok := impl.(T)
	if !ok {
		return zero, fmt.Errorf("netkit: component %q: %q has unexpected Go type %T: %w",
			component, id, impl, core.ErrTypeMismatch)
	}
	return t, nil
}
