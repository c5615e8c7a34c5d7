package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Component is the runtime contract every NETKIT component satisfies. Most
// implementations embed *Base, which provides the bookkeeping; the methods
// exist so the capsule and the meta-models can treat components uniformly
// and language-independently (by name and InterfaceID, never by Go type).
type Component interface {
	// TypeName returns the component's registered type, e.g.
	// "netkit.router.Classifier".
	TypeName() string
	// ProvidedIDs returns the IDs of all interfaces the component exports,
	// sorted.
	ProvidedIDs() []InterfaceID
	// Provided returns the implementation of one exported interface.
	Provided(id InterfaceID) (any, bool)
	// ReceptacleNames returns the names of all receptacles, sorted.
	ReceptacleNames() []string
	// Receptacle returns the named receptacle.
	Receptacle(name string) (GenReceptacle, bool)
	// Annotations returns the component's free-form metadata (placement
	// hints, trust level, task binding). The returned map is a copy.
	Annotations() map[string]string
	// SetAnnotation sets one metadata key.
	SetAnnotation(key, value string)
}

// Starter is implemented by components with active behaviour (pumps,
// timers). The capsule calls Start when the component is started and
// requires it to return promptly. Long-running work runs as tasks of the
// resources meta-model (resources.Task), which the component owns and
// lists through a Tasks method.
type Starter interface {
	Start(ctx context.Context) error
}

// Stopper is the counterpart of Starter. Stop must stop and join every
// task the component owns before returning (no fire-and-forget work
// survives a stopped component).
type Stopper interface {
	Stop(ctx context.Context) error
}

// Base is the canonical Component implementation, embedded by concrete
// components. It is safe for concurrent use. A Base records the provided
// interfaces, the receptacles, and annotations; it deliberately knows
// nothing about the capsule that hosts it.
type Base struct {
	typeName string

	mu     sync.RWMutex
	ifaces map[InterfaceID]any
	recps  map[string]GenReceptacle
	annot  map[string]string
}

var _ Component = (*Base)(nil)

// NewBase returns a Base for a component of the given registered type name.
func NewBase(typeName string) *Base {
	return &Base{
		typeName: typeName,
		ifaces:   make(map[InterfaceID]any),
		recps:    make(map[string]GenReceptacle),
		annot:    make(map[string]string),
	}
}

// TypeName implements Component.
func (b *Base) TypeName() string { return b.typeName }

// Provide exports impl under the interface id. It panics if impl does not
// conform to a registered descriptor for id — providing a non-conforming
// interface is a programming error caught at construction time. Interfaces
// without a registered descriptor are accepted (they are simply opaque to
// the interface meta-model).
func (b *Base) Provide(id InterfaceID, impl any) {
	if d, ok := Interfaces.Lookup(id); ok && !d.Check(impl) {
		panic(fmt.Sprintf("core: component %q provides %q with non-conforming value %T",
			b.typeName, id, impl))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ifaces[id] = impl
}

// Retract removes a provided interface, e.g. during reconfiguration. The
// capsule re-checks CF rules after retractions.
func (b *Base) Retract(id InterfaceID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.ifaces, id)
}

// ProvidedIDs implements Component.
func (b *Base) ProvidedIDs() []InterfaceID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ids := make([]InterfaceID, 0, len(b.ifaces))
	for id := range b.ifaces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Provided implements Component.
func (b *Base) Provided(id InterfaceID) (any, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.ifaces[id]
	return v, ok
}

// AddReceptacle registers a named receptacle. Adding a receptacle whose
// name is taken panics: receptacle identity is part of the component's
// architecture-level shape and collisions are programming errors.
func (b *Base) AddReceptacle(name string, r GenReceptacle) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.recps[name]; ok {
		panic(fmt.Sprintf("core: component %q: duplicate receptacle %q", b.typeName, name))
	}
	b.recps[name] = r
}

// RemoveReceptacle deregisters a receptacle; it must be unbound.
func (b *Base) RemoveReceptacle(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.recps[name]
	if !ok {
		return fmt.Errorf("core: receptacle %q: %w", name, ErrNotFound)
	}
	if r.Bound() {
		return fmt.Errorf("core: receptacle %q: %w", name, ErrAlreadyBound)
	}
	delete(b.recps, name)
	return nil
}

// ReceptacleNames implements Component.
func (b *Base) ReceptacleNames() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.recps))
	for n := range b.recps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Receptacle implements Component.
func (b *Base) Receptacle(name string) (GenReceptacle, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r, ok := b.recps[name]
	return r, ok
}

// Annotations implements Component.
func (b *Base) Annotations() map[string]string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]string, len(b.annot))
	for k, v := range b.annot {
		out[k] = v
	}
	return out
}

// SetAnnotation implements Component.
func (b *Base) SetAnnotation(key, value string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.annot[key] = value
}

// Annotation returns a single metadata value.
func (b *Base) Annotation(key string) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.annot[key]
	return v, ok
}

// Well-known annotation keys shared across CFs.
const (
	// AnnotTrust marks a component "trusted" or "untrusted"; untrusted
	// components are candidates for out-of-process placement (§5).
	AnnotTrust = "netkit.trust"
	// AnnotTask names the resources meta-model task that accounts for the
	// component's work.
	AnnotTask = "netkit.task"
	// AnnotPlacement carries a placement hint for the placement meta-model
	// ("control", "engine", "auto").
	AnnotPlacement = "netkit.placement"
)

// Factory constructs a component instance from a configuration map. The
// config values are strings so that factories are drivable from text
// configuration and the control protocol.
type Factory func(cfg map[string]string) (Component, error)

// ComponentRegistry maps component type names to factories: the loader part
// of the runtime ("dynamic remote instantiation" requires that type names
// resolve to constructable components on every node).
type ComponentRegistry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewComponentRegistry returns an empty registry.
func NewComponentRegistry() *ComponentRegistry {
	return &ComponentRegistry{factories: make(map[string]Factory)}
}

// Register adds a factory for typeName.
func (r *ComponentRegistry) Register(typeName string, f Factory) error {
	if typeName == "" || f == nil {
		return fmt.Errorf("core: register component: empty type or nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.factories[typeName]; ok {
		return fmt.Errorf("core: component type %q: %w", typeName, ErrAlreadyExists)
	}
	r.factories[typeName] = f
	return nil
}

// MustRegister registers and panics on error (package-init use).
func (r *ComponentRegistry) MustRegister(typeName string, f Factory) {
	if err := r.Register(typeName, f); err != nil {
		panic(err)
	}
}

// New constructs an instance of typeName.
func (r *ComponentRegistry) New(typeName string, cfg map[string]string) (Component, error) {
	r.mu.RLock()
	f, ok := r.factories[typeName]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: component type %q: %w", typeName, ErrNotFound)
	}
	c, err := f(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: constructing %q: %w", typeName, err)
	}
	return c, nil
}

// Types returns the registered type names, sorted.
func (r *ComponentRegistry) Types() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for t := range r.factories {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Components is the process-wide component loader registry, populated by
// component packages at initialisation.
var Components = NewComponentRegistry()
