package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// GenReceptacle is the type-erased view of a receptacle used by the capsule
// and the meta-models. Concrete receptacles are the generic Receptacle[T],
// which adds a statically-typed zero-overhead read path for the component's
// own use.
type GenReceptacle interface {
	// Iface returns the InterfaceID this receptacle requires.
	Iface() InterfaceID
	// Bound reports whether a target is currently connected.
	Bound() bool
	// bindAny connects the receptacle to target, which must implement the
	// required interface. Called only by the capsule, under its lock.
	bindAny(target any) error
	// unbindAny disconnects the receptacle. Called only by the capsule.
	unbindAny()
	// targetAny returns the currently connected value (possibly a proxy),
	// or nil.
	targetAny() any
	// reroute atomically replaces the connected value without changing
	// bind state; used by the interception meta-model to splice proxies in
	// and out of the data path. v must implement the required interface.
	reroute(v any) error
}

// Receptacle is a single-valued typed receptacle: a named "required
// interface" slot of a component. The component reads it on its data path
// via Get, which is a single atomic pointer load — this is the fused fast
// path corresponding to the paper's vtable-bypass optimisation. The capsule
// writes it (bind/unbind/reroute) rarely.
//
// The zero value is not usable; create receptacles with NewReceptacle.
type Receptacle[T any] struct {
	iface InterfaceID
	cur   atomic.Pointer[T]
	mu    sync.Mutex // serialises writers (capsule side)
	bound bool
	bell  chan<- struct{} // rung after every write; see RingOnChange
}

// NewReceptacle returns a receptacle requiring the interface identified by
// iface, whose Go-side contract is T.
func NewReceptacle[T any](iface InterfaceID) *Receptacle[T] {
	return &Receptacle[T]{iface: iface}
}

// Iface returns the required InterfaceID.
func (r *Receptacle[T]) Iface() InterfaceID { return r.iface }

// Get returns the bound target and whether the receptacle is connected.
// It is safe for concurrent use with bind/unbind and costs one atomic load.
func (r *Receptacle[T]) Get() (T, bool) {
	if p := r.cur.Load(); p != nil {
		return *p, true
	}
	var zero T
	return zero, false
}

// MustGet returns the bound target, panicking if unbound. Intended for
// data paths whose CF admission rules guarantee connectivity.
func (r *Receptacle[T]) MustGet() T {
	p := r.cur.Load()
	if p == nil {
		panic(fmt.Sprintf("core: receptacle for %q used while unbound", r.iface))
	}
	return *p
}

// Bound reports whether the receptacle is connected.
func (r *Receptacle[T]) Bound() bool { return r.cur.Load() != nil }

// RingOnChange registers bell, which the receptacle rings without
// blocking after every bind, unbind and reroute (interceptor install or
// removal): how an owner asleep on its sources learns that one changed.
func (r *Receptacle[T]) RingOnChange(bell chan<- struct{}) {
	r.mu.Lock()
	r.bell = bell
	r.mu.Unlock()
}

// store publishes the connected value and rings the bell, if any.
// Caller holds mu.
func (r *Receptacle[T]) store(t *T) {
	r.cur.Store(t)
	select {
	case r.bell <- struct{}{}:
	default:
	}
}

func (r *Receptacle[T]) bindAny(target any) error {
	t, ok := target.(T)
	if !ok {
		return fmt.Errorf("core: bind %q: %w", r.iface, ErrTypeMismatch)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bound {
		return fmt.Errorf("core: bind %q: %w", r.iface, ErrAlreadyBound)
	}
	r.bound = true
	r.store(&t)
	return nil
}

func (r *Receptacle[T]) unbindAny() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bound = false
	r.store(nil)
}

func (r *Receptacle[T]) targetAny() any {
	if p := r.cur.Load(); p != nil {
		return *p
	}
	return nil
}

func (r *Receptacle[T]) reroute(v any) error {
	t, ok := v.(T)
	if !ok {
		return fmt.Errorf("core: reroute %q: %w", r.iface, ErrTypeMismatch)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.bound {
		return fmt.Errorf("core: reroute %q: %w", r.iface, ErrNotBound)
	}
	r.store(&t)
	return nil
}

// MultiReceptacle is a fan-out receptacle: an ordered set of targets all
// implementing T. The paper's Router CF uses these for components (such as
// classifiers) with a dynamic number of outgoing IPacketPush/IPacketPull
// connections. Each slot is named; slots can be added and removed at run
// time subject to the owning CF's rules.
//
// MultiReceptacle is not itself a GenReceptacle: the capsule addresses its
// individual slots, which are ordinary Receptacle[T] values, registered on
// the component under "name[slot]" composite names.
type MultiReceptacle[T any] struct {
	iface InterfaceID
	mu    sync.RWMutex
	order []string
	slots map[string]*Receptacle[T]
}

// NewMultiReceptacle returns an empty fan-out receptacle for iface.
func NewMultiReceptacle[T any](iface InterfaceID) *MultiReceptacle[T] {
	return &MultiReceptacle[T]{
		iface: iface,
		slots: make(map[string]*Receptacle[T]),
	}
}

// Iface returns the required InterfaceID shared by all slots.
func (m *MultiReceptacle[T]) Iface() InterfaceID { return m.iface }

// AddSlot creates a new named slot and returns it. It fails if the name is
// already present.
func (m *MultiReceptacle[T]) AddSlot(name string) (*Receptacle[T], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.slots[name]; ok {
		return nil, fmt.Errorf("core: slot %q: %w", name, ErrAlreadyExists)
	}
	r := NewReceptacle[T](m.iface)
	m.slots[name] = r
	m.order = append(m.order, name)
	return r, nil
}

// RemoveSlot deletes a named slot. The slot must be unbound.
func (m *MultiReceptacle[T]) RemoveSlot(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.slots[name]
	if !ok {
		return fmt.Errorf("core: slot %q: %w", name, ErrNotFound)
	}
	if r.Bound() {
		return fmt.Errorf("core: slot %q still bound: %w", name, ErrAlreadyBound)
	}
	delete(m.slots, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// Slots returns the slot names in creation order.
func (m *MultiReceptacle[T]) Slots() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Each calls fn for every bound slot in creation order, stopping early if
// fn returns false.
func (m *MultiReceptacle[T]) Each(fn func(name string, t T) bool) {
	m.mu.RLock()
	names := make([]string, len(m.order))
	copy(names, m.order)
	slots := make([]*Receptacle[T], 0, len(names))
	for _, n := range names {
		slots = append(slots, m.slots[n])
	}
	m.mu.RUnlock()
	for i, r := range slots {
		if t, ok := r.Get(); ok {
			if !fn(names[i], t) {
				return
			}
		}
	}
}

// Len returns the number of slots (bound or not).
func (m *MultiReceptacle[T]) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.slots)
}
