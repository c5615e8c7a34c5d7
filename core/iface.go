package core

import (
	"fmt"
	"sort"
	"sync"
)

// InterfaceID names a component interface, conventionally
// "<package>.<Interface>/<version>", e.g. "netkit.IPacketPush/1".
// Interface identity is by ID, not by Go type: the ID is what travels in
// configuration files, control-protocol messages and remote bindings, which
// is what makes the model language-independent in the paper's sense.
type InterfaceID string

// OpDesc describes one operation of an interface for the interface
// meta-model (the analogue of a type-library entry).
type OpDesc struct {
	// Name of the operation, e.g. "PushBatch".
	Name string
	// NumIn and NumOut are the operation's argument and result counts,
	// excluding the receiver.
	NumIn, NumOut int
	// Doc is a one-line human-readable description.
	Doc string
}

// Around is the interception hook signature. An Around implementation is
// given the operation name, its arguments, and an invoke continuation that
// performs the (rest of the) call; it must return the operation results.
// Interceptor chains compose Around values.
type Around func(op string, args []any, invoke func([]any) []any) []any

// Descriptor is the runtime description of an interface: its identity, its
// operations, a conformance check, and a proxy constructor. Descriptors
// are the unit of the interface meta-model. The Proxy constructor is what
// enables both run-time interception (wrap a local target) and remote
// bindings (wrap a wire-level caller): in OpenCOM terms it plays the role
// of the generated vtable stub.
type Descriptor struct {
	// ID is the interface identity.
	ID InterfaceID
	// Doc describes the interface contract.
	Doc string
	// Ops lists the interface operations.
	Ops []OpDesc
	// Check reports whether v implements the interface.
	Check func(v any) bool
	// Proxy returns a value implementing the interface that routes every
	// operation through around, with target as the final callee. Proxy may
	// be nil for interfaces that opt out of interception.
	Proxy func(target any, around Around) any
}

// Op returns the descriptor of the named operation and whether it exists.
func (d *Descriptor) Op(name string) (OpDesc, bool) {
	for _, op := range d.Ops {
		if op.Name == name {
			return op, true
		}
	}
	return OpDesc{}, false
}

// InterfaceRegistry is the interface meta-model: a concurrency-safe
// catalogue of interface descriptors keyed by InterfaceID. A single
// process normally uses the package-level Interfaces registry, but capsules
// embedded in tests may use private registries.
type InterfaceRegistry struct {
	mu   sync.RWMutex
	desc map[InterfaceID]*Descriptor
}

// NewInterfaceRegistry returns an empty registry.
func NewInterfaceRegistry() *InterfaceRegistry {
	return &InterfaceRegistry{desc: make(map[InterfaceID]*Descriptor)}
}

// Register adds a descriptor. It returns ErrAlreadyExists if the ID is
// taken and an error if the descriptor is malformed.
func (r *InterfaceRegistry) Register(d *Descriptor) error {
	if d == nil || d.ID == "" {
		return fmt.Errorf("core: register interface: empty descriptor")
	}
	if d.Check == nil {
		return fmt.Errorf("core: register interface %q: nil Check: %w", d.ID, ErrTypeMismatch)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.desc[d.ID]; ok {
		return fmt.Errorf("core: interface %q: %w", d.ID, ErrAlreadyExists)
	}
	r.desc[d.ID] = d
	return nil
}

// MustRegister registers d and panics on error. It is intended for use in
// package initialisation where a failure is a programming error.
func (r *InterfaceRegistry) MustRegister(d *Descriptor) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Lookup returns the descriptor for id.
func (r *InterfaceRegistry) Lookup(id InterfaceID) (*Descriptor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.desc[id]
	return d, ok
}

// IDs returns all registered interface IDs in sorted order.
func (r *InterfaceRegistry) IDs() []InterfaceID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]InterfaceID, 0, len(r.desc))
	for id := range r.desc {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Conforms reports whether v implements the interface identified by id,
// according to the registered descriptor. Unregistered interfaces conform
// to nothing.
func (r *InterfaceRegistry) Conforms(id InterfaceID, v any) bool {
	d, ok := r.Lookup(id)
	return ok && d.Check(v)
}

// Interfaces is the process-wide interface meta-model. Packages that define
// component interfaces register their descriptors here during package
// initialisation, mirroring how OpenCOM interfaces carry type-library
// metadata alongside their binary definition.
var Interfaces = NewInterfaceRegistry()
