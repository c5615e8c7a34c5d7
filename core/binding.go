package core

import (
	"fmt"
	"sync"
)

// BindingID identifies a binding within its capsule.
type BindingID uint64

// Interceptor is one element of a binding's interception chain. Wrap is an
// Around: it receives each operation crossing the binding and must call
// invoke (zero or one times) to continue the chain. Name identifies the
// interceptor for removal and introspection.
//
// Operations are not necessarily unit-cardinality: an interface may define
// aggregate (batched) operations that carry many units of work — e.g. the
// Router CF's "PushBatch", whose args[0] is a packet slice, and
// "PullBatch", whose results[0] is the slice it extended. A proxy presents
// such a crossing to the chain as ONE operation, so interceptor overhead
// is paid per batch rather than per element; an interceptor that accounts
// per element (an audit) must inspect the aggregate arguments or results
// rather than counting invocations (the router package exposes
// PacketCount for its data-path ops).
type Interceptor struct {
	Name string
	Wrap Around
}

// PrePost builds an Around from separate pre- and post-hooks, the common
// pattern in the paper's interception meta-model. Either hook may be nil.
func PrePost(pre func(op string, args []any), post func(op string, args, results []any)) Around {
	return func(op string, args []any, invoke func([]any) []any) []any {
		if pre != nil {
			pre(op, args)
		}
		results := invoke(args)
		if post != nil {
			post(op, args, results)
		}
		return results
	}
}

// Binding is a first-class connection from a component's receptacle to
// another component's provided interface. It records enough to be
// inspected by the architecture meta-model and mutated by the interception
// meta-model. All mutation happens through methods on the owning Capsule
// or on the Binding itself, never by touching the receptacle directly.
type Binding struct {
	id       BindingID
	capsule  *Capsule
	from     string // component instance name
	recpName string
	to       string // component instance name
	iface    InterfaceID

	recp      GenReceptacle
	rawTarget any // the real provided interface, never a proxy

	mu    sync.Mutex
	chain []Interceptor
}

// ID returns the binding's capsule-local identity.
func (b *Binding) ID() BindingID { return b.id }

// From returns the client component instance name and receptacle name.
func (b *Binding) From() (component, receptacle string) { return b.from, b.recpName }

// To returns the server component instance name and interface ID.
func (b *Binding) To() (component string, iface InterfaceID) { return b.to, b.iface }

// Receptacle returns the client receptacle this binding routes. The value
// is the receptacle's identity (an interface wrapping the component's own
// receptacle pointer), so graph walkers — the router's fusion planner —
// can match a component's receptacle field to its binding without knowing
// instance names.
func (b *Binding) Receptacle() GenReceptacle { return b.recp }

// Interceptors returns the names of the installed interceptors in
// invocation order.
func (b *Binding) Interceptors() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, len(b.chain))
	for i, ic := range b.chain {
		names[i] = ic.Name
	}
	return names
}

// AddInterceptor appends ic to the binding's chain and re-routes the
// receptacle through a freshly composed proxy. The first interceptor on a
// binding un-fuses the fast path; this is the reverse of the paper's
// vtable-bypass optimisation and its cost is measured by experiment E1.
// Requires the target interface to have a Proxy-capable descriptor.
//
// A fused binding (empty chain) routes the receptacle straight at the raw
// provided interface, so capability discovery by type assertion — how the
// router finds a queue that drains in batches behind a pull binding —
// sees the real component. An un-fused binding interposes the
// descriptor's proxy, which presents the interface's own operations and
// nothing more: the router's push interface has one operation, PushBatch,
// so its proxy carries a whole batch through the chain as one call.
func (b *Binding) AddInterceptor(ic Interceptor) error {
	if ic.Name == "" || ic.Wrap == nil {
		return fmt.Errorf("core: add interceptor: empty name or nil wrap")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, have := range b.chain {
		if have.Name == ic.Name {
			return fmt.Errorf("core: interceptor %q: %w", ic.Name, ErrAlreadyExists)
		}
	}
	next := append(append([]Interceptor(nil), b.chain...), ic)
	if err := b.install(next); err != nil {
		return err
	}
	b.chain = next
	b.capsule.notify(Event{Kind: EventIntercept, Component: b.from, Peer: b.to,
		Type: ic.Name, Receptacle: b.recpName, Iface: b.iface, Binding: b.id})
	return nil
}

// RemoveInterceptor removes the named interceptor, re-fusing the binding if
// the chain becomes empty.
func (b *Binding) RemoveInterceptor(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := -1
	for i, have := range b.chain {
		if have.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: interceptor %q: %w", name, ErrNotFound)
	}
	next := append(append([]Interceptor(nil), b.chain[:idx]...), b.chain[idx+1:]...)
	if err := b.install(next); err != nil {
		return err
	}
	b.chain = next
	b.capsule.notify(Event{Kind: EventUnintercept, Component: b.from, Peer: b.to,
		Type: name, Receptacle: b.recpName, Iface: b.iface, Binding: b.id})
	return nil
}

// install re-routes the receptacle for the given chain. Caller holds b.mu.
func (b *Binding) install(chain []Interceptor) error {
	if len(chain) == 0 {
		return b.recp.reroute(b.rawTarget) // fuse: direct reference again
	}
	d, ok := b.capsule.ifaceReg.Lookup(b.iface)
	if !ok || d.Proxy == nil {
		return fmt.Errorf("core: intercept %q: %w", b.iface, ErrNoDescriptor)
	}
	proxy := d.Proxy(b.rawTarget, composeChain(chain))
	if !d.Check(proxy) {
		return fmt.Errorf("core: descriptor %q produced non-conforming proxy: %w",
			b.iface, ErrTypeMismatch)
	}
	return b.recp.reroute(proxy)
}

// composeChain folds a chain of interceptors into a single Around, with
// chain[0] outermost.
func composeChain(chain []Interceptor) Around {
	return func(op string, args []any, invoke func([]any) []any) []any {
		var run func(i int, args []any) []any
		run = func(i int, args []any) []any {
			if i == len(chain) {
				return invoke(args)
			}
			return chain[i].Wrap(op, args, func(a []any) []any { return run(i+1, a) })
		}
		return run(0, args)
	}
}

// String implements fmt.Stringer for diagnostics.
func (b *Binding) String() string {
	return fmt.Sprintf("binding#%d %s.%s -> %s:%s", b.id, b.from, b.recpName, b.to, b.iface)
}
