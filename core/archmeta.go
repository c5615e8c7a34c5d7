package core

import (
	"fmt"
	"sort"
	"sync"
)

// EventKind enumerates architecture meta-model mutation events.
type EventKind int

// Mutation event kinds.
const (
	EventInsert EventKind = iota + 1
	EventRemove
	EventBind
	EventUnbind
	EventRebind
	EventStart
	EventStop
	EventIntercept
	EventUnintercept
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventInsert:
		return "insert"
	case EventRemove:
		return "remove"
	case EventBind:
		return "bind"
	case EventUnbind:
		return "unbind"
	case EventRebind:
		return "rebind"
	case EventStart:
		return "start"
	case EventStop:
		return "stop"
	case EventIntercept:
		return "intercept"
	case EventUnintercept:
		return "unintercept"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one architecture meta-model mutation notification. The
// meta-model is causally connected: every capsule mutation emits exactly
// one event after the mutation has been applied. Intercept/unintercept
// events carry the interceptor name in Type.
type Event struct {
	Kind       EventKind
	Component  string
	Peer       string // bind/unbind: the server component
	Type       string // insert/remove: component type; intercept: interceptor name
	Receptacle string
	Iface      InterfaceID
	Binding    BindingID
}

// eventHub fans events out to subscribers. Subscribers receive on buffered
// channels; a subscriber that falls behind has events dropped (counted),
// never blocking the architectural mutation path.
type eventHub struct {
	mu           sync.Mutex
	nextID       int
	subs         map[int]chan Event
	dropped      map[int]uint64
	totalDropped uint64
	closed       bool
	closeHooks   []func()
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[int]chan Event), dropped: make(map[int]uint64)}
}

func (h *eventHub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for id, ch := range h.subs {
		select {
		case ch <- e:
		default:
			h.dropped[id]++
			h.totalDropped++
		}
	}
}

func (h *eventHub) subscribe(buf int) (int, <-chan Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		ch := make(chan Event)
		close(ch)
		return -1, ch
	}
	h.nextID++
	id := h.nextID
	ch := make(chan Event, buf)
	h.subs[id] = ch
	return id, ch
}

func (h *eventHub) unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ch, ok := h.subs[id]; ok {
		delete(h.subs, id)
		close(ch)
	}
}

func (h *eventHub) droppedCount(id int) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped[id]
}

func (h *eventHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
	hooks := h.closeHooks
	h.closeHooks = nil
	h.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// onClose registers fn to run when the hub closes; if it is already
// closed, fn runs immediately.
func (h *eventHub) onClose(fn func()) {
	h.mu.Lock()
	if !h.closed {
		h.closeHooks = append(h.closeHooks, fn)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	fn()
}

// Subscription is a handle on one architecture meta-model event stream. It
// carries the receive channel plus the subscriber's own loss counter, so a
// listener can detect (and react to) event loss instead of silently
// operating on a stale view.
type Subscription struct {
	hub *eventHub
	id  int
	ch  <-chan Event
}

// Events returns the receive channel. It is closed on Cancel and on
// capsule close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events have been dropped for this subscriber
// because its channel buffer was full.
func (s *Subscription) Dropped() uint64 { return s.hub.droppedCount(s.id) }

// Cancel unregisters the subscription and closes its channel. Safe to call
// more than once.
func (s *Subscription) Cancel() { s.hub.unsubscribe(s.id) }

// SubscribeEvents registers an architecture meta-model event listener with
// the given channel buffer and returns its Subscription handle. Events are
// dropped (not blocked on) if the subscriber lags; the per-subscriber drop
// count is readable via Subscription.Dropped.
func (c *Capsule) SubscribeEvents(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	id, ch := c.events.subscribe(buf)
	return &Subscription{hub: c.events, id: id, ch: ch}
}

// WatchStructure registers a synchronous structural-mutation observer and
// returns its cancel function. Unlike SubscribeEvents, watchers are invoked
// inline at every mutation site — nothing is ever dropped — which is what
// correctness-critical invalidation (the router's fused-chain plans) needs:
// a lossy async stream could miss an interceptor install and leave a fused
// fast path permanently bypassing the audit it was meant to feed.
//
// The contract is strict because watchers run while capsule or binding
// locks are held: fn must be non-blocking, must not call back into the
// capsule, and should do no more than flip atomics (bump a generation,
// clear a cached plan). Heavier reactions belong on SubscribeEvents.
func (c *Capsule) WatchStructure(fn func(Event)) (cancel func()) {
	c.watchMu.Lock()
	c.nextWatch++
	id := c.nextWatch
	next := make([]structWatcher, 0, len(c.watchList)+1)
	next = append(next, c.watchList...)
	next = append(next, structWatcher{id: id, fn: fn})
	c.watchList = next
	c.watchers.Store(&next)
	c.watchMu.Unlock()
	return func() {
		c.watchMu.Lock()
		defer c.watchMu.Unlock()
		kept := make([]structWatcher, 0, len(c.watchList))
		for _, w := range c.watchList {
			if w.id != id {
				kept = append(kept, w)
			}
		}
		c.watchList = kept
		c.watchers.Store(&kept)
	}
}

type structWatcher struct {
	id int
	fn func(Event)
}

// notify publishes e to the async hub and runs the synchronous structure
// watchers. It is the single exit point for every structural mutation.
func (c *Capsule) notify(e Event) {
	c.events.publish(e)
	if ws := c.watchers.Load(); ws != nil {
		for _, w := range *ws {
			w.fn(e)
		}
	}
}

// OnClose registers fn to run once when the capsule closes (after all
// event subscriber channels have been closed). If the capsule is already
// closed, fn runs immediately. Facade layers use this to release
// per-capsule associations without holding an event subscription open.
func (c *Capsule) OnClose(fn func()) { c.events.onClose(fn) }

// DroppedEvents reports how many events the capsule has dropped across all
// subscribers (including since-cancelled ones) because their channel
// buffers were full. A non-zero value tells architecture meta-model
// listeners that the event stream is not a complete mutation history and a
// fresh Snapshot is needed to resynchronise.
func (c *Capsule) DroppedEvents() uint64 {
	c.events.mu.Lock()
	defer c.events.mu.Unlock()
	return c.events.totalDropped
}

// GraphNode is one component in an architecture snapshot.
type GraphNode struct {
	Name        string
	Type        string
	Started     bool
	Provided    []InterfaceID
	Receptacles []GraphReceptacle
	Annotations map[string]string
}

// GraphReceptacle is one receptacle in an architecture snapshot.
type GraphReceptacle struct {
	Name  string
	Iface InterfaceID
	Bound bool
}

// GraphEdge is one binding in an architecture snapshot.
type GraphEdge struct {
	ID           BindingID
	From         string
	Receptacle   string
	To           string
	Iface        InterfaceID
	Interceptors []string
}

// Graph is an immutable snapshot of a capsule's architecture: the product
// of the architecture meta-model's introspection side.
type Graph struct {
	Capsule string
	Nodes   []GraphNode
	Edges   []GraphEdge
}

// Snapshot captures the current component/binding graph.
func (c *Capsule) Snapshot() *Graph {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g := &Graph{Capsule: c.name}
	names := make([]string, 0, len(c.comps))
	for n := range c.comps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		comp := c.comps[n]
		node := GraphNode{
			Name:        n,
			Type:        comp.TypeName(),
			Started:     c.states[n] == stateStarted,
			Provided:    comp.ProvidedIDs(),
			Annotations: comp.Annotations(),
		}
		for _, rn := range comp.ReceptacleNames() {
			r, _ := comp.Receptacle(rn)
			node.Receptacles = append(node.Receptacles, GraphReceptacle{
				Name: rn, Iface: r.Iface(), Bound: r.Bound(),
			})
		}
		g.Nodes = append(g.Nodes, node)
	}
	ids := make([]BindingID, 0, len(c.bindings))
	for id := range c.bindings {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b := c.bindings[id]
		g.Edges = append(g.Edges, GraphEdge{
			ID: id, From: b.from, Receptacle: b.recpName,
			To: b.to, Iface: b.iface, Interceptors: b.Interceptors(),
		})
	}
	return g
}

// Node returns the snapshot node with the given name.
func (g *Graph) Node(name string) (GraphNode, bool) {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return GraphNode{}, false
}

// OutEdges returns the edges whose client side is the named component.
func (g *Graph) OutEdges(name string) []GraphEdge {
	var out []GraphEdge
	for _, e := range g.Edges {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// InEdges returns the edges whose server side is the named component.
func (g *Graph) InEdges(name string) []GraphEdge {
	var out []GraphEdge
	for _, e := range g.Edges {
		if e.To == name {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks the snapshot's structural invariants: every edge endpoint
// exists, every edge's receptacle exists on its client node with the edge's
// interface, every bound receptacle has exactly one edge, and the server
// node provides the edge's interface. This is the "analyse software on a
// node as a single composite ... for consistency or integrity" capability
// claimed in §4 of the paper.
func (g *Graph) Validate() error {
	nodes := make(map[string]GraphNode, len(g.Nodes))
	for _, n := range g.Nodes {
		if _, dup := nodes[n.Name]; dup {
			return fmt.Errorf("duplicate node %q: %w", n.Name, ErrInvariant)
		}
		nodes[n.Name] = n
	}
	edgesByRecp := make(map[string]int)
	for _, e := range g.Edges {
		from, ok := nodes[e.From]
		if !ok {
			return fmt.Errorf("edge #%d: client %q missing: %w", e.ID, e.From, ErrInvariant)
		}
		to, ok := nodes[e.To]
		if !ok {
			return fmt.Errorf("edge #%d: server %q missing: %w", e.ID, e.To, ErrInvariant)
		}
		var recp *GraphReceptacle
		for i := range from.Receptacles {
			if from.Receptacles[i].Name == e.Receptacle {
				recp = &from.Receptacles[i]
				break
			}
		}
		if recp == nil {
			return fmt.Errorf("edge #%d: receptacle %s.%q missing: %w",
				e.ID, e.From, e.Receptacle, ErrInvariant)
		}
		if recp.Iface != e.Iface {
			return fmt.Errorf("edge #%d: receptacle %s.%q requires %q but edge carries %q: %w",
				e.ID, e.From, e.Receptacle, recp.Iface, e.Iface, ErrInvariant)
		}
		if !recp.Bound {
			return fmt.Errorf("edge #%d: receptacle %s.%q not bound: %w",
				e.ID, e.From, e.Receptacle, ErrInvariant)
		}
		provided := false
		for _, id := range to.Provided {
			if id == e.Iface {
				provided = true
				break
			}
		}
		if !provided {
			return fmt.Errorf("edge #%d: server %q does not provide %q: %w",
				e.ID, e.To, e.Iface, ErrInvariant)
		}
		edgesByRecp[e.From+"\x00"+e.Receptacle]++
	}
	for key, n := range edgesByRecp {
		if n > 1 {
			return fmt.Errorf("receptacle %q has %d edges: %w", key, n, ErrInvariant)
		}
	}
	return nil
}
