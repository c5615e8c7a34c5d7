package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// ---- test fixtures -------------------------------------------------------

// ISink is a tiny test interface with a registered descriptor so that
// interception and conformance paths can be exercised without depending on
// higher-level packages.
type ISink interface {
	Consume(n int) int
}

const ifSink InterfaceID = "test.ISink/1"

type sinkProxy struct {
	target ISink
	around Around
}

func (p *sinkProxy) Consume(n int) int {
	out := p.around("Consume", []any{n}, func(args []any) []any {
		return []any{p.target.Consume(args[0].(int))}
	})
	return out[0].(int)
}

type sinkImpl struct {
	*Base
	mu    sync.Mutex
	total int
}

func (s *sinkImpl) Consume(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += n
	return s.total
}

type sourceImpl struct {
	*Base
	out *Receptacle[ISink]
}

type lifecycleComp struct {
	*Base
	started  bool
	stopped  bool
	startErr error
}

func (l *lifecycleComp) Start(context.Context) error {
	if l.startErr != nil {
		return l.startErr
	}
	l.started = true
	return nil
}

func (l *lifecycleComp) Stop(context.Context) error {
	l.stopped = true
	return nil
}

func newTestRegistry(t *testing.T) *InterfaceRegistry {
	t.Helper()
	reg := NewInterfaceRegistry()
	reg.MustRegister(&Descriptor{
		ID:  ifSink,
		Doc: "test sink",
		Ops: []OpDesc{{Name: "Consume", NumIn: 1, NumOut: 1}},
		Check: func(v any) bool {
			_, ok := v.(ISink)
			return ok
		},
		Proxy: func(target any, around Around) any {
			return &sinkProxy{target: target.(ISink), around: around}
		},
	})
	return reg
}

func newSink() *sinkImpl {
	s := &sinkImpl{Base: NewBase("test.Sink")}
	s.Provide(ifSink, s)
	return s
}

func newSource() *sourceImpl {
	c := &sourceImpl{Base: NewBase("test.Source")}
	c.out = NewReceptacle[ISink](ifSink)
	c.AddReceptacle("out", c.out)
	return c
}

func newTestCapsule(t *testing.T) *Capsule {
	t.Helper()
	return NewCapsule("test", WithInterfaceRegistry(newTestRegistry(t)),
		WithComponentRegistry(NewComponentRegistry()))
}

// wire inserts a source and sink and binds them, failing the test on error.
func wire(t *testing.T, c *Capsule) (*sourceImpl, *sinkImpl, *Binding) {
	t.Helper()
	src, snk := newSource(), newSink()
	if err := c.Insert("src", src); err != nil {
		t.Fatalf("insert src: %v", err)
	}
	if err := c.Insert("snk", snk); err != nil {
		t.Fatalf("insert snk: %v", err)
	}
	b, err := c.Bind("src", "out", "snk", ifSink)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return src, snk, b
}

// ---- basic capsule behaviour ----------------------------------------------

func TestInsertAndLookup(t *testing.T) {
	c := newTestCapsule(t)
	s := newSink()
	if err := c.Insert("a", s); err != nil {
		t.Fatalf("insert: %v", err)
	}
	got, ok := c.Component("a")
	if !ok || got != Component(s) {
		t.Fatalf("lookup returned %v, %v", got, ok)
	}
	if names := c.ComponentNames(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("names = %v", names)
	}
}

func TestInsertDuplicateName(t *testing.T) {
	c := newTestCapsule(t)
	if err := c.Insert("a", newSink()); err != nil {
		t.Fatalf("insert: %v", err)
	}
	err := c.Insert("a", newSink())
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
}

func TestInsertEmptyName(t *testing.T) {
	c := newTestCapsule(t)
	if err := c.Insert("", newSink()); err == nil {
		t.Fatal("want error for empty name")
	}
	if err := c.Insert("x", nil); err == nil {
		t.Fatal("want error for nil component")
	}
}

func TestRemoveComponent(t *testing.T) {
	c := newTestCapsule(t)
	if err := c.Insert("a", newSink()); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := c.Remove("a"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, ok := c.Component("a"); ok {
		t.Fatal("component still present after remove")
	}
	if err := c.Remove("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestRemoveBoundComponentRefused(t *testing.T) {
	c := newTestCapsule(t)
	wire(t, c)
	if err := c.Remove("snk"); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("want ErrAlreadyBound, got %v", err)
	}
	if err := c.Remove("src"); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("want ErrAlreadyBound, got %v", err)
	}
}

func TestBindAndInvoke(t *testing.T) {
	c := newTestCapsule(t)
	src, _, _ := wire(t, c)
	out, ok := src.out.Get()
	if !ok {
		t.Fatal("receptacle unbound after bind")
	}
	if got := out.Consume(5); got != 5 {
		t.Fatalf("Consume = %d, want 5", got)
	}
	if got := out.Consume(3); got != 8 {
		t.Fatalf("Consume = %d, want 8", got)
	}
}

func TestBindErrors(t *testing.T) {
	c := newTestCapsule(t)
	src, snk := newSource(), newSink()
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("snk", snk); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name           string
		from, recp, to string
		iface          InterfaceID
		want           error
	}{
		{"missing client", "nope", "out", "snk", ifSink, ErrNotFound},
		{"missing server", "src", "out", "nope", ifSink, ErrNotFound},
		{"missing receptacle", "src", "nope", "snk", ifSink, ErrNotFound},
		{"wrong iface", "src", "out", "snk", "test.Other/1", ErrTypeMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Bind(tc.from, tc.recp, tc.to, tc.iface)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestBindServerLacksInterface(t *testing.T) {
	c := newTestCapsule(t)
	src := newSource()
	other := NewBase("test.Bare") // provides nothing
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("bare", other); err != nil {
		t.Fatal(err)
	}
	_, err := c.Bind("src", "out", "bare", ifSink)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestDoubleBindRefused(t *testing.T) {
	c := newTestCapsule(t)
	wire(t, c)
	snk2 := newSink()
	if err := c.Insert("snk2", snk2); err != nil {
		t.Fatal(err)
	}
	_, err := c.Bind("src", "out", "snk2", ifSink)
	if !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("want ErrAlreadyBound, got %v", err)
	}
}

func TestUnbind(t *testing.T) {
	c := newTestCapsule(t)
	src, _, b := wire(t, c)
	if err := c.Unbind(b.ID()); err != nil {
		t.Fatalf("unbind: %v", err)
	}
	if _, ok := src.out.Get(); ok {
		t.Fatal("receptacle still bound after unbind")
	}
	if err := c.Unbind(b.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	// Rebinding after unbind must work.
	if _, err := c.Bind("src", "out", "snk", ifSink); err != nil {
		t.Fatalf("rebind: %v", err)
	}
}

func TestBindingsOf(t *testing.T) {
	c := newTestCapsule(t)
	_, _, b := wire(t, c)
	for _, name := range []string{"src", "snk"} {
		bs := c.BindingsOf(name)
		if len(bs) != 1 || bs[0].ID() != b.ID() {
			t.Fatalf("BindingsOf(%q) = %v", name, bs)
		}
	}
	if bs := c.BindingsOf("ghost"); len(bs) != 0 {
		t.Fatalf("BindingsOf(ghost) = %v", bs)
	}
}

// ---- constraints (bind interceptors) --------------------------------------

func TestConstraintVeto(t *testing.T) {
	c := newTestCapsule(t)
	src, snk := newSource(), newSink()
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("snk", snk); err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(BindConstraint{
		Name: "deny-snk",
		Check: func(_ *Capsule, req BindRequest) error {
			if req.To == "snk" {
				return fmt.Errorf("snk is off limits")
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Bind("src", "out", "snk", ifSink)
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("want ErrVetoed, got %v", err)
	}
	if src.out.Bound() {
		t.Fatal("receptacle bound despite veto")
	}
	// After removing the constraint, the bind succeeds.
	if err := c.RemoveConstraint("deny-snk"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind("src", "out", "snk", ifSink); err != nil {
		t.Fatalf("bind after constraint removal: %v", err)
	}
}

func TestConstraintManagement(t *testing.T) {
	c := newTestCapsule(t)
	ok := BindConstraint{Name: "c1", Check: func(*Capsule, BindRequest) error { return nil }}
	if err := c.AddConstraint(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(ok); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	if got := c.Constraints(); len(got) != 1 || got[0] != "c1" {
		t.Fatalf("constraints = %v", got)
	}
	if err := c.RemoveConstraint("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := c.AddConstraint(BindConstraint{}); err == nil {
		t.Fatal("want error for empty constraint")
	}
}

// ---- interception meta-model ----------------------------------------------

func TestInterceptorWrapsCalls(t *testing.T) {
	c := newTestCapsule(t)
	src, _, b := wire(t, c)

	var pre, post int
	err := b.AddInterceptor(Interceptor{
		Name: "count",
		Wrap: PrePost(
			func(op string, args []any) {
				if op != "Consume" {
					t.Errorf("op = %q", op)
				}
				pre++
			},
			func(op string, args, results []any) { post++ },
		),
	})
	if err != nil {
		t.Fatalf("add interceptor: %v", err)
	}
	out := src.out.MustGet()
	if got := out.Consume(2); got != 2 {
		t.Fatalf("Consume via proxy = %d", got)
	}
	if pre != 1 || post != 1 {
		t.Fatalf("pre=%d post=%d, want 1/1", pre, post)
	}
	if names := b.Interceptors(); len(names) != 1 || names[0] != "count" {
		t.Fatalf("interceptors = %v", names)
	}
}

func TestInterceptorRemovalRefuses(t *testing.T) {
	c := newTestCapsule(t)
	src, snk, b := wire(t, c)
	if err := b.AddInterceptor(Interceptor{Name: "x", Wrap: PrePost(nil, nil)}); err != nil {
		t.Fatal(err)
	}
	// While installed the receptacle holds a proxy, not the raw target.
	if tgt, _ := src.out.Get(); tgt == ISink(snk) {
		t.Fatal("receptacle still fused while intercepted")
	}
	if err := b.RemoveInterceptor("x"); err != nil {
		t.Fatal(err)
	}
	// After removal the binding re-fuses to the raw target.
	if tgt, _ := src.out.Get(); tgt != ISink(snk) {
		t.Fatal("receptacle not re-fused after interceptor removal")
	}
	if err := b.RemoveInterceptor("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestInterceptorChainOrder(t *testing.T) {
	c := newTestCapsule(t)
	src, _, b := wire(t, c)
	var order []string
	mk := func(name string) Interceptor {
		return Interceptor{Name: name, Wrap: func(op string, args []any, invoke func([]any) []any) []any {
			order = append(order, name+">")
			r := invoke(args)
			order = append(order, "<"+name)
			return r
		}}
	}
	if err := b.AddInterceptor(mk("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInterceptor(mk("b")); err != nil {
		t.Fatal(err)
	}
	src.out.MustGet().Consume(1)
	want := []string{"a>", "b>", "<b", "<a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInterceptorCanShortCircuit(t *testing.T) {
	c := newTestCapsule(t)
	src, snk, b := wire(t, c)
	if err := b.AddInterceptor(Interceptor{
		Name: "block",
		Wrap: func(op string, args []any, invoke func([]any) []any) []any {
			return []any{-1} // never invoke the target
		},
	}); err != nil {
		t.Fatal(err)
	}
	if got := src.out.MustGet().Consume(9); got != -1 {
		t.Fatalf("short-circuit result = %d", got)
	}
	if snk.total != 0 {
		t.Fatalf("target ran despite short-circuit: total=%d", snk.total)
	}
}

func TestInterceptorModifiesArgs(t *testing.T) {
	c := newTestCapsule(t)
	src, _, b := wire(t, c)
	if err := b.AddInterceptor(Interceptor{
		Name: "double",
		Wrap: func(op string, args []any, invoke func([]any) []any) []any {
			return invoke([]any{args[0].(int) * 2})
		},
	}); err != nil {
		t.Fatal(err)
	}
	if got := src.out.MustGet().Consume(4); got != 8 {
		t.Fatalf("Consume = %d, want doubled 8", got)
	}
}

func TestInterceptorDuplicateName(t *testing.T) {
	c := newTestCapsule(t)
	_, _, b := wire(t, c)
	if err := b.AddInterceptor(Interceptor{Name: "x", Wrap: PrePost(nil, nil)}); err != nil {
		t.Fatal(err)
	}
	err := b.AddInterceptor(Interceptor{Name: "x", Wrap: PrePost(nil, nil)})
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
}

func TestInterceptorNoDescriptor(t *testing.T) {
	// An interface with no registered descriptor cannot be intercepted.
	reg := NewInterfaceRegistry() // empty: ifSink unknown
	c := NewCapsule("bare", WithInterfaceRegistry(reg),
		WithComponentRegistry(NewComponentRegistry()))
	src, snk := newSource(), newSink()
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("snk", snk); err != nil {
		t.Fatal(err)
	}
	b, err := c.Bind("src", "out", "snk", ifSink)
	if err != nil {
		t.Fatalf("bind without descriptor should work (fused): %v", err)
	}
	err = b.AddInterceptor(Interceptor{Name: "x", Wrap: PrePost(nil, nil)})
	if !errors.Is(err, ErrNoDescriptor) {
		t.Fatalf("want ErrNoDescriptor, got %v", err)
	}
}

// ---- lifecycle -------------------------------------------------------------

func TestStartStopComponent(t *testing.T) {
	c := newTestCapsule(t)
	lc := &lifecycleComp{Base: NewBase("test.LC")}
	if err := c.Insert("lc", lc); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.StartComponent(ctx, "lc"); err != nil {
		t.Fatal(err)
	}
	if !lc.started || !c.Started("lc") {
		t.Fatal("component not started")
	}
	// Idempotent start.
	if err := c.StartComponent(ctx, "lc"); err != nil {
		t.Fatal(err)
	}
	if err := c.StopComponent(ctx, "lc"); err != nil {
		t.Fatal(err)
	}
	if !lc.stopped || c.Started("lc") {
		t.Fatal("component not stopped")
	}
}

func TestStartFailureRollsBack(t *testing.T) {
	c := newTestCapsule(t)
	bad := &lifecycleComp{Base: NewBase("test.LC"), startErr: errors.New("boom")}
	if err := c.Insert("bad", bad); err != nil {
		t.Fatal(err)
	}
	err := c.StartComponent(context.Background(), "bad")
	if !errors.Is(err, ErrLifecycle) {
		t.Fatalf("want ErrLifecycle, got %v", err)
	}
	if c.Started("bad") {
		t.Fatal("failed start left component marked started")
	}
}

func TestStartAllRollbackOnFailure(t *testing.T) {
	c := newTestCapsule(t)
	a := &lifecycleComp{Base: NewBase("test.LC")}
	bad := &lifecycleComp{Base: NewBase("test.LC"), startErr: errors.New("boom")}
	// "a" sorts before "b-bad": a starts first, then b fails, a must stop.
	if err := c.Insert("a", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("b-bad", bad); err != nil {
		t.Fatal(err)
	}
	if err := c.StartAll(context.Background()); err == nil {
		t.Fatal("want StartAll failure")
	}
	if !a.stopped {
		t.Fatal("rollback did not stop previously started component")
	}
}

func TestCloseCapsule(t *testing.T) {
	c := newTestCapsule(t)
	src, _, _ := wire(t, c)
	if err := c.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if src.out.Bound() {
		t.Fatal("binding survived close")
	}
	if err := c.Insert("x", newSink()); !errors.Is(err, ErrCapsuleClosed) {
		t.Fatalf("want ErrCapsuleClosed, got %v", err)
	}
	if _, err := c.Bind("src", "out", "snk", ifSink); !errors.Is(err, ErrCapsuleClosed) {
		t.Fatalf("want ErrCapsuleClosed, got %v", err)
	}
}

// ---- events ----------------------------------------------------------------

func TestEventsEmitted(t *testing.T) {
	c := newTestCapsule(t)
	sub := c.SubscribeEvents(16)
	defer sub.Cancel()

	src, _, b := wire(t, c)
	_ = src
	if err := c.Unbind(b.ID()); err != nil {
		t.Fatal(err)
	}

	want := []EventKind{EventInsert, EventInsert, EventBind, EventUnbind}
	for i, k := range want {
		e := <-sub.Events()
		if e.Kind != k {
			t.Fatalf("event %d = %v, want %v", i, e.Kind, k)
		}
	}
}

func TestEventSubscriberCancel(t *testing.T) {
	c := newTestCapsule(t)
	sub := c.SubscribeEvents(1)
	sub.Cancel()
	if _, open := <-sub.Events(); open {
		t.Fatal("channel still open after cancel")
	}
	// Publishing after cancel must not panic.
	if err := c.Insert("a", newSink()); err != nil {
		t.Fatal(err)
	}
}

func TestEventOverflowDropsNotBlocks(t *testing.T) {
	c := newTestCapsule(t)
	sub := c.SubscribeEvents(1) // buffer of 1, never drained
	defer sub.Cancel()
	for i := 0; i < 10; i++ {
		if err := c.Insert(fmt.Sprintf("c%d", i), newSink()); err != nil {
			t.Fatal(err)
		}
	}
	// Reaching here without deadlock is the assertion.
}

// ---- registries ------------------------------------------------------------

func TestComponentRegistry(t *testing.T) {
	r := NewComponentRegistry()
	if err := r.Register("t.A", func(map[string]string) (Component, error) {
		return newSink(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("t.A", nil); err == nil {
		t.Fatal("want error for nil factory")
	}
	if err := r.Register("t.A", func(map[string]string) (Component, error) { return nil, nil }); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	comp, err := r.New("t.A", nil)
	if err != nil || comp == nil {
		t.Fatalf("New: %v %v", comp, err)
	}
	if _, err := r.New("t.B", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if types := r.Types(); len(types) != 1 || types[0] != "t.A" {
		t.Fatalf("types = %v", types)
	}
}

func TestInstantiateViaRegistry(t *testing.T) {
	reg := NewComponentRegistry()
	reg.MustRegister("t.Sink", func(map[string]string) (Component, error) {
		return newSink(), nil
	})
	c := NewCapsule("x", WithComponentRegistry(reg),
		WithInterfaceRegistry(newTestRegistry(t)))
	comp, err := c.Instantiate("s1", "t.Sink", nil)
	if err != nil {
		t.Fatal(err)
	}
	if comp.TypeName() != "test.Sink" {
		t.Fatalf("type = %q", comp.TypeName())
	}
	if _, err := c.Instantiate("s2", "t.Missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestInterfaceRegistry(t *testing.T) {
	r := newTestRegistry(t)
	if _, ok := r.Lookup(ifSink); !ok {
		t.Fatal("descriptor missing")
	}
	if !r.Conforms(ifSink, newSink()) {
		t.Fatal("sink should conform")
	}
	if r.Conforms(ifSink, 42) {
		t.Fatal("int should not conform")
	}
	if r.Conforms("test.Unknown/1", newSink()) {
		t.Fatal("unknown iface conforms to nothing")
	}
	if ids := r.IDs(); len(ids) != 1 || ids[0] != ifSink {
		t.Fatalf("ids = %v", ids)
	}
	d, _ := r.Lookup(ifSink)
	if op, ok := d.Op("Consume"); !ok || op.NumIn != 1 {
		t.Fatalf("op lookup = %+v %v", op, ok)
	}
	if _, ok := d.Op("Nope"); ok {
		t.Fatal("unexpected op")
	}
	if err := r.Register(&Descriptor{ID: ifSink, Check: func(any) bool { return true }}); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	if err := r.Register(nil); err == nil {
		t.Fatal("want error for nil descriptor")
	}
}

// ---- Base / component shape -------------------------------------------------

func TestBaseProvideNonConformingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-conforming Provide")
		}
	}()
	// Register ifSink in the global registry namespace under a unique ID to
	// avoid collisions across tests.
	id := InterfaceID("test.PanicCheck/1")
	Interfaces.MustRegister(&Descriptor{
		ID:    id,
		Check: func(v any) bool { _, ok := v.(ISink); return ok },
	})
	b := NewBase("t.X")
	b.Provide(id, 42)
}

func TestBaseReceptacleManagement(t *testing.T) {
	b := NewBase("t.X")
	r := NewReceptacle[ISink](ifSink)
	b.AddReceptacle("out", r)
	if names := b.ReceptacleNames(); len(names) != 1 || names[0] != "out" {
		t.Fatalf("names = %v", names)
	}
	if err := b.RemoveReceptacle("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := b.RemoveReceptacle("out"); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Receptacle("out"); ok {
		t.Fatal("receptacle present after removal")
	}
}

func TestBaseDuplicateReceptaclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for duplicate receptacle")
		}
	}()
	b := NewBase("t.X")
	b.AddReceptacle("out", NewReceptacle[ISink](ifSink))
	b.AddReceptacle("out", NewReceptacle[ISink](ifSink))
}

func TestAnnotations(t *testing.T) {
	b := NewBase("t.X")
	b.SetAnnotation(AnnotTrust, "untrusted")
	if v, ok := b.Annotation(AnnotTrust); !ok || v != "untrusted" {
		t.Fatalf("annotation = %q %v", v, ok)
	}
	m := b.Annotations()
	m[AnnotTrust] = "mutated"
	if v, _ := b.Annotation(AnnotTrust); v != "untrusted" {
		t.Fatal("Annotations() did not copy")
	}
}

func TestRetract(t *testing.T) {
	s := newSink()
	if _, ok := s.Provided(ifSink); !ok {
		t.Fatal("missing provided")
	}
	s.Retract(ifSink)
	if _, ok := s.Provided(ifSink); ok {
		t.Fatal("still provided after retract")
	}
}

// ---- MultiReceptacle ---------------------------------------------------------

func TestMultiReceptacle(t *testing.T) {
	m := NewMultiReceptacle[ISink](ifSink)
	if m.Iface() != ifSink {
		t.Fatalf("iface = %q", m.Iface())
	}
	a, err := m.AddSlot("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddSlot("a"); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	if _, err := m.AddSlot("b"); err != nil {
		t.Fatal(err)
	}
	if got := m.Slots(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("slots = %v", got)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}

	snk := newSink()
	if err := a.bindAny(ISink(snk)); err != nil {
		t.Fatal(err)
	}
	var visited []string
	m.Each(func(name string, s ISink) bool {
		visited = append(visited, name)
		s.Consume(1)
		return true
	})
	if len(visited) != 1 || visited[0] != "a" {
		t.Fatalf("visited = %v", visited)
	}
	if snk.total != 1 {
		t.Fatalf("total = %d", snk.total)
	}

	if err := m.RemoveSlot("a"); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("want ErrAlreadyBound for bound slot, got %v", err)
	}
	a.unbindAny()
	if err := m.RemoveSlot("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveSlot("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestMultiReceptacleEachEarlyStop(t *testing.T) {
	m := NewMultiReceptacle[ISink](ifSink)
	for _, n := range []string{"a", "b", "c"} {
		slot, err := m.AddSlot(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := slot.bindAny(ISink(newSink())); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	m.Each(func(string, ISink) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("count = %d, want early stop at 2", count)
	}
}

// ---- receptacle fast path ------------------------------------------------------

func TestReceptacleMustGetPanicsUnbound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewReceptacle[ISink](ifSink).MustGet()
}

func TestReceptacleRerouteUnboundFails(t *testing.T) {
	r := NewReceptacle[ISink](ifSink)
	if err := r.reroute(ISink(newSink())); !errors.Is(err, ErrNotBound) {
		t.Fatalf("want ErrNotBound, got %v", err)
	}
}

func TestReceptacleBindTypeMismatch(t *testing.T) {
	r := NewReceptacle[ISink](ifSink)
	if err := r.bindAny("not a sink"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want ErrTypeMismatch, got %v", err)
	}
}

// ---- graph snapshot & invariants ------------------------------------------------

func TestSnapshotReflectsArchitecture(t *testing.T) {
	c := newTestCapsule(t)
	_, _, b := wire(t, c)
	g := c.Snapshot()
	if g.Capsule != "test" || len(g.Nodes) != 2 || len(g.Edges) != 1 {
		t.Fatalf("graph = %+v", g)
	}
	n, ok := g.Node("src")
	if !ok || n.Type != "test.Source" || len(n.Receptacles) != 1 {
		t.Fatalf("src node = %+v", n)
	}
	if !n.Receptacles[0].Bound {
		t.Fatal("src receptacle should show bound")
	}
	e := g.Edges[0]
	if e.From != "src" || e.To != "snk" || e.ID != b.ID() {
		t.Fatalf("edge = %+v", e)
	}
	if out := g.OutEdges("src"); len(out) != 1 {
		t.Fatalf("out edges = %v", out)
	}
	if in := g.InEdges("snk"); len(in) != 1 {
		t.Fatalf("in edges = %v", in)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestSnapshotValidateCatchesCorruption(t *testing.T) {
	c := newTestCapsule(t)
	wire(t, c)
	g := c.Snapshot()

	bad := *g
	bad.Edges = append([]GraphEdge(nil), g.Edges...)
	bad.Edges[0].To = "ghost"
	if err := bad.Validate(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("want ErrInvariant for missing server, got %v", err)
	}

	bad = *g
	bad.Edges = append([]GraphEdge(nil), g.Edges...)
	bad.Edges[0].Iface = "test.Other/1"
	if err := bad.Validate(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("want ErrInvariant for iface mismatch, got %v", err)
	}

	bad = *g
	bad.Nodes = append(append([]GraphNode(nil), g.Nodes...), g.Nodes[0])
	if err := bad.Validate(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("want ErrInvariant for dup node, got %v", err)
	}
}

func TestSnapshotAfterInterceptors(t *testing.T) {
	c := newTestCapsule(t)
	_, _, b := wire(t, c)
	if err := b.AddInterceptor(Interceptor{Name: "i1", Wrap: PrePost(nil, nil)}); err != nil {
		t.Fatal(err)
	}
	g := c.Snapshot()
	if len(g.Edges[0].Interceptors) != 1 || g.Edges[0].Interceptors[0] != "i1" {
		t.Fatalf("edge interceptors = %v", g.Edges[0].Interceptors)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate with interceptor: %v", err)
	}
}

// ---- concurrency smoke -----------------------------------------------------------

func TestConcurrentInvokeDuringIntercept(t *testing.T) {
	c := newTestCapsule(t)
	src, _, b := wire(t, c)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if s, ok := src.out.Get(); ok {
				s.Consume(1)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("i%d", i)
		if err := b.AddInterceptor(Interceptor{Name: name, Wrap: PrePost(nil, nil)}); err != nil {
			t.Fatal(err)
		}
		if err := b.RemoveInterceptor(name); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
