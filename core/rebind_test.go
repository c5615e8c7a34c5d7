package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestRebindRetargets(t *testing.T) {
	c := newTestCapsule(t)
	src, snk1, b := wire(t, c)
	snk2 := newSink()
	if err := c.Insert("snk2", snk2); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind(b.ID(), "snk2"); err != nil {
		t.Fatal(err)
	}
	src.out.MustGet().Consume(5)
	if snk1.total != 0 || snk2.total != 5 {
		t.Fatalf("totals = %d/%d, want 0/5", snk1.total, snk2.total)
	}
	to, _ := b.To()
	if to != "snk2" {
		t.Fatalf("binding records %q", to)
	}
	// Bookkeeping moved: the old server has no bindings, the new one does.
	if n := len(c.BindingsOf("snk")); n != 0 {
		t.Fatalf("old server still has %d bindings", n)
	}
	if n := len(c.BindingsOf("snk2")); n != 1 {
		t.Fatalf("new server has %d bindings", n)
	}
	if err := c.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRebindErrors(t *testing.T) {
	c := newTestCapsule(t)
	_, _, b := wire(t, c)
	if err := c.Rebind(999, "snk"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown binding: %v", err)
	}
	if err := c.Rebind(b.ID(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown server: %v", err)
	}
	bare := NewBase("test.Bare")
	if err := c.Insert("bare", bare); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind(b.ID(), "bare"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("server without iface: %v", err)
	}
}

func TestRebindConstraintVeto(t *testing.T) {
	c := newTestCapsule(t)
	_, _, b := wire(t, c)
	snk2 := newSink()
	if err := c.Insert("snk2", snk2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(BindConstraint{
		Name: "pin-snk",
		Check: func(_ *Capsule, req BindRequest) error {
			if req.To != "snk" {
				return fmt.Errorf("must stay on snk")
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind(b.ID(), "snk2"); !errors.Is(err, ErrVetoed) {
		t.Fatalf("want ErrVetoed, got %v", err)
	}
	// The original wiring is intact after the veto.
	to, _ := b.To()
	if to != "snk" {
		t.Fatalf("binding moved despite veto: %q", to)
	}
}

func TestRebindPreservesInterceptors(t *testing.T) {
	c := newTestCapsule(t)
	src, _, b := wire(t, c)
	var count int
	if err := b.AddInterceptor(Interceptor{
		Name: "count",
		Wrap: PrePost(func(string, []any) { count++ }, nil),
	}); err != nil {
		t.Fatal(err)
	}
	snk2 := newSink()
	if err := c.Insert("snk2", snk2); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind(b.ID(), "snk2"); err != nil {
		t.Fatal(err)
	}
	src.out.MustGet().Consume(1)
	if count != 1 {
		t.Fatalf("interceptor lost across rebind: count=%d", count)
	}
	if snk2.total != 1 {
		t.Fatalf("new target not reached: %d", snk2.total)
	}
}

func TestRebindEmitsEvent(t *testing.T) {
	c := newTestCapsule(t)
	_, _, b := wire(t, c)
	snk2 := newSink()
	if err := c.Insert("snk2", snk2); err != nil {
		t.Fatal(err)
	}
	sub := c.SubscribeEvents(8)
	defer sub.Cancel()
	if err := c.Rebind(b.ID(), "snk2"); err != nil {
		t.Fatal(err)
	}
	e := <-sub.Events()
	if e.Kind != EventRebind || e.Peer != "snk2" || e.Binding != b.ID() {
		t.Fatalf("event = %+v", e)
	}
}

func TestRebindLosslessUnderConcurrentCalls(t *testing.T) {
	c := newTestCapsule(t)
	src, snk1, b := wire(t, c)
	snk2 := newSink()
	if err := c.Insert("snk2", snk2); err != nil {
		t.Fatal(err)
	}
	const calls = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < calls; i++ {
			src.out.MustGet().Consume(1)
		}
	}()
	// Ping-pong the binding while traffic flows.
	for i := 0; i < 50; i++ {
		target := "snk2"
		if i%2 == 1 {
			target = "snk"
		}
		if err := c.Rebind(b.ID(), target); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := snk1.total + snk2.total; got != calls {
		t.Fatalf("lost calls across rebinds: %d of %d", got, calls)
	}
}
