package router

import (
	"context"
	"errors"
	"testing"
	"time"

	"netkit/cf"
	"netkit/core"
	"netkit/internal/buffers"
	"netkit/internal/osabs"
	"netkit/packet"
)

// bare is a component with no packet interfaces at all.
type bare struct{ *core.Base }

func newBare() *bare { return &bare{Base: core.NewBase("test.Bare")} }

// fakeClassifier provides IClassifier but no packet receptacles: violates
// the classifier-outputs rule.
type fakeClassifier struct{ *core.Base }

func newFakeClassifier() *fakeClassifier {
	f := &fakeClassifier{Base: core.NewBase("test.FakeClassifier")}
	f.Provide(IClassifierID, f)
	f.Provide(IPacketPushID, f)
	return f
}

func (f *fakeClassifier) Push(*Packet) error { return nil }
func (f *fakeClassifier) RegisterFilter(string, int, string) (uint64, error) {
	return 0, nil
}
func (f *fakeClassifier) UnregisterFilter(uint64) error { return nil }
func (f *fakeClassifier) FilterOutputs() []string       { return nil }

func TestRulePacketInterfaces(t *testing.T) {
	c := newCap()
	fw, err := NewFramework(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("counter", NewCounter()); err != nil {
		t.Fatalf("counter should be compliant: %v", err)
	}
	if err := fw.Admit("bare", newBare()); !errors.Is(err, cf.ErrRuleViolated) {
		t.Fatalf("want rule violation, got %v", err)
	}
	// A source with only receptacles (no provided packet iface) complies.
	nic, err := osabs.NewNIC("eth-t", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewNICSource(nic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("src", src); err != nil {
		t.Fatalf("source should be compliant: %v", err)
	}
}

func TestRuleClassifierOutputs(t *testing.T) {
	c := newCap()
	fw, err := NewFramework(c, false)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := NewClassifier("a", "default")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("cls", cls); err != nil {
		t.Fatalf("real classifier compliant: %v", err)
	}
	if err := fw.Admit("fake", newFakeClassifier()); !errors.Is(err, cf.ErrRuleViolated) {
		t.Fatalf("want rule violation for classifier without outputs, got %v", err)
	}
}

func TestRuleTrustIsolation(t *testing.T) {
	c := newCap()
	fw, err := NewFramework(c, true) // strict
	if err != nil {
		t.Fatal(err)
	}
	cnt := NewCounter()
	cnt.SetAnnotation(core.AnnotTrust, "untrusted")
	if err := fw.Admit("u", cnt); !errors.Is(err, cf.ErrRuleViolated) {
		t.Fatalf("want rejection of in-proc untrusted, got %v", err)
	}
	// Marked as remotely hosted, it passes.
	cnt2 := NewCounter()
	cnt2.SetAnnotation(core.AnnotTrust, "untrusted")
	cnt2.SetAnnotation("netkit.remote", "true")
	if err := fw.Admit("u2", cnt2); err != nil {
		t.Fatal(err)
	}
	// Non-strict framework admits in-proc untrusted components.
	fw2, err := NewFramework(core.NewCapsule("lenient"), false)
	if err != nil {
		t.Fatal(err)
	}
	cnt3 := NewCounter()
	cnt3.SetAnnotation(core.AnnotTrust, "untrusted")
	if err := fw2.Admit("u3", cnt3); err != nil {
		t.Fatal(err)
	}
}

func TestFigure3CompositeForwards(t *testing.T) {
	outer := newCap()
	comp, err := NewFigure3Composite(outer, Figure3Config{})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFramework(outer, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("gw", comp); err != nil {
		t.Fatalf("figure-3 composite should satisfy the CF rules: %v", err)
	}
	out := newSink()
	if err := outer.Insert("collect", out); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(outer, "gw", "out", "collect"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := outer.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := outer.StopAll(ctx); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()

	ingress, _ := comp.Provided(IPacketPushID)
	push := ingress.(IPacketPush)
	const n = 50
	for i := 0; i < n; i++ {
		if err := push.Push(udpPkt(t, 53, 64)); err != nil {
			t.Fatal(err)
		}
		if err := push.Push(udp6Pkt(t, 32)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for out.count() < 2*n {
		select {
		case <-deadline:
			t.Fatalf("composite forwarded %d of %d", out.count(), 2*n)
		case <-time.After(time.Millisecond):
		}
	}
	// TTL/hop decremented on the way through.
	v4seen, v6seen := false, false
	out.mu.Lock()
	defer out.mu.Unlock()
	for _, p := range out.pkts {
		switch packet.Version(p.Data) {
		case 4:
			h, err := packet.ParseIPv4(p.Data)
			if err != nil {
				t.Fatal(err)
			}
			if h.TTL != 63 {
				t.Fatalf("v4 ttl = %d", h.TTL)
			}
			v4seen = true
		case 6:
			h, err := packet.ParseIPv6(p.Data)
			if err != nil {
				t.Fatal(err)
			}
			if h.HopLimit != 31 {
				t.Fatalf("v6 hop = %d", h.HopLimit)
			}
			v6seen = true
		}
	}
	if !v4seen || !v6seen {
		t.Fatal("missing version in output")
	}
}

func TestFigure3ConstraintVetoesForeignSchedBinding(t *testing.T) {
	outer := newCap()
	comp, err := NewFigure3Composite(outer, Figure3Config{})
	if err != nil {
		t.Fatal(err)
	}
	inner := comp.Inner()
	rogue := newSink()
	if err := inner.Insert("rogue", rogue); err != nil {
		t.Fatal(err)
	}
	// Unbind sched.out and try to redirect it to the rogue sink: the
	// controller's constraint must veto.
	var schedOut core.BindingID
	for _, b := range inner.BindingsOf("sched") {
		from, recp := b.From()
		if from == "sched" && recp == "out" {
			schedOut = b.ID()
		}
	}
	if err := inner.Unbind(schedOut); err != nil {
		t.Fatal(err)
	}
	_, err = inner.Bind("sched", "out", "rogue", IPacketPushID)
	if !errors.Is(err, core.ErrVetoed) {
		t.Fatalf("want ErrVetoed, got %v", err)
	}
	// Restoring the sanctioned wiring succeeds.
	if _, err := inner.Bind("sched", "out", "egress", IPacketPushID); err != nil {
		t.Fatal(err)
	}
}

func TestHotSwapLossless(t *testing.T) {
	c := newCap()
	head := NewCounter()
	mid := NewCounter()
	tail := newSink()
	for name, comp := range map[string]core.Component{"head": head, "mid": mid, "tail": tail} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(c, "head", "out", "mid"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "mid", "out", "tail"); err != nil {
		t.Fatal(err)
	}

	// Drive traffic concurrently with the swap.
	done := make(chan int)
	go func() {
		sent := 0
		for i := 0; i < 5000; i++ {
			if err := head.Push(udpPkt(t, 1, 64)); err == nil {
				sent++
			}
		}
		done <- sent
	}()

	replacement := NewCounter()
	if err := HotSwap(c, "mid", "mid2", replacement); err != nil {
		t.Fatalf("hotswap: %v", err)
	}
	sent := <-done

	if got := tail.count(); got != sent {
		t.Fatalf("lost packets across hot-swap: sent %d, received %d", sent, got)
	}
	if _, ok := c.Component("mid"); ok {
		t.Fatal("old component still present")
	}
	if _, ok := c.Component("mid2"); !ok {
		t.Fatal("replacement missing")
	}
	// The replacement carries (most of) the traffic that flowed after the swap.
	if replacement.ElemStats().In == 0 && mid.ElemStats().In == 0 {
		t.Fatal("no traffic accounted anywhere")
	}
	if err := c.Snapshot().Validate(); err != nil {
		t.Fatalf("architecture invalid after swap: %v", err)
	}
}

func TestHotSwapMigratesQueueState(t *testing.T) {
	c := newCap()
	q1, err := NewFIFOQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("q", q1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := q1.Push(udpPkt(t, uint16(i+1), 64)); err != nil {
			t.Fatal(err)
		}
	}
	q2, err := NewFIFOQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := HotSwap(c, "q", "q2", q2); err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 10 {
		t.Fatalf("migrated %d of 10 packets", q2.Len())
	}
	// FIFO order preserved.
	p, err := q2.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if p.View().DstPort != 1 {
		t.Fatalf("order broken: first dst port = %d", p.View().DstPort)
	}
}

func TestHotSwapMissingReceptacleFails(t *testing.T) {
	c := newCap()
	mid := NewCounter()
	tail := newSink()
	if err := c.Insert("mid", mid); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("tail", tail); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "mid", "out", "tail"); err != nil {
		t.Fatal(err)
	}
	// A dropper has no "out" receptacle: rewiring must fail cleanly.
	if err := HotSwap(c, "mid", "d", NewDropper()); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestHotSwapUnknownOld(t *testing.T) {
	c := newCap()
	if err := HotSwap(c, "ghost", "x", NewCounter()); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// ---- NIC wrappers and shaper ------------------------------------------------

func TestNICSourceToSinkPipeline(t *testing.T) {
	c := newCap()
	inNIC, err := osabs.NewNIC("in0", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	outNIC, err := osabs.NewNIC("out0", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewNICSource(inNIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	snk, err := NewNICSink(outNIC)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("snk", snk); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "src", "out", "snk"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.StopAll(ctx) }()

	frame, err := packet.BuildUDP4(srcA, dstA, 1, 2, 64, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := inNIC.Inject(frame); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(2 * time.Second)
	for got < n {
		if _, err := outNIC.DrainTx(); err == nil {
			got++
			continue
		}
		select {
		case <-deadline:
			t.Fatalf("forwarded %d of %d", got, n)
		case <-time.After(time.Millisecond):
		}
	}
	if src.ElemStats().In != n || snk.ElemStats().Out != uint64(n) {
		t.Fatalf("src=%+v snk=%+v", src.Stats(), snk.Stats())
	}
}

func TestNICSourcePooledBuffers(t *testing.T) {
	pool := buffers.MustNewPool([]int{2048}, 8, 0)
	nic, err := osabs.NewNIC("in1", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewNICSource(nic, pool)
	if err != nil {
		t.Fatal(err)
	}
	c := newCap()
	d := NewDropper()
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("d", d); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "src", "out", "d"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := nic.Inject([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(time.Second)
	for d.ElemStats().Dropped < 1 {
		select {
		case <-deadline:
			t.Fatal("packet never delivered")
		case <-time.After(time.Millisecond):
		}
	}
	if err := c.StopAll(ctx); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Live != 0 {
		t.Fatalf("pooled buffer leaked: %d", pool.Stats().Live)
	}
}

func TestKernelSourceBatches(t *testing.T) {
	ch, err := osabs.NewKernelChannel(64)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := NewNICSource(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newCap()
	out := newSink()
	if err := c.Insert("ks", ks); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("out", out); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "ks", "out", "out"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.StopAll(ctx) }()
	for i := 0; i < 30; i++ {
		if err := ch.Put([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for out.count() < 30 {
		select {
		case <-deadline:
			t.Fatalf("delivered %d of 30", out.count())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestKernelSourceValidation(t *testing.T) {
	if _, err := NewNICSource(nil, nil); err == nil {
		t.Fatal("want error")
	}
	if _, err := NewNICSink(nil); err == nil {
		t.Fatal("want error")
	}
}

func TestTokenShaperPolices(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	sh, err := NewTokenShaper(1000, 100, clock)
	if err != nil {
		t.Fatal(err)
	}
	c := newCap()
	out := newSink()
	if err := c.Insert("sh", sh); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("out", out); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "sh", "out", "out"); err != nil {
		t.Fatal(err)
	}
	small, err := packet.BuildUDP4(srcA, dstA, 1, 2, 64, make([]byte, 22)) // 50B IP
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 100 bytes: two 50-byte packets conform, the third drops.
	for i := 0; i < 3; i++ {
		if err := sh.Push(NewPacket(append([]byte(nil), small...))); err != nil {
			t.Fatal(err)
		}
	}
	if out.count() != 2 || sh.ElemStats().Dropped != 1 {
		t.Fatalf("conformed=%d dropped=%d", out.count(), sh.ElemStats().Dropped)
	}
	now = now.Add(time.Second) // refill
	if err := sh.Push(NewPacket(append([]byte(nil), small...))); err != nil {
		t.Fatal(err)
	}
	if out.count() != 3 {
		t.Fatalf("after refill = %d", out.count())
	}
	allowed, denied := sh.BucketStats()
	if allowed != 3 || denied != 1 {
		t.Fatalf("bucket stats = %d/%d", allowed, denied)
	}
}

func TestShaperValidation(t *testing.T) {
	if _, err := NewTokenShaper(0, 1, nil); err == nil {
		t.Fatal("want error")
	}
}

// ---- interception on the packet path ------------------------------------------

func TestPacketPathInterception(t *testing.T) {
	c := newCap()
	head := NewCounter()
	tail := newSink()
	if err := c.Insert("head", head); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("tail", tail); err != nil {
		t.Fatal(err)
	}
	b, err := ConnectPush(c, "head", "out", "tail")
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	if err := b.AddInterceptor(core.Interceptor{
		Name: "audit",
		Wrap: core.PrePost(func(op string, args []any) {
			if op == "Push" {
				seen++
			}
		}, nil),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := head.Push(udpPkt(t, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 5 || tail.count() != 5 {
		t.Fatalf("seen=%d delivered=%d", seen, tail.count())
	}
	if err := b.RemoveInterceptor("audit"); err != nil {
		t.Fatal(err)
	}
	if err := head.Push(udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatal("interceptor fired after removal")
	}
}

// ---- factory registrations ------------------------------------------------------

func TestFactoriesConstructAllTypes(t *testing.T) {
	types := []string{
		TypeCounter, TypeDropper, TypeTee, TypeProtoRecogn, TypeIPv4Proc,
		TypeIPv6Proc, TypeChecksumVal, TypeClassifier, TypeFIFOQueue,
		TypeREDQueue, TypeLinkSched, TypeTokenShaper, TypeNICSource, TypeNICSink,
	}
	for _, typ := range types {
		comp, err := core.Components.New(typ, nil)
		if err != nil {
			t.Errorf("factory %q: %v", typ, err)
			continue
		}
		if comp.TypeName() != typ {
			t.Errorf("factory %q produced type %q", typ, comp.TypeName())
		}
	}
}

func TestFactoryConfigParsing(t *testing.T) {
	q, err := core.Components.New(TypeFIFOQueue, map[string]string{"capacity": "7"})
	if err != nil {
		t.Fatal(err)
	}
	if q.(*FIFOQueue).Capacity() != 7 {
		t.Fatal("capacity config ignored")
	}
	if _, err := core.Components.New(TypeFIFOQueue, map[string]string{"capacity": "x"}); err == nil {
		t.Fatal("want parse error")
	}
	cls, err := core.Components.New(TypeClassifier, map[string]string{"outputs": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cls.(*Classifier).FilterOutputs()); got != 4 { // 3 + default
		t.Fatalf("outputs = %d", got)
	}
	sched, err := core.Components.New(TypeLinkSched, map[string]string{"policy": "rr", "inputs": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.(*LinkScheduler).Policy(); got != PolicyRR {
		t.Fatalf("policy = %q", got)
	}
	if _, err := core.Components.New(TypeLinkSched, map[string]string{"policy": "nope"}); err == nil {
		t.Fatal("want policy error")
	}
}
