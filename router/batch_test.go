package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"netkit/core"
	"netkit/internal/osabs"
	"netkit/packet"
)

// batchSink collects packets and records how they arrived (per-packet
// pushes vs whole batches).
type batchSink struct {
	*core.Base
	mu      sync.Mutex
	pkts    []*Packet
	pushes  int
	batches int
}

func newBatchSink() *batchSink {
	s := &batchSink{Base: core.NewBase("test.BatchSink")}
	s.Provide(IPacketPushID, s)
	return s
}

func (s *batchSink) Push(p *Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushes++
	s.pkts = append(s.pkts, p)
	return nil
}

func (s *batchSink) PushBatch(batch []*Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	s.pkts = append(s.pkts, batch...) // pointers copied; slice not retained
	return nil
}

func (s *batchSink) snapshot() (pkts []*Packet, pushes, batches int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Packet(nil), s.pkts...), s.pushes, s.batches
}

func mkBatch(t *testing.T, n int) []*Packet {
	t.Helper()
	batch := make([]*Packet, n)
	for i := range batch {
		batch[i] = udpPkt(t, uint16(1000+i), 64)
	}
	return batch
}

// dstPorts projects the destination-port sequence of a packet slice, the
// ordering fingerprint used by the equivalence tests.
func dstPorts(ps []*Packet) []uint16 {
	out := make([]uint16, len(ps))
	for i, p := range ps {
		out[i] = p.View().DstPort
	}
	return out
}

func equalPorts(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- ForwardBatch shim ----------------------------------------------------

func TestForwardBatchFallbackPerPacket(t *testing.T) {
	dst := newSink() // push-only: no PushBatch
	batch := mkBatch(t, 8)
	if err := ForwardBatch(dst, batch); err != nil {
		t.Fatal(err)
	}
	if dst.count() != 8 {
		t.Fatalf("delivered %d, want 8", dst.count())
	}
	for i, p := range dst.pkts {
		if p != batch[i] {
			t.Fatalf("packet %d out of order", i)
		}
	}
}

func TestForwardBatchFastPath(t *testing.T) {
	dst := newBatchSink()
	batch := mkBatch(t, 8)
	if err := ForwardBatch(dst, batch); err != nil {
		t.Fatal(err)
	}
	pkts, pushes, batches := dst.snapshot()
	if len(pkts) != 8 || pushes != 0 || batches != 1 {
		t.Fatalf("pkts=%d pushes=%d batches=%d, want 8/0/1", len(pkts), pushes, batches)
	}
}

func TestPacketCount(t *testing.T) {
	batch := make([]*Packet, 5)
	if got := PacketCount("PushBatch", []any{batch}); got != 5 {
		t.Fatalf("PushBatch count = %d, want 5", got)
	}
	if got := PacketCount("Push", []any{&Packet{}}); got != 1 {
		t.Fatalf("Push count = %d, want 1", got)
	}
	if got := PacketCount("PushBatch", nil); got != 1 {
		t.Fatalf("malformed PushBatch count = %d, want 1", got)
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := GetBatch()
	if len(b) != 0 {
		t.Fatalf("pooled batch len = %d, want 0", len(b))
	}
	b = append(b, udpPkt(t, 1, 64))
	PutBatch(b)
	b2 := GetBatch()
	if len(b2) != 0 {
		t.Fatalf("recycled batch len = %d, want 0", len(b2))
	}
	for _, p := range b2[:cap(b2)] {
		if p != nil {
			t.Fatal("recycled batch pins a packet")
		}
	}
}

// ---- interception on the batch path --------------------------------------

// TestBatchInterceptorWrapsOnce: with a batch-capable target, the chain
// sees the whole batch as ONE "PushBatch" operation, and an audit using
// PacketCount still observes every packet exactly once.
func TestBatchInterceptorWrapsOnce(t *testing.T) {
	c := newCap()
	head := NewCounter()
	tail := newBatchSink()
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
	var ops []string
	var audited int
	if err := b.AddInterceptor(core.Interceptor{
		Name: "audit",
		Wrap: core.PrePost(func(op string, args []any) {
			ops = append(ops, op)
			audited += PacketCount(op, args)
		}, nil),
	}); err != nil {
		t.Fatal(err)
	}
	batch := mkBatch(t, 32)
	if err := head.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0] != "PushBatch" {
		t.Fatalf("chain crossings = %v, want exactly one PushBatch", ops)
	}
	if audited != 32 {
		t.Fatalf("audit observed %d packets, want 32", audited)
	}
	pkts, _, batches := tail.snapshot()
	if len(pkts) != 32 || batches != 1 {
		t.Fatalf("delivered %d in %d batches, want 32 in 1", len(pkts), batches)
	}
	for i, p := range pkts {
		if p != batch[i] {
			t.Fatalf("packet %d out of order through intercepted batch", i)
		}
	}
}

// TestBatchInterceptorFallback: with a per-packet-only target, the proxy
// degrades to per-packet "Push" operations — the audit still observes
// every packet exactly once, never zero times and never twice.
func TestBatchInterceptorFallback(t *testing.T) {
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
	var pushOps, audited int
	if err := b.AddInterceptor(core.Interceptor{
		Name: "audit",
		Wrap: core.PrePost(func(op string, args []any) {
			if op == "Push" {
				pushOps++
			}
			audited += PacketCount(op, args)
		}, nil),
	}); err != nil {
		t.Fatal(err)
	}
	batch := mkBatch(t, 16)
	if err := head.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if pushOps != 16 || audited != 16 {
		t.Fatalf("pushOps=%d audited=%d, want 16/16", pushOps, audited)
	}
	if tail.count() != 16 {
		t.Fatalf("delivered %d, want 16", tail.count())
	}
}

// ---- per-component equivalence -------------------------------------------

// TestClassifierBatchEquivalence: batch classification routes every packet
// to the same output, in the same order, as per-packet classification.
func TestClassifierBatchEquivalence(t *testing.T) {
	build := func(a, b core.Component) (*Classifier, error) {
		c := newCap()
		cls, err := NewClassifier("a", "b", "default")
		if err != nil {
			return nil, err
		}
		if err := c.Insert("cls", cls); err != nil {
			return nil, err
		}
		if err := c.Insert("sa", a); err != nil {
			return nil, err
		}
		if err := c.Insert("sb", b); err != nil {
			return nil, err
		}
		if _, err := ConnectPush(c, "cls", "a", "sa"); err != nil {
			return nil, err
		}
		if _, err := ConnectPush(c, "cls", "b", "sb"); err != nil {
			return nil, err
		}
		if _, err := cls.RegisterFilter("udp and dst port 1001", 1, "a"); err != nil {
			return nil, err
		}
		if _, err := cls.RegisterFilter("udp and dst port 1003", 1, "b"); err != nil {
			return nil, err
		}
		return cls, nil
	}
	mk := func(t *testing.T) []*Packet {
		// Mixed traffic: runs and alternations across a, b and drop.
		ports := []uint16{1001, 1001, 1003, 1001, 9999, 9999, 1003, 1003, 1001, 9999}
		out := make([]*Packet, len(ports))
		for i, port := range ports {
			out[i] = udpPkt(t, port, 64)
		}
		return out
	}

	aPer, bPer := newSink(), newSink()
	clsPer, err := build(aPer, bPer)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mk(t) {
		if err := clsPer.Push(p); err != nil {
			t.Fatal(err)
		}
	}

	aBat, bBat := newBatchSink(), newBatchSink()
	clsBat, err := build(aBat, bBat)
	if err != nil {
		t.Fatal(err)
	}
	if err := clsBat.PushBatch(mk(t)); err != nil {
		t.Fatal(err)
	}

	gotA, _, _ := aBat.snapshot()
	gotB, _, _ := bBat.snapshot()
	if !equalPorts(dstPorts(aPer.pkts), dstPorts(gotA)) {
		t.Fatalf("output a diverged: per-packet %v vs batch %v",
			dstPorts(aPer.pkts), dstPorts(gotA))
	}
	if !equalPorts(dstPorts(bPer.pkts), dstPorts(gotB)) {
		t.Fatalf("output b diverged: per-packet %v vs batch %v",
			dstPorts(bPer.pkts), dstPorts(gotB))
	}
	per, bat := clsPer.ElemStats(), clsBat.ElemStats()
	if per.Dropped != bat.Dropped || per.In != bat.In {
		t.Fatalf("stats diverged: %+v vs %+v", per, bat)
	}
}

func TestFIFOQueueBatchOverflow(t *testing.T) {
	q, err := NewFIFOQueue(4)
	if err != nil {
		t.Fatal(err)
	}
	batch := mkBatch(t, 6)
	if err := q.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 4 {
		t.Fatalf("queued %d, want 4", q.Len())
	}
	if st := q.ElemStats(); st.Dropped != 2 || st.In != 6 {
		t.Fatalf("stats = %+v, want 2 dropped of 6", st)
	}
	got := q.PullBatch(nil, 10, math.MaxInt)
	if len(got) != 4 {
		t.Fatalf("pulled %d, want 4", len(got))
	}
	for i, p := range got {
		if p != batch[i] {
			t.Fatalf("FIFO order violated at %d", i)
		}
	}
	if _, err := q.Pull(); err != ErrNoPacket {
		t.Fatalf("drained queue Pull err = %v", err)
	}
}

// TestREDQueueBatchEquivalence: with identical deterministic RNGs and
// identical arrivals, batch admission takes exactly the per-packet path's
// decisions (the EWMA is per-arrival either way).
func TestREDQueueBatchEquivalence(t *testing.T) {
	mkRng := func() func() float64 {
		state := uint64(12345)
		return func() float64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return float64(state>>11) / (1 << 53)
		}
	}
	cfg := REDConfig{Capacity: 64, MinTh: 8, MaxTh: 48, MaxP: 0.5, Weight: 0.2}
	cfg.Rand = mkRng()
	qPer, err := NewREDQueue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rand = mkRng()
	qBat, err := NewREDQueue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	perIn := make([]*Packet, n)
	batIn := make([]*Packet, n)
	for i := 0; i < n; i++ {
		perIn[i] = udpPkt(t, uint16(i), 64)
		batIn[i] = udpPkt(t, uint16(i), 64)
	}
	for _, p := range perIn {
		if err := qPer.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := qBat.PushBatch(batIn); err != nil {
		t.Fatal(err)
	}
	if qPer.Len() != qBat.Len() {
		t.Fatalf("queue lengths diverged: %d vs %d", qPer.Len(), qBat.Len())
	}
	if qPer.EarlyDrops() != qBat.EarlyDrops() || qPer.ForcedDrops() != qBat.ForcedDrops() {
		t.Fatalf("drop mix diverged: early %d/%d forced %d/%d",
			qPer.EarlyDrops(), qBat.EarlyDrops(), qPer.ForcedDrops(), qBat.ForcedDrops())
	}
	var perOut, batOut []*Packet
	perOut = qPer.PullBatch(perOut, n, math.MaxInt)
	batOut = qBat.PullBatch(batOut, n, math.MaxInt)
	if !equalPorts(dstPorts(perOut), dstPorts(batOut)) {
		t.Fatal("admitted packet sequences diverged")
	}
}

// TestSchedulerRunOnceOneBatch: a service round reaches a batch-aware
// downstream as ONE batch, and reaches a per-packet-only downstream
// (through the ForwardBatch shim) as the same packets in the same order.
func TestSchedulerRunOnceOneBatch(t *testing.T) {
	build := func(dst core.Component) (*LinkScheduler, []*FIFOQueue, error) {
		c := newCap()
		s, err := NewLinkScheduler(PolicyDRR)
		if err != nil {
			return nil, nil, err
		}
		if err := s.AddInput("q0", 200, 0); err != nil {
			return nil, nil, err
		}
		if err := s.AddInput("q1", 100, 0); err != nil {
			return nil, nil, err
		}
		if err := c.Insert("sched", s); err != nil {
			return nil, nil, err
		}
		if err := c.Insert("dst", dst); err != nil {
			return nil, nil, err
		}
		qs := make([]*FIFOQueue, 2)
		for i := range qs {
			q, err := NewFIFOQueue(64)
			if err != nil {
				return nil, nil, err
			}
			qs[i] = q
		}
		if err := c.Insert("fq0", qs[0]); err != nil {
			return nil, nil, err
		}
		if err := c.Insert("fq1", qs[1]); err != nil {
			return nil, nil, err
		}
		if _, err := ConnectPull(c, "sched", "q0", "fq0"); err != nil {
			return nil, nil, err
		}
		if _, err := ConnectPull(c, "sched", "q1", "fq1"); err != nil {
			return nil, nil, err
		}
		if _, err := ConnectPush(c, "sched", "out", "dst"); err != nil {
			return nil, nil, err
		}
		return s, qs, nil
	}
	fill := func(t *testing.T, qs []*FIFOQueue) {
		for i := 0; i < 12; i++ {
			if err := qs[0].Push(udpPkt(t, uint16(100+i), 64)); err != nil {
				t.Fatal(err)
			}
			if err := qs[1].Push(udpPkt(t, uint16(200+i), 64)); err != nil {
				t.Fatal(err)
			}
		}
	}

	perSink := newSink()
	sPer, qsPer, err := build(perSink)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, qsPer)
	servedPer := sPer.RunOnce(24)

	batSink := newBatchSink()
	sBat, qsBat, err := build(batSink)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, qsBat)
	servedBat := sBat.RunOnce(24)

	if servedPer != servedBat {
		t.Fatalf("served %d vs %d", servedPer, servedBat)
	}
	got, _, batches := batSink.snapshot()
	if batches != 1 {
		t.Fatalf("delivered in %d batches, want 1", batches)
	}
	if !equalPorts(dstPorts(perSink.pkts), dstPorts(got)) {
		t.Fatalf("emission order diverged:\nper-packet %v\nbatched    %v",
			dstPorts(perSink.pkts), dstPorts(got))
	}
}

// TestKernelSourceBatchedDelivery: the kernel-channel pump delivers whole
// batches through the pipeline, preserving frame order.
func TestKernelSourceBatchedDelivery(t *testing.T) {
	ch, err := osabs.NewKernelChannel(256)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	src, err := NewNICSource(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newCap()
	tail := newBatchSink()
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("tail", tail); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "src", "out", "tail"); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		b, err := packet.BuildUDP4(srcA, dstA, 4000, uint16(i), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		pkts, _, _ := tail.snapshot()
		if len(pkts) >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d packets", len(pkts), n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := src.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	pkts, pushes, batches := tail.snapshot()
	if len(pkts) != n {
		t.Fatalf("delivered %d, want %d", len(pkts), n)
	}
	if pushes != 0 || batches == 0 {
		t.Fatalf("pushes=%d batches=%d, want batched delivery only", pushes, batches)
	}
	for i, p := range pkts {
		if p.View().DstPort != uint16(i) {
			t.Fatalf("frame %d out of order (port %d)", i, p.View().DstPort)
		}
	}
}

// ---------------------------------------------------------------------------
// Per-packet-exact batch error accounting (the forwardBatch contract)

var errFlaky = errors.New("test: flaky downstream")

// errBatchTarget is a batch-aware downstream returning a fixed error from
// every crossing (packets are accepted and released either way).
type errBatchTarget struct {
	*core.Base
	err error
}

func newErrBatchTarget(err error) *errBatchTarget {
	s := &errBatchTarget{Base: core.NewBase("test.ErrBatchTarget"), err: err}
	s.Provide(IPacketPushID, s)
	return s
}

func (s *errBatchTarget) Push(p *Packet) error {
	p.Release()
	return s.err
}

func (s *errBatchTarget) PushBatch(batch []*Packet) error {
	for _, p := range batch {
		p.Release()
	}
	return s.err
}

// oddPortTarget is per-packet only (no PushBatch): it fails packets with
// odd destination ports, so the ForwardBatch degradation loop must count
// exactly the odd ones.
type oddPortTarget struct {
	*core.Base
}

func newOddPortTarget() *oddPortTarget {
	s := &oddPortTarget{Base: core.NewBase("test.OddPortTarget")}
	s.Provide(IPacketPushID, s)
	return s
}

func (s *oddPortTarget) Push(p *Packet) error {
	odd := p.View().DstPort%2 == 1
	p.Release()
	if odd {
		return errFlaky
	}
	return nil
}

// TestForwardBatchErrorAccounting pins the per-packet-exact error
// cardinality of the batch path: a downstream failing k of n packets must
// cost the forwarding hop exactly k errs and n-k out — not one errs per
// crossing and not a forfeited out — and the error surfaced upstream must
// carry the same k. (The regression this guards: forwardBatch counted one
// errs per failing RUN and dropped the out increment entirely, so batched
// and per-packet traffic produced different books for identical streams.)
func TestForwardBatchErrorAccounting(t *testing.T) {
	drive := func(t *testing.T, dst core.Component, n int) (*Counter, error) {
		t.Helper()
		c := core.NewCapsule("batcherr")
		head := NewCounter()
		if err := c.Insert("head", head); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("dst", dst); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(c, "head", "out", "dst"); err != nil {
			t.Fatal(err)
		}
		batch := make([]*Packet, n)
		for i := range batch {
			batch[i] = udpPkt(t, uint16(i), 64)
		}
		return head, head.PushBatch(batch)
	}
	check := func(t *testing.T, head *Counter, err error, n, wantFailed int) {
		t.Helper()
		if got := FailedPackets(err, n); got != wantFailed {
			t.Fatalf("surfaced error says %d failed (err=%v), want %d", got, err, wantFailed)
		}
		if wantFailed > 0 {
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("error not normalised to BatchError: %T %v", err, err)
			}
			if !errors.Is(err, errFlaky) {
				t.Fatalf("underlying error lost: %v", err)
			}
		}
		st := head.ElemStats()
		if st.In != uint64(n) || st.Errors != uint64(wantFailed) || st.Out != uint64(n-wantFailed) || st.Dropped != 0 {
			t.Fatalf("head counters in=%d out=%d dropped=%d errs=%d, want in=%d out=%d errs=%d",
				st.In, st.Out, st.Dropped, st.Errors, n, n-wantFailed, wantFailed)
		}
	}

	t.Run("batch-aware partial failure", func(t *testing.T) {
		head, err := drive(t, newErrBatchTarget(&BatchError{Failed: 2, Err: errFlaky}), 8)
		check(t, head, err, 8, 2)
	})
	t.Run("plain error fails the whole batch", func(t *testing.T) {
		head, err := drive(t, newErrBatchTarget(errFlaky), 8)
		check(t, head, err, 8, 8)
	})
	t.Run("overclaimed count clamps to batch size", func(t *testing.T) {
		head, err := drive(t, newErrBatchTarget(&BatchError{Failed: 999, Err: errFlaky}), 8)
		check(t, head, err, 8, 8)
	})
	t.Run("per-packet degradation counts each failure", func(t *testing.T) {
		head, err := drive(t, newOddPortTarget(), 8) // ports 0..7: four odd
		check(t, head, err, 8, 4)
	})
	t.Run("no failures", func(t *testing.T) {
		head, err := drive(t, newErrBatchTarget(nil), 8)
		check(t, head, err, 8, 0)
	})
}

// ---------------------------------------------------------------------------
// Split by output: the demux contract of the splitting elements

// TestBatchPoolAllocatesNothing: a GetBatch/PutBatch round trip reuses the
// batch and the pool's box for it.
func TestBatchPoolAllocatesNothing(t *testing.T) {
	p := udpPkt(t, 1, 64)
	if n := testing.AllocsPerRun(1000, func() {
		b := append(GetBatch(), p)
		PutBatch(b)
	}); n != 0 {
		t.Fatalf("GetBatch+PutBatch allocates %v times per round trip", n)
	}
}

// countingSink counts crossings and packets without keeping them, so a
// push into it allocates nothing.
type countingSink struct {
	*core.Base
	calls, pkts int
}

func newCountingSink() *countingSink {
	s := &countingSink{Base: core.NewBase("test.CountingSink")}
	s.Provide(IPacketPushID, s)
	return s
}

func (s *countingSink) Push(p *Packet) error { return s.PushBatch([]*Packet{p}) }

func (s *countingSink) PushBatch(batch []*Packet) error {
	s.calls++
	s.pkts += len(batch)
	return nil
}

// scatterFixture is a splitting element with a sink component bound to
// each of the named outputs; outputs missing from sinks stay unbound.
func scatterFixture(t *testing.T, elem core.Component, sinks map[string]core.Component) {
	t.Helper()
	c := newCap()
	if err := c.Insert("elem", elem); err != nil {
		t.Fatal(err)
	}
	for out, s := range sinks {
		if err := c.Insert("sink_"+out, s); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(c, "elem", out, "sink_"+out); err != nil {
			t.Fatal(err)
		}
	}
}

// eightWayClassifier is a warm-cacheable classifier over outputs o0..o7:
// dst port 2000+i routes to o(i%8), for i < 16.
func eightWayClassifier(t *testing.T) (*Classifier, []string) {
	t.Helper()
	outs := make([]string, 8)
	for k := range outs {
		outs[k] = fmt.Sprintf("o%d", k)
	}
	cls, err := NewClassifier(outs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := cls.RegisterFilter(fmt.Sprintf("udp and dst port %d", 2000+i), 1, outs[i%8]); err != nil {
			t.Fatal(err)
		}
	}
	return cls, outs
}

// mixedPorts is a 32-packet arrival order over dst ports 2000..2015 in
// which every output of eightWayClassifier recurs and no two neighbours
// share an output: a run-splitting element would cross 32 times.
func mixedPorts() []uint16 {
	ports := make([]uint16, 32)
	for i := range ports {
		ports[i] = uint16(2000 + (i*5)%16)
	}
	return ports
}

func portsBatch(t *testing.T, ports []uint16) []*Packet {
	t.Helper()
	batch := make([]*Packet, len(ports))
	for i, port := range ports {
		batch[i] = udpPkt(t, port, 64)
	}
	return batch
}

// TestScatterClassifierOneCrossingPerOutput: a warm-cache batch of 32
// packets over 8 outputs crosses each output's binding once, every output
// receives the arrival-order subsequence of its packets, and the whole
// push allocates nothing.
func TestScatterClassifierOneCrossingPerOutput(t *testing.T) {
	ports := mixedPorts()

	cls, outs := eightWayClassifier(t)
	rec := map[string]*batchSink{}
	sinks := map[string]core.Component{}
	for _, o := range outs {
		rec[o] = newBatchSink()
		sinks[o] = rec[o]
	}
	scatterFixture(t, cls, sinks)
	if err := cls.PushBatch(portsBatch(t, ports)); err != nil {
		t.Fatal(err)
	}
	for k, o := range outs {
		var want []uint16
		for _, port := range ports {
			if int(port-2000)%8 == k {
				want = append(want, port)
			}
		}
		got, pushes, batches := rec[o].snapshot()
		if pushes != 0 || batches != 1 {
			t.Fatalf("output %s: %d pushes + %d batches, want one batch", o, pushes, batches)
		}
		if !equalPorts(dstPorts(got), want) {
			t.Fatalf("output %s got %v, want arrival order %v", o, dstPorts(got), want)
		}
	}

	cls, outs = eightWayClassifier(t)
	counters := map[string]*countingSink{}
	sinks = map[string]core.Component{}
	for _, o := range outs {
		counters[o] = newCountingSink()
		sinks[o] = counters[o]
	}
	scatterFixture(t, cls, sinks)
	batch := portsBatch(t, ports)
	if err := cls.PushBatch(batch); err != nil { // warms the verdict cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _ = cls.PushBatch(batch) }); n != 0 {
		t.Fatalf("warm-cache PushBatch allocates %v times per batch", n)
	}
	calls, pkts := 0, 0
	for _, s := range counters {
		calls, pkts = calls+s.calls, pkts+s.pkts
	}
	runs := 1 + 200 + 1 // warm-up, AllocsPerRun's own warm-up, the measured runs
	if calls > 8*runs || pkts != 32*runs {
		t.Fatalf("%d crossings for %d packets over %d batches, want <= 8 per batch", calls, pkts, runs)
	}
	if hits, _, _ := cls.FlowCache().Counters(); hits == 0 {
		t.Fatal("the measured batches never hit the verdict cache")
	}
}

// TestScatterBatchErrorsSum: a batch whose outputs fail differently
// reports the sum of every output's failures, and the classifier books
// that many errs.
func TestScatterBatchErrorsSum(t *testing.T) {
	cls, err := NewClassifier("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	scatterFixture(t, cls, map[string]core.Component{
		"a": newErrBatchTarget(&BatchError{Failed: 1, Err: errFlaky}),
		"b": newErrBatchTarget(errFlaky), // plain error: the whole crossing failed
	})
	if _, err := cls.RegisterFilter("udp and dst port 1", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cls.RegisterFilter("udp and dst port 2", 1, "b"); err != nil {
		t.Fatal(err)
	}
	err = cls.PushBatch(portsBatch(t, []uint16{1, 2, 1, 1, 2, 1, 2, 1})) // a: 5, b: 3
	if got := FailedPackets(err, 8); got != 1+3 {
		t.Fatalf("surfaced %d failed (%v), want 4", got, err)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("underlying error lost: %v", err)
	}
	if st := cls.ElemStats(); st.In != 8 || st.Errors != 4 || st.Out != 4 || st.Dropped != 0 {
		t.Fatalf("classifier books %+v, want in 8 errs 4 out 4", st)
	}
}

// TestScatterUnboundOutputsDrop: packets for an unbound output, and
// unmatched packets without a default output, are dropped and counted;
// the bound output still gets its own packets in order.
func TestScatterUnboundOutputsDrop(t *testing.T) {
	cls, err := NewClassifier("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	sa := newBatchSink()
	scatterFixture(t, cls, map[string]core.Component{"a": sa})
	if _, err := cls.RegisterFilter("udp and dst port 1", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cls.RegisterFilter("udp and dst port 2", 1, "b"); err != nil {
		t.Fatal(err)
	}
	ports := []uint16{1, 2, 9, 1, 9, 2, 1} // a: 3, b (unbound): 2, unmatched: 2
	if err := cls.PushBatch(portsBatch(t, ports)); err != nil {
		t.Fatal(err)
	}
	got, _, batches := sa.snapshot()
	if batches != 1 || !equalPorts(dstPorts(got), []uint16{1, 1, 1}) {
		t.Fatalf("output a got %v in %d batches", dstPorts(got), batches)
	}
	if st := cls.ElemStats(); st.In != 7 || st.Out != 3 || st.Dropped != 4 || st.Errors != 0 {
		t.Fatalf("classifier books %+v, want in 7 out 3 dropped 4", st)
	}
}

// TestScatterProtoRecogn: the protocol recogniser keeps the same contract
// — one crossing per version, arrival order within it, failures summed,
// unbound outputs dropped and counted, nothing allocated.
func TestScatterProtoRecogn(t *testing.T) {
	junk := func() *Packet { return NewPacket([]byte{0xff, 0, 1}) }
	mixed := func() []*Packet {
		var b []*Packet
		for i := 0; i < 32; i++ {
			switch i % 4 {
			case 0, 2:
				b = append(b, udpPkt(t, uint16(i), 64))
			case 1:
				b = append(b, udp6Pkt(t, uint8(i)))
			default:
				b = append(b, junk())
			}
		}
		return b
	}

	r := NewProtoRecogn()
	s4, s6 := newBatchSink(), newBatchSink()
	scatterFixture(t, r, map[string]core.Component{"ipv4": s4, "ipv6": s6}) // "other" unbound
	batch := mixed()
	if err := r.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    *batchSink
		pick int
	}{{s4, 0}, {s6, 1}} {
		var want []*Packet
		for i, p := range batch {
			if i%4 == tc.pick || (tc.pick == 0 && i%4 == 2) {
				want = append(want, p)
			}
		}
		got, pushes, batches := tc.s.snapshot()
		if pushes != 0 || batches != 1 || len(got) != len(want) {
			t.Fatalf("%d packets in %d pushes + %d batches, want %d in one batch", len(got), pushes, batches, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("packet %d out of arrival order", i)
			}
		}
	}
	if st := r.ElemStats(); st.In != 32 || st.Out != 24 || st.Dropped != 8 {
		t.Fatalf("recogniser books %+v, want in 32 out 24 dropped 8", st)
	}

	r = NewProtoRecogn()
	scatterFixture(t, r, map[string]core.Component{
		"ipv4": newErrBatchTarget(&BatchError{Failed: 2, Err: errFlaky}),
		"ipv6": newErrBatchTarget(errFlaky),
	})
	if got := FailedPackets(r.PushBatch(mixed()), 32); got != 2+8 {
		t.Fatalf("surfaced %d failed, want 10", got)
	}

	r = NewProtoRecogn()
	c4, c6, co := newCountingSink(), newCountingSink(), newCountingSink()
	scatterFixture(t, r, map[string]core.Component{"ipv4": c4, "ipv6": c6, "other": co})
	batch = mixed()
	if n := testing.AllocsPerRun(200, func() { _ = r.PushBatch(batch) }); n != 0 {
		t.Fatalf("PushBatch allocates %v times per batch", n)
	}
	if runs := 201; c4.calls != runs || c6.calls != runs || co.calls != runs {
		t.Fatalf("crossings per output %d/%d/%d over %d batches, want one each per batch",
			c4.calls, c6.calls, co.calls, runs)
	}
}

// TestScatterFlowCacheCountsEveryLookup: hits + misses equals the cached
// lookups exactly, with the counters settled once per batch — the
// adapt plane's HitRateBelow and the benchmark's refill probe read them.
// Batches longer than one demux chunk are included.
func TestScatterFlowCacheCountsEveryLookup(t *testing.T) {
	cls, outs := eightWayClassifier(t)
	scatterFixture(t, cls, map[string]core.Component{outs[0]: newCountingSink()})
	rng := xorshift(3)
	var total, h0, m0 uint64
	for _, n := range []int{1, 32, demuxChunk, demuxChunk + 1, 3*demuxChunk + 7} {
		ports := make([]uint16, n)
		for i := range ports {
			ports[i] = uint16(2000 + rng.next()%24) // 16 ruled ports, 8 unmatched
		}
		if err := cls.PushBatch(portsBatch(t, ports)); err != nil {
			t.Fatal(err)
		}
		total += uint64(n)
		hits, misses, _ := cls.FlowCache().Counters()
		if hits+misses != total {
			t.Fatalf("after %d lookups: hits %d + misses %d", total, hits, misses)
		}
		if misses < m0 || hits < h0 {
			t.Fatal("counters went backwards")
		}
		h0, m0 = hits, misses
	}
	if m0 > 24 {
		t.Fatalf("%d misses for 24 distinct flows in a cache that holds them all", m0)
	}
}
