package router

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"netkit/core"
	"netkit/packet"
)

func fillQueue(t *testing.T, q *FIFOQueue, n, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b, err := packet.BuildUDP4(srcA, dstA, 1, 2, 64, make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Push(NewPacket(b)); err != nil {
			t.Fatal(err)
		}
	}
}

func schedFixture(t *testing.T, policy SchedPolicy, quanta map[string]int, prios map[string]int) (*core.Capsule, *LinkScheduler, map[string]*FIFOQueue, *sink) {
	t.Helper()
	c := newCap()
	s, err := NewLinkScheduler(policy)
	if err != nil {
		t.Fatal(err)
	}
	out := newSink()
	if err := c.Insert("sched", s); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("out", out); err != nil {
		t.Fatal(err)
	}
	queues := make(map[string]*FIFOQueue)
	for name, q := range quanta {
		queue, err := NewFIFOQueue(4096)
		if err != nil {
			t.Fatal(err)
		}
		queues[name] = queue
		if err := c.Insert(name, queue); err != nil {
			t.Fatal(err)
		}
		if err := s.AddInput(name, q, prios[name]); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPull(c, "sched", name, name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(c, "sched", "out", "out"); err != nil {
		t.Fatal(err)
	}
	return c, s, queues, out
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewLinkScheduler("bogus"); err == nil {
		t.Fatal("want error for bad policy")
	}
	s, err := NewLinkScheduler(PolicyDRR)
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy() != PolicyDRR {
		t.Fatal("policy")
	}
	if err := s.AddInput("", 1, 1); err == nil {
		t.Fatal("want error for empty input")
	}
	if err := s.AddInput("a", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInput("a", 100, 1); !errors.Is(err, core.ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	if got := s.Inputs(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("inputs = %v", got)
	}
	if err := s.RemoveInput("ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := s.RemoveInput("a"); err != nil {
		t.Fatal(err)
	}
	if s.RunOnce(0) != 0 {
		t.Fatal("zero budget should serve nothing")
	}
	if s.RunOnce(10) != 0 {
		t.Fatal("no inputs should serve nothing")
	}
}

func TestDRRProportionalBytes(t *testing.T) {
	// Two queues with equal packet sizes; quanta 3000 vs 1000 should yield
	// roughly 3:1 service in packets.
	_, s, queues, out := schedFixture(t, PolicyDRR,
		map[string]int{"qa": 3000, "qb": 1000},
		map[string]int{"qa": 0, "qb": 0})
	fillQueue(t, queues["qa"], 1000, 472) // 500-byte IP packets
	fillQueue(t, queues["qb"], 1000, 472)
	served := s.RunOnce(400)
	if served != 400 {
		t.Fatalf("served = %d", served)
	}
	if out.count() != 400 {
		t.Fatalf("out = %d", out.count())
	}
	// Count which queue the packets were pulled from via remaining depth.
	tookA := 1000 - queues["qa"].Len()
	tookB := 1000 - queues["qb"].Len()
	ratio := float64(tookA) / float64(tookB)
	if ratio < 2.2 || ratio > 3.8 {
		t.Fatalf("DRR ratio = %f (a=%d b=%d), want ~3", ratio, tookA, tookB)
	}
}

func TestDRRLargePacketsDebtCarrying(t *testing.T) {
	// Packets larger than the quantum must still be served (debt carrying),
	// just less often.
	_, s, queues, _ := schedFixture(t, PolicyDRR,
		map[string]int{"qa": 100}, map[string]int{"qa": 0})
	fillQueue(t, queues["qa"], 10, 1452) // 1480-byte packets >> quantum
	served := s.RunOnce(100)
	if served != 10 {
		t.Fatalf("served = %d, want all 10 despite quantum deficit", served)
	}
}

// TestDRRResetsDeficitWhenQueueEmpties: classic DRR — a queue that runs dry
// with credit left forfeits it, while one stopped by the round's budget
// keeps what it has.
func TestDRRResetsDeficitWhenQueueEmpties(t *testing.T) {
	_, s, queues, _ := schedFixture(t, PolicyDRR,
		map[string]int{"qa": 1500}, map[string]int{"qa": 0})
	fillQueue(t, queues["qa"], 3, 72) // 100-byte packets
	if served := s.RunOnce(2); served != 2 || s.inputs[0].deficit != 1300 {
		t.Fatalf("budget-stopped round: served %d, deficit %d, want 2 and 1300", served, s.inputs[0].deficit)
	}
	if served := s.RunOnce(10); served != 1 || s.inputs[0].deficit != 0 {
		t.Fatalf("drained round: served %d, deficit %d, want 1 and 0", served, s.inputs[0].deficit)
	}
}

func TestStrictPriorityStarvation(t *testing.T) {
	_, s, queues, _ := schedFixture(t, PolicyStrict,
		map[string]int{"hi": 1500, "lo": 1500},
		map[string]int{"hi": 10, "lo": 1})
	fillQueue(t, queues["hi"], 50, 100)
	fillQueue(t, queues["lo"], 50, 100)
	s.RunOnce(50)
	if took := 50 - queues["hi"].Len(); took != 50 {
		t.Fatalf("high-priority served %d of 50", took)
	}
	if took := 50 - queues["lo"].Len(); took != 0 {
		t.Fatalf("low-priority served %d, want starved 0", took)
	}
}

func TestRRAlternates(t *testing.T) {
	_, s, queues, _ := schedFixture(t, PolicyRR,
		map[string]int{"qa": 1500, "qb": 1500},
		map[string]int{"qa": 0, "qb": 0})
	fillQueue(t, queues["qa"], 10, 100)
	fillQueue(t, queues["qb"], 10, 100)
	s.RunOnce(10)
	tookA, tookB := 10-queues["qa"].Len(), 10-queues["qb"].Len()
	if tookA != 5 || tookB != 5 {
		t.Fatalf("RR split = %d/%d, want 5/5", tookA, tookB)
	}
}

func TestSchedulerEmptyQueuesServeZero(t *testing.T) {
	_, s, _, _ := schedFixture(t, PolicyDRR,
		map[string]int{"qa": 1500}, map[string]int{"qa": 0})
	if served := s.RunOnce(10); served != 0 {
		t.Fatalf("served = %d from empty queue", served)
	}
}

func TestSchedulerPumpLifecycle(t *testing.T) {
	_, s, queues, out := schedFixture(t, PolicyDRR,
		map[string]int{"qa": 1500}, map[string]int{"qa": 0})
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
	fillQueue(t, queues["qa"], 20, 100)
	deadline := time.After(2 * time.Second)
	for out.count() < 20 {
		select {
		case <-deadline:
			t.Fatalf("pump forwarded %d of 20", out.count())
		case <-time.After(time.Millisecond):
		}
	}
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestSchedulerRemoveBoundInputRefused(t *testing.T) {
	_, s, _, _ := schedFixture(t, PolicyDRR,
		map[string]int{"qa": 1500}, map[string]int{"qa": 0})
	if err := s.RemoveInput("qa"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Fatalf("want ErrAlreadyBound, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// The idle pump's doorbell and the credit pull

// pullOnly hides a source's batch pull and doorbell: a per-packet-only
// IPacketPull plug-in.
type pullOnly struct {
	*core.Base
	src IPacketPull
}

func newPullOnly(src IPacketPull) *pullOnly {
	p := &pullOnly{Base: core.NewBase("test.PullOnly"), src: src}
	p.Provide(IPacketPullID, p)
	return p
}

func (p *pullOnly) Pull() (*Packet, error) { return p.src.Pull() }

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// belled reports whether q has a doorbell registered.
func belled(q *queueCore) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bell != nil
}

func schedStat(s *LinkScheduler, name string) float64 {
	for _, st := range s.Stats() {
		if st.Name == name {
			return st.Value
		}
	}
	return -1
}

// sleepyScheduler is a started DRR scheduler whose fallback timer is an
// hour away, serving the named queues (all bound, DRR quantum in bytes)
// into a sink. Any wake-up within a test's lifetime is the doorbell's.
func sleepyScheduler(t *testing.T, quantum int, queues map[string]core.Component) (*core.Capsule, *LinkScheduler, *sink) {
	t.Helper()
	c := newCap()
	s, err := NewLinkScheduler(PolicyDRR)
	if err != nil {
		t.Fatal(err)
	}
	out := newSink()
	if err := c.Insert("sched", s); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("out", out); err != nil {
		t.Fatal(err)
	}
	for name, q := range queues {
		if err := c.Insert(name, q); err != nil {
			t.Fatal(err)
		}
		if err := s.AddInput("in_"+name, quantum, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPull(c, "sched", "in_"+name, name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(c, "sched", "out", "out"); err != nil {
		t.Fatal(err)
	}
	s.fallback = time.Hour
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Stop(context.Background()) })
	return c, s, out
}

// TestSchedulerDoorbellWakesIdlePump: an idle pump is woken by a FIFO and
// by a RED input turning non-empty, never by its timer.
func TestSchedulerDoorbellWakesIdlePump(t *testing.T) {
	fifo, err := NewFIFOQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	red, err := NewREDQueue(REDConfig{Capacity: 64, MinTh: 16, MaxTh: 48, MaxP: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	_, s, out := sleepyScheduler(t, 1500, map[string]core.Component{"fifo": fifo, "red": red})
	waitFor(t, "the idle pump to register its doorbell", func() bool {
		return belled(&fifo.queueCore) && belled(&red.queueCore)
	})
	if err := fifo.Push(udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the FIFO packet", func() bool { return out.count() == 1 })
	if err := red.Push(udpPkt(t, 2, 64)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the RED packet", func() bool { return out.count() == 2 })
	if w := schedStat(s, "sched_timer_wakes"); w != 0 {
		t.Fatalf("sched_timer_wakes = %v, want 0", w)
	}
	if w := schedStat(s, "sched_doorbell_wakes"); w < 2 {
		t.Fatalf("sched_doorbell_wakes = %v, want >= 2", w)
	}
}

// TestSchedulerDoorbellRingsOnRegister: a queue that already holds packets
// when the doorbell is registered rings at once — the packet that landed
// between a round finding the queue empty and the pump registering.
func TestSchedulerDoorbellRingsOnRegister(t *testing.T) {
	_, s, queues, _ := schedFixture(t, PolicyDRR, map[string]int{"qa": 1500}, map[string]int{"qa": 0})
	fillQueue(t, queues["qa"], 1, 100)
	s.armBells()
	select {
	case <-s.bell:
	default:
		t.Fatal("registering with a non-empty queue did not ring")
	}
}

// TestSchedulerDoorbellDebtDoesNotStall: an input carrying DRR debt beside
// an empty one is served in the same round. A round that ended with the
// debtor's packets still queued would leave the pump asleep with no edge
// left to ring.
func TestSchedulerDoorbellDebtDoesNotStall(t *testing.T) {
	a, err := NewFIFOQueue(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFIFOQueue(8)
	if err != nil {
		t.Fatal(err)
	}
	_, s, out := sleepyScheduler(t, 100, map[string]core.Component{"a": a, "b": b})
	waitFor(t, "the idle pump to register its doorbell", func() bool {
		return belled(&a.queueCore) && belled(&b.queueCore)
	})
	batch := make([]*Packet, 3)
	for i := range batch {
		raw, err := packet.BuildUDP4(srcA, dstA, 1, 2, 64, make([]byte, 1452)) // 1480 bytes: 15 quanta
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = NewPacket(raw)
	}
	if err := a.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all three oversized packets", func() bool { return out.count() == 3 })
	if w := schedStat(s, "sched_timer_wakes"); w != 0 {
		t.Fatalf("sched_timer_wakes = %v, want 0", w)
	}
}

// TestSchedulerDoorbellFollowsHotSwap: a queue swapped in while the pump
// sleeps inherits the doorbell, FIFO to RED and back.
func TestSchedulerDoorbellFollowsHotSwap(t *testing.T) {
	first, err := NewFIFOQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	c, s, out := sleepyScheduler(t, 1500, map[string]core.Component{"q0": first})
	waitFor(t, "the idle pump to register its doorbell", func() bool { return belled(&first.queueCore) })
	red, err := NewREDQueue(REDConfig{Capacity: 64, MinTh: 16, MaxTh: 48, MaxP: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := NewFIFOQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	cur := "q0"
	for i, next := range []IPacketPush{red, fifo} {
		name := fmt.Sprintf("q%d", i+1)
		if err := HotSwap(c, cur, name, next.(core.Component)); err != nil {
			t.Fatal(err)
		}
		cur = name
		if err := next.Push(udpPkt(t, uint16(i), 64)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("the packet pushed into swap %d's replacement", i+1),
			func() bool { return out.count() == i+1 })
	}
	if w := schedStat(s, "sched_timer_wakes"); w != 0 {
		t.Fatalf("sched_timer_wakes = %v, want 0", w)
	}
}

// TestSchedulerDoorbellNoLostWakeup: pushers keep hitting the empty to
// non-empty edge while the pump keeps draining and parking. A wake-up lost
// in that race would strand packets for the hour-long fallback.
func TestSchedulerDoorbellNoLostWakeup(t *testing.T) {
	const pushers, perPusher = 4, 2000
	queues := map[string]core.Component{}
	fifos := make([]*FIFOQueue, pushers)
	for i := range fifos {
		q, err := NewFIFOQueue(perPusher)
		if err != nil {
			t.Fatal(err)
		}
		fifos[i] = q
		queues[fmt.Sprintf("q%d", i)] = q
	}
	_, s, out := sleepyScheduler(t, 1500, queues)
	raw, err := packet.BuildUDP4(srcA, dstA, 4000, 53, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, q := range fifos {
		wg.Add(1)
		go func(q *FIFOQueue, seed uint64) {
			defer wg.Done()
			rng := xorshift(seed)
			for sent := 0; sent < perPusher; {
				n := min(1+int(rng.next()%3), perPusher-sent)
				batch := make([]*Packet, n)
				for k := range batch {
					batch[k] = NewPacket(raw)
				}
				if err := q.PushBatch(batch); err != nil {
					t.Error(err)
					return
				}
				sent += n
				if rng.next()%4 == 0 {
					time.Sleep(time.Duration(rng.next()%20) * time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
		}(q, uint64(i+1))
	}
	wg.Wait()
	waitFor(t, "every packet to be delivered", func() bool { return out.count() == pushers*perPusher })
	if w := schedStat(s, "sched_timer_wakes"); w != 0 {
		t.Fatalf("sched_timer_wakes = %v, want 0", w)
	}
	for i, q := range fifos {
		if st := q.ElemStats(); st.Dropped != 0 {
			t.Fatalf("queue %d dropped %d", i, st.Dropped)
		}
	}
}

// TestSchedulerDoorbellFallbackTimer: sources that cannot ring — a
// per-packet-only plug-in, an intercepted pull binding — are still served,
// by the fallback timer.
func TestSchedulerDoorbellFallbackTimer(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire func(t *testing.T, c *core.Capsule, q *FIFOQueue)
	}{
		{"per-packet", func(t *testing.T, c *core.Capsule, q *FIFOQueue) {
			if err := c.Insert("src", newPullOnly(q)); err != nil {
				t.Fatal(err)
			}
			if _, err := ConnectPull(c, "sched", "in", "src"); err != nil {
				t.Fatal(err)
			}
		}},
		{"intercepted", func(t *testing.T, c *core.Capsule, q *FIFOQueue) {
			b, err := ConnectPull(c, "sched", "in", "q")
			if err != nil {
				t.Fatal(err)
			}
			if err := b.AddInterceptor(core.Interceptor{Name: "pass", Wrap: core.PrePost(nil, nil)}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCap()
			s, err := NewLinkScheduler(PolicyDRR)
			if err != nil {
				t.Fatal(err)
			}
			q, err := NewFIFOQueue(64)
			if err != nil {
				t.Fatal(err)
			}
			out := newSink()
			for name, comp := range map[string]core.Component{"sched": s, "q": q, "out": out} {
				if err := c.Insert(name, comp); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.AddInput("in", 1500, 0); err != nil {
				t.Fatal(err)
			}
			tc.wire(t, c, q)
			if _, err := ConnectPush(c, "sched", "out", "out"); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer s.Stop(context.Background())
			waitFor(t, "an idle sleep to time out", func() bool { return schedStat(s, "sched_timer_wakes") > 0 })
			fillQueue(t, q, 5, 100)
			waitFor(t, "the packets", func() bool { return out.count() == 5 })
			if belled(&q.queueCore) {
				t.Fatal("a source behind a non-ringing binding was handed the doorbell")
			}
		})
	}
}

// TestSchedulerCreditPullEquivalence: for every discipline, over random
// packet sizes (many larger than the smallest quantum, so DRR carries
// debt), the emission order and the DRR deficits after every round are the
// same whether the scheduler drains its queues by batch pull, through a
// per-packet-only wrapper, or through intercepted pull bindings.
func TestSchedulerCreditPullEquivalence(t *testing.T) {
	const perQueue = 60
	quanta := []int{300, 700, 1500}
	type trace struct {
		order    []uint16
		deficits [][]int
	}
	run := func(t *testing.T, policy SchedPolicy, via string) trace {
		c := newCap()
		s, err := NewLinkScheduler(policy)
		if err != nil {
			t.Fatal(err)
		}
		out := newSink()
		if err := c.Insert("sched", s); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("out", out); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(c, "sched", "out", "out"); err != nil {
			t.Fatal(err)
		}
		rng := xorshift(11)
		for i, quantum := range quanta {
			q, err := NewFIFOQueue(perQueue)
			if err != nil {
				t.Fatal(err)
			}
			qname, in := fmt.Sprintf("q%d", i), fmt.Sprintf("in%d", i)
			if err := c.Insert(qname, q); err != nil {
				t.Fatal(err)
			}
			if err := s.AddInput(in, quantum, i%2); err != nil {
				t.Fatal(err)
			}
			src := qname
			if via == "per-packet" {
				src = "w" + qname
				if err := c.Insert(src, newPullOnly(q)); err != nil {
					t.Fatal(err)
				}
			}
			b, err := ConnectPull(c, "sched", in, src)
			if err != nil {
				t.Fatal(err)
			}
			if via == "intercepted" {
				if err := b.AddInterceptor(core.Interceptor{Name: "pass", Wrap: core.PrePost(nil, nil)}); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < perQueue; k++ {
				raw, err := packet.BuildUDP4(srcA, dstA, 4000, uint16(i*perQueue+k), 64,
					make([]byte, rng.next()%1800))
				if err != nil {
					t.Fatal(err)
				}
				if err := q.Push(NewPacket(raw)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var tr trace
		for out.count() < len(quanta)*perQueue {
			if s.RunOnce(1+int(rng.next()%20)) == 0 {
				t.Fatalf("%s/%s: a round served nothing with %d packets left",
					policy, via, len(quanta)*perQueue-out.count())
			}
			d := make([]int, len(s.inputs))
			for i, in := range s.inputs {
				d[i] = in.deficit
			}
			tr.deficits = append(tr.deficits, d)
		}
		tr.order = dstPorts(out.pkts)
		return tr
	}
	for _, policy := range []SchedPolicy{PolicyDRR, PolicyRR, PolicyStrict} {
		want := run(t, policy, "queue")
		for _, via := range []string{"per-packet", "intercepted"} {
			got := run(t, policy, via)
			if !equalPorts(got.order, want.order) {
				t.Fatalf("%s via %s: emission order diverged\nbatch pull %v\n%-10s %v",
					policy, via, want.order, via, got.order)
			}
			if fmt.Sprint(got.deficits) != fmt.Sprint(want.deficits) {
				t.Fatalf("%s via %s: deficits diverged\nbatch pull %v\n%-10s %v",
					policy, via, want.deficits, via, got.deficits)
			}
		}
	}
}
