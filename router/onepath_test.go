package router

import (
	"errors"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"netkit/core"
	"netkit/packet"
)

// Tests for the single data path: every registered packet element is
// reached through one operation, PushBatch, and the two satellite defects
// the collapse rode in with (HotSwap stranding a late push, FlowHash's
// weak low bit).

// TestInterceptionSeesOneOpPerBatch binds a source to every registered
// component type that provides IPacketPush and audits that binding: each
// pushed batch must cross the chain as exactly one "PushBatch" operation,
// and PacketCount over the operations must sum to the packets pushed.
// Outputs stay unbound, so forwarding elements drop at their egress.
func TestInterceptionSeesOneOpPerBatch(t *testing.T) {
	stream := func() []*Packet {
		ps := []*Packet{
			udpPkt(t, 53, 64),
			udpPkt(t, 80, 1), // expires at a header processor
			udp6Pkt(t, 9),
			NewPacket([]byte{0xff, 0, 1}), // unparseable
		}
		bad := udpPkt(t, 53, 64)
		bad.Data[10] ^= 0xff // header checksum no longer verifies
		return append(ps, bad)
	}
	tested := 0
	for _, typ := range core.Components.Types() {
		comp, err := core.Components.New(typ, nil)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if _, ok := comp.Provided(IPacketPushID); !ok {
			continue
		}
		tested++
		c := newCap()
		src := newHoldingSource()
		if err := c.Insert("src", src); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("dut", comp); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		bind, err := ConnectPush(c, "src", "out", "dut")
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		var ops []string
		packets := 0
		if err := bind.AddInterceptor(core.Interceptor{Name: "audit", Wrap: core.PrePost(func(op string, args []any) {
			ops = append(ops, op)
			packets += PacketCount(op, args)
		}, nil)}); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		pushed := 0
		batches := [][]*Packet{stream(), stream()[:1], stream()[1:4]}
		for _, batch := range batches {
			pushed += len(batch)
			_ = src.push(batch) // the audit, not the outcome, is under test
		}
		if len(ops) != len(batches) {
			t.Errorf("%s: %d batches crossed as %d operations %v", typ, len(batches), len(ops), ops)
		}
		for _, op := range ops {
			if op != "PushBatch" {
				t.Errorf("%s: interceptor saw op %q, want PushBatch", typ, op)
			}
		}
		if packets != pushed {
			t.Errorf("%s: PacketCount sums to %d, pushed %d", typ, packets, pushed)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d registered types provide IPacketPush; the table is not covering the standard elements", tested)
	}
}

// TestInterceptionSeesOnePullPerVisit is the pull half: every registered
// component type that provides IPacketPull is drained by a LinkScheduler
// through an audited binding. Each input visit must cross the chain as
// exactly one "PullBatch" operation, PacketCount over the operations must
// sum to the packets the scheduler delivered, and idle rounds add nothing.
func TestInterceptionSeesOnePullPerVisit(t *testing.T) {
	const budget = 16
	tested := 0
	for _, typ := range core.Components.Types() {
		comp, err := core.Components.New(typ, nil)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if _, ok := comp.Provided(IPacketPullID); !ok {
			continue
		}
		tested++
		c := newCap()
		sched, err := NewLinkScheduler(PolicyDRR)
		if err != nil {
			t.Fatal(err)
		}
		// A quantum no round exhausts: a visit ends on the budget or an
		// empty source, never on credit.
		if err := sched.AddInput("in", 1<<30, 0); err != nil {
			t.Fatal(err)
		}
		out := newSink()
		for name, cm := range map[string]core.Component{"dut": comp, "sched": sched, "out": out} {
			if err := c.Insert(name, cm); err != nil {
				t.Fatalf("%s: %v", typ, err)
			}
		}
		bind, err := ConnectPull(c, "sched", "in", "dut")
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if _, err := ConnectPush(c, "sched", "out", "out"); err != nil {
			t.Fatal(err)
		}
		var ops []string
		packets := 0
		if err := bind.AddInterceptor(core.Interceptor{Name: "audit", Wrap: core.PrePost(nil, func(op string, args, results []any) {
			ops = append(ops, op)
			packets += PacketCount(op, args, results...)
		})}); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		push, _ := comp.Provided(IPacketPushID)
		for i := 0; i < 40; i++ {
			_ = push.(IPacketPush).PushBatch([]*Packet{udpPkt(t, uint16(i), 64)})
		}
		q := comp.(interface{ Len() int })
		visits := 0
		for q.Len() > 0 {
			// DRR over one input visits it once when the budget ends the
			// round, and once more to find it empty when the source does.
			if q.Len() < budget {
				visits++
			}
			visits++
			sched.RunOnce(budget)
		}
		drained := packets
		for i := 0; i < 10; i++ {
			sched.RunOnce(budget)
			visits++
		}
		if len(ops) != visits {
			t.Errorf("%s: %d input visits crossed as %d operations", typ, visits, len(ops))
		}
		for _, op := range ops {
			if op != "PullBatch" {
				t.Errorf("%s: interceptor saw op %q, want PullBatch", typ, op)
			}
		}
		if delivered := out.count(); drained != delivered || delivered == 0 {
			t.Errorf("%s: PacketCount sums to %d, scheduler delivered %d", typ, drained, delivered)
		}
		if packets != drained {
			t.Errorf("%s: ten idle rounds audited %d packets", typ, packets-drained)
		}
	}
	if tested < 2 {
		t.Fatalf("only %d registered types provide IPacketPull; the FIFO and RED queues should", tested)
	}
}

// holdingSource is a pusher that yields between loading its binding target
// and calling it — what a preempted pusher does, made certain. It is the
// window HotSwap has to survive: the target it holds may have been swapped
// out and drained by the time the call lands.
type holdingSource struct {
	*core.Base
	out *core.Receptacle[IPacketPush]
}

func newHoldingSource() *holdingSource {
	s := &holdingSource{Base: core.NewBase("test.HoldingSource")}
	s.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	s.AddReceptacle("out", s.out)
	return s
}

func (s *holdingSource) push(batch []*Packet) error {
	next, ok := s.out.Get()
	if !ok {
		return errors.New("unbound")
	}
	runtime.Gosched()
	return next.PushBatch(batch)
}

// TestHotSwapRacingPushersConserve: pushers race 200 FIFO<->RED swaps of
// the queue they feed. Every packet pushed must be accounted for in a place
// someone can still reach: summed over every queue that ever stood there,
// in == out + dropped + what the LIVE queue holds. A push landing in an
// already-drained, already-removed queue breaks that (and broke it before
// queues sealed on export).
func TestHotSwapRacingPushersConserve(t *testing.T) {
	const (
		swaps    = 200
		pushers  = 4
		capacity = 1 << 16
	)
	c := newCap()
	first, err := NewFIFOQueue(capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("q0", first); err != nil {
		t.Fatal(err)
	}
	srcs := make([]*holdingSource, pushers)
	for i := range srcs {
		srcs[i] = newHoldingSource()
		name := "src" + string(rune('0'+i))
		if err := c.Insert(name, srcs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(c, name, "out", "q0"); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := packet.BuildUDP4(srcA, dstA, 4000, 53, 64, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	var pushed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range srcs {
		wg.Add(1)
		go func(s *holdingSource) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := []*Packet{NewPacket(raw), NewPacket(raw)}
				if err := s.push(batch); err != nil {
					t.Errorf("push: %v", err)
					return
				}
				pushed.Add(uint64(len(batch)))
			}
		}(s)
	}

	type books interface {
		ElemStats() ElementStats
		Len() int
	}
	all := []books{first}
	var live books = first
	cur := "q0"
	for i := 1; i <= swaps; i++ {
		var next core.Component
		if i%2 == 1 {
			// Thresholds out of reach: RED never drops on its own account.
			red, err := NewREDQueue(REDConfig{Capacity: capacity, MinTh: capacity - 2, MaxTh: capacity - 1, MaxP: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			next, live = red, red
		} else {
			fifo, err := NewFIFOQueue(capacity)
			if err != nil {
				t.Fatal(err)
			}
			next, live = fifo, fifo
		}
		all = append(all, live)
		name := "q" + string(rune('0'+i%2))
		if err := HotSwap(c, cur, name, next); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		cur = name
		runtime.Gosched() // let a pusher load the new target, and hold it
	}
	close(stop)
	wg.Wait()

	var in, out, dropped uint64
	for _, q := range all {
		st := q.ElemStats()
		in, out, dropped = in+st.In, out+st.Out, dropped+st.Dropped
	}
	queued := uint64(live.Len())
	if in != out+dropped+queued {
		t.Fatalf("stranded packets: in %d != out %d + dropped %d + queued %d (short by %d)",
			in, out, dropped, queued, in-out-dropped-queued)
	}
	if got := pushed.Load(); got != queued+dropped {
		t.Fatalf("pushed %d, but live queue holds %d and %d were dropped", got, queued, dropped)
	}
}

// TestFlowShardBalanceSteppedPorts: flows whose source port counts in step with their
// source address — the shape of a load generator's flow table — must still
// spread over the lanes. Bare FNV-1a put all of them on one of two.
func TestFlowShardBalanceSteppedPorts(t *testing.T) {
	const flows = 4096
	dst := netip.AddrFrom4([4]byte{10, 9, 0, 1})
	pkts := make([]*Packet, flows)
	for f := range pkts {
		src := netip.AddrFrom4([4]byte{10, 0, byte(f >> 8), byte(f)})
		raw, err := packet.BuildUDP4(src, dst, uint16(1024+f), 9, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		pkts[f] = NewPacket(raw)
	}
	for _, tc := range []struct {
		lanes  int
		lo, hi float64 // share of the flows allowed on any one lane
	}{
		{2, 0.40, 0.60},
		{3, 0.75 / 3, 1.25 / 3},
		{4, 0.75 / 4, 1.25 / 4},
	} {
		count := make([]int, tc.lanes)
		for _, p := range pkts {
			count[FlowShard(p, tc.lanes)]++
		}
		for lane, n := range count {
			if share := float64(n) / flows; share < tc.lo || share > tc.hi {
				t.Errorf("%d lanes: lane %d carries %.1f%% of the flows, want %.0f%%..%.0f%% (%v)",
					tc.lanes, lane, 100*share, 100*tc.lo, 100*tc.hi, count)
			}
		}
	}
}
