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

// Tests for the single data path: Push is PushBatch of one on every
// registered packet element, and the two satellite defects the collapse
// rode in with (HotSwap stranding a late push, FlowHash's weak low bit).

// TestPushIsBatchOfOne drives every registered component type that provides
// IPacketPush twice — once through Push, once through one-packet batches —
// and requires identical stats. Outputs stay unbound: forwarding elements
// then drop at their egress, which exercises the same accounting.
func TestPushIsBatchOfOne(t *testing.T) {
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
		build := func() (core.Component, IPacketPush) {
			comp, err := core.Components.New(typ, nil)
			if err != nil {
				t.Fatalf("%s: %v", typ, err)
			}
			impl, ok := comp.Provided(IPacketPushID)
			if !ok {
				return comp, nil
			}
			return comp, impl.(IPacketPush)
		}
		perComp, per := build()
		batComp, bat := build()
		if per == nil {
			continue
		}
		tested++
		for _, p := range stream() {
			if err := per.Push(p); err != nil {
				t.Fatalf("%s: Push: %v", typ, err)
			}
		}
		for _, p := range stream() {
			if err := ForwardBatch(bat, []*Packet{p}); err != nil {
				t.Fatalf("%s: PushBatch: %v", typ, err)
			}
		}
		ps, bs := statMap(perComp), statMap(batComp)
		if len(ps) == 0 {
			t.Fatalf("%s: no stats", typ)
		}
		for name, want := range ps {
			if bs[name] != want {
				t.Errorf("%s stat %q: Push %v, PushBatch of one %v", typ, name, want, bs[name])
			}
		}
	}
	if tested < 10 {
		t.Fatalf("only %d registered types provide IPacketPush; the table is not covering the standard elements", tested)
	}
}

// TestPushUnwrapsBatchError: a per-packet caller sees the downstream's own
// error, not the BatchError the batch path accounts with.
func TestPushUnwrapsBatchError(t *testing.T) {
	c := newCap()
	cnt := NewCounter()
	if err := c.Insert("cnt", cnt); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("bad", newErrBatchTarget(errFlaky)); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "cnt", "out", "bad"); err != nil {
		t.Fatal(err)
	}
	if err := cnt.Push(udpPkt(t, 53, 64)); err != errFlaky {
		t.Fatalf("Push returned %v (%T), want the bare downstream error", err, err)
	}
	var be *BatchError
	if err := cnt.PushBatch([]*Packet{udpPkt(t, 53, 64)}); !errors.As(err, &be) || be.Failed != 1 {
		t.Fatalf("PushBatch returned %v, want a BatchError for 1 packet", err)
	}
	if st := cnt.ElemStats(); st.In != 2 || st.Errors != 2 || st.Out != 0 {
		t.Fatalf("counter books %+v, want in 2 errs 2", st)
	}
}

// TestPushAdapterAllocatesNothing pins the adapter's steady state.
func TestPushAdapterAllocatesNothing(t *testing.T) {
	cnt := NewCounter()
	p := udpPkt(t, 53, 64)
	if n := testing.AllocsPerRun(1000, func() { _ = cnt.Push(p) }); n != 0 {
		t.Fatalf("Push into an unbound Counter allocates %v times per call", n)
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
	return ForwardBatch(next, batch)
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
