package router

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"netkit/core"
	"netkit/internal/filter"
	"netkit/packet"
)

// srcSink counts the packets it receives by UDP source port.
type srcSink struct {
	*core.Base
	mu  sync.Mutex
	got map[uint16]int
}

func newSrcSink() *srcSink {
	s := &srcSink{Base: core.NewBase("test.SrcSink"), got: map[uint16]int{}}
	s.Provide(IPacketPushID, s)
	return s
}

func (s *srcSink) PushBatch(batch []*Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range batch {
		s.got[p.View().SrcPort]++
	}
	return nil
}

func (s *srcSink) count(src uint16) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got[src]
}

// markedBatch is n packets from source port src to destination port dst.
func markedBatch(t *testing.T, n int, src, dst uint16) []*Packet {
	t.Helper()
	batch := make([]*Packet, n)
	for i := range batch {
		b, err := packet.BuildUDP4(srcA, dstA, src, dst, 64, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = NewPacket(b)
	}
	return batch
}

// TestClassifierOutputChurnUnderTraffic removes and re-adds an output that
// rules name while other traffic flows. Its packets drop while it is gone
// and arrive again once it is back, and every batch pushed after a change
// is routed by a route table built for the output set it saw.
func TestClassifierOutputChurnUnderTraffic(t *testing.T) {
	c := newCap()
	cls, err := NewClassifier("a", "b", "default")
	if err != nil {
		t.Fatal(err)
	}
	sa, sb, sd := newSrcSink(), newSrcSink(), newSrcSink()
	for name, comp := range map[string]core.Component{"cls": cls, "sa": sa, "sb": sb, "sd": sd} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	bindA := func() *core.Binding {
		b, err := ConnectPush(c, "cls", "a", "sa")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ba := bindA()
	for out, to := range map[string]string{"b": "sb", "default": "sd"} {
		if _, err := ConnectPush(c, "cls", out, to); err != nil {
			t.Fatal(err)
		}
	}
	for port, out := range map[int]string{1: "a", 2: "b", 3: "default"} {
		if _, err := cls.RegisterFilter(fmt.Sprintf("udp and dst port %d", port), 1, out); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var pushed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // background traffic to every output, from source port 4000
		defer wg.Done()
		for !stop.Load() {
			batch := portsBatch(t, []uint16{1, 2, 3, 4, 1, 2})
			_ = cls.PushBatch(batch)
			pushed.Add(1)
		}
	}()

	const rounds, per = 20, 8
	for r := 0; r < rounds; r++ {
		for seen := pushed.Load(); pushed.Load() == seen; { // traffic flows between changes
			runtime.Gosched()
		}
		gone, back := uint16(10000+2*r), uint16(10001+2*r)
		if err := c.Unbind(ba.ID()); err != nil {
			t.Fatal(err)
		}
		if err := cls.RemoveOutput("a"); err != nil {
			t.Fatal(err)
		}
		dropped := cls.dropped.Load()
		if err := cls.PushBatch(markedBatch(t, per, gone, 1)); err != nil {
			t.Fatal(err)
		}
		if n := sa.count(gone); n != 0 {
			t.Fatalf("round %d: %d packets reached the removed output", r, n)
		}
		if d := cls.dropped.Load() - dropped; d < per {
			t.Fatalf("round %d: %d drops while the output was gone, want >= %d", r, d, per)
		}
		if err := cls.AddOutput("a"); err != nil {
			t.Fatal(err)
		}
		ba = bindA()
		if err := cls.PushBatch(markedBatch(t, per, back, 1)); err != nil {
			t.Fatal(err)
		}
		if n := sa.count(back); n != per {
			t.Fatalf("round %d: %d of %d packets arrived after the output came back", r, n, per)
		}
		if sd.count(gone)+sd.count(back)+sb.count(gone)+sb.count(back) != 0 {
			t.Fatalf("round %d: marked packets leaked to another output", r)
		}
	}
	stop.Store(true)
	wg.Wait()
	if sb.count(4000) == 0 || sd.count(4000) == 0 {
		t.Fatal("background traffic never reached its outputs")
	}
	// A batch racing a change may store a table for the output set it
	// loaded; the next batch sees the mismatch and rebuilds.
	if err := cls.PushBatch(markedBatch(t, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if rt := cls.routes.Load(); rt.outs != cls.snap.Load() || rt.rules != cls.table.Snapshot() {
		t.Fatal("the route table in use was built for other snapshots")
	}
}

// TestClassifierManyOutputs: a classifier over 300 outputs routes each
// rule's packets to its own output, so no slot array caps the fan-out.
func TestClassifierManyOutputs(t *testing.T) {
	const n = 300
	outs := make([]string, n)
	for i := range outs {
		outs[i] = fmt.Sprintf("o%d", i)
	}
	cls, err := NewClassifier(outs...)
	if err != nil {
		t.Fatal(err)
	}
	sinks := map[string]core.Component{}
	rec := make([]*srcSink, n)
	for i, o := range outs {
		rec[i] = newSrcSink()
		sinks[o] = rec[i]
		if _, err := cls.RegisterFilter(fmt.Sprintf("udp and dst port %d", 1000+i), 1, o); err != nil {
			t.Fatal(err)
		}
	}
	scatterFixture(t, cls, sinks)
	for round := 0; round < 2; round++ { // cold, then through the verdict cache
		for lo := 0; lo < n; lo += 100 {
			var batch []*Packet
			for i := lo; i < lo+100; i++ {
				batch = append(batch, markedBatch(t, 1, uint16(i), uint16(1000+i))...)
			}
			if err := cls.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range rec {
		if got := s.count(uint16(i)); got != 2 {
			t.Fatalf("output o%d received %d of its 2 packets", i, got)
		}
	}
}

// TestFlowCacheViewRoundTrip: ProbeView returns the output and match that
// InsertView stored for a flow, under the generation it was stored at.
func TestFlowCacheViewRoundTrip(t *testing.T) {
	fc := NewFlowCache(64)
	views := make([]filter.View, 3)
	for i := range views {
		views[i] = filter.Extract(markedBatch(t, 1, uint16(i), 53)[0].Data)
	}
	fc.InsertView(1, &views[0], 7, "alpha", true)
	fc.InsertView(2, &views[1], 7, "beta", true)
	fc.InsertView(3, &views[2], 7, "", false)
	for i, want := range []struct {
		out     string
		matched bool
	}{{"alpha", true}, {"beta", true}, {"", false}} {
		out, matched, hit := fc.ProbeView(uint32(i+1), &views[i], 7)
		if !hit || out != want.out || matched != want.matched {
			t.Fatalf("flow %d: (%q, %v, hit %v), want (%q, %v, hit)", i, out, matched, hit, want.out, want.matched)
		}
	}
	if _, _, hit := fc.ProbeView(1, &views[0], 8); hit {
		t.Fatal("a probe under another generation hit")
	}
	fc.InsertView(1, &views[0], 8, "beta", true)
	if out, _, hit := fc.ProbeView(1, &views[0], 8); !hit || out != "beta" {
		t.Fatalf("refreshed flow: (%q, hit %v), want beta", out, hit)
	}
}
