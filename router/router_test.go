package router

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sync"
	"testing"

	"netkit/core"
	"netkit/internal/buffers"
	"netkit/packet"
)

var (
	srcA = netip.MustParseAddr("10.0.0.1")
	dstA = netip.MustParseAddr("192.168.9.9")
	src6 = netip.MustParseAddr("2001:db8::1")
	dst6 = netip.MustParseAddr("2001:db8::9")
)

func udpPkt(t *testing.T, dstPort uint16, ttl uint8) *Packet {
	t.Helper()
	b, err := packet.BuildUDP4(srcA, dstA, 4000, dstPort, ttl, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return NewPacket(b)
}

func udp6Pkt(t *testing.T, hop uint8) *Packet {
	t.Helper()
	b, err := packet.BuildUDP6(src6, dst6, 1, 2, hop, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewPacket(b)
}

// sink collects packets for assertions.
type sink struct {
	*core.Base
	mu   sync.Mutex
	pkts []*Packet
}

func newSink() *sink {
	s := &sink{Base: core.NewBase("test.Sink")}
	s.Provide(IPacketPushID, s)
	return s
}

func (s *sink) PushBatch(batch []*Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkts = append(s.pkts, batch...)
	return nil
}

// push1 pushes one packet as a one-element batch.
func push1(dst IPacketPush, p *Packet) error { return dst.PushBatch([]*Packet{p}) }

// pull1 pulls one packet as a one-element drain; nil means src was empty.
func pull1(src IPacketPull) *Packet {
	if got := src.PullBatch(nil, 1, math.MaxInt); len(got) == 1 {
		return got[0]
	}
	return nil
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pkts)
}

func (s *sink) last() *Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pkts) == 0 {
		return nil
	}
	return s.pkts[len(s.pkts)-1]
}

func newCap() *core.Capsule {
	return core.NewCapsule("router-test")
}

// ---- packet ---------------------------------------------------------------

func TestPacketViewCached(t *testing.T) {
	p := udpPkt(t, 53, 64)
	v1 := p.View()
	if v1.Version != 4 || v1.DstPort != 53 {
		t.Fatalf("view = %+v", v1)
	}
	v2 := p.View()
	if v1 != v2 {
		t.Fatal("view not cached")
	}
	p.InvalidateView()
	if p.View() == v1 && !p.viewOK {
		t.Fatal("invalidate did not reset")
	}
}

func TestPooledPacketRelease(t *testing.T) {
	pool := buffers.MustNewPool([]int{2048}, 4, 0)
	p, err := NewPooledPacket(pool, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 3 {
		t.Fatalf("data = %v", p.Data)
	}
	p.Release()
	if pool.Stats().Live != 0 {
		t.Fatal("buffer leaked")
	}
	p.Release() // idempotent, must not panic or double-free
	if pool.Stats().Live != 0 {
		t.Fatal("double release corrupted pool")
	}
}

// ---- simple elements ---------------------------------------------------------

func TestCounterForwards(t *testing.T) {
	c := newCap()
	cnt := NewCounter()
	s := newSink()
	if err := c.Insert("cnt", cnt); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("sink", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "cnt", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	p := udpPkt(t, 53, 64)
	if err := push1(cnt, p); err != nil {
		t.Fatal(err)
	}
	if s.count() != 1 {
		t.Fatal("not forwarded")
	}
	st := cnt.ElemStats()
	if st.In != 1 || st.Out != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if cnt.Bytes() != uint64(len(p.Data)) {
		t.Fatalf("bytes = %d", cnt.Bytes())
	}
}

func TestCounterUnboundDrops(t *testing.T) {
	cnt := NewCounter()
	if err := push1(cnt, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if st := cnt.ElemStats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDropperAbsorbs(t *testing.T) {
	d := NewDropper()
	pool := buffers.MustNewPool([]int{2048}, 4, 0)
	p, err := NewPooledPacket(pool, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := push1(d, p); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Live != 0 {
		t.Fatal("dropper leaked pooled buffer")
	}
	if st := d.ElemStats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTeeDuplicates(t *testing.T) {
	c := newCap()
	tee, err := NewTee(2)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := newSink(), newSink()
	for name, comp := range map[string]core.Component{"tee": tee, "s1": s1, "s2": s2} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(c, "tee", "out0", "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "tee", "out1", "s2"); err != nil {
		t.Fatal(err)
	}
	if err := push1(tee, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if s1.count() != 1 || s2.count() != 1 {
		t.Fatalf("tee fanout = %d/%d", s1.count(), s2.count())
	}
}

func TestTeeRefcountsPooledBuffers(t *testing.T) {
	c := newCap()
	tee, err := NewTee(2)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := NewDropper(), NewDropper()
	for name, comp := range map[string]core.Component{"tee": tee, "d1": d1, "d2": d2} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(c, "tee", "out0", "d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "tee", "out1", "d2"); err != nil {
		t.Fatal(err)
	}
	pool := buffers.MustNewPool([]int{2048}, 4, 0)
	p, err := NewPooledPacket(pool, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := push1(tee, p); err != nil {
		t.Fatal(err)
	}
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("pooled buffer leaked across tee: live=%d", live)
	}
}

// TestTeeCountsEveryFailedDelivery: a delivery an output refuses is an
// error, not an output, however many deliveries failed before it.
func TestTeeCountsEveryFailedDelivery(t *testing.T) {
	c := newCap()
	tee, err := NewTee(2)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := newErrBatchTarget(errFlaky), newErrBatchTarget(errFlaky)
	for name, comp := range map[string]core.Component{"tee": tee, "r1": r1, "r2": r2} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(c, "tee", "out0", "r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "tee", "out1", "r2"); err != nil {
		t.Fatal(err)
	}
	err = push1(tee, udpPkt(t, 1, 64))
	if !errors.Is(err, errFlaky) || FailedPackets(err, 1) != 1 {
		t.Fatalf("tee returned %v, want the refusal for its one packet", err)
	}
	if st := tee.ElemStats(); st.In != 1 || st.Out != 0 || st.Errors != 2 {
		t.Fatalf("tee books in=%d out=%d errs=%d, want 1/0/2", st.In, st.Out, st.Errors)
	}
}

func TestTeeValidation(t *testing.T) {
	if _, err := NewTee(0); err == nil {
		t.Fatal("want error")
	}
}

// ---- header processors -----------------------------------------------------------

func TestProtoRecognDemux(t *testing.T) {
	c := newCap()
	r := NewProtoRecogn()
	s4, s6, so := newSink(), newSink(), newSink()
	for name, comp := range map[string]core.Component{"r": r, "s4": s4, "s6": s6, "so": so} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	for recp, to := range map[string]string{"ipv4": "s4", "ipv6": "s6", "other": "so"} {
		if _, err := ConnectPush(c, "r", recp, to); err != nil {
			t.Fatal(err)
		}
	}
	if err := push1(r, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if err := push1(r, udp6Pkt(t, 64)); err != nil {
		t.Fatal(err)
	}
	if err := push1(r, NewPacket([]byte{0xff, 0x00})); err != nil {
		t.Fatal(err)
	}
	if s4.count() != 1 || s6.count() != 1 || so.count() != 1 {
		t.Fatalf("demux = %d/%d/%d", s4.count(), s6.count(), so.count())
	}
}

func TestIPv4ProcDecrementsTTL(t *testing.T) {
	c := newCap()
	h := NewIPv4Proc(false)
	s := newSink()
	if err := c.Insert("h", h); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("s", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "h", "out", "s"); err != nil {
		t.Fatal(err)
	}
	if err := push1(h, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	got := s.last()
	hdr, err := packet.ParseIPv4(got.Data)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.TTL != 63 {
		t.Fatalf("ttl = %d", hdr.TTL)
	}
	if err := packet.ValidateIPv4Checksum(got.Data); err != nil {
		t.Fatalf("checksum after decrement: %v", err)
	}
}

func TestIPv4ProcDropsExpired(t *testing.T) {
	c := newCap()
	h := NewIPv4Proc(false)
	s := newSink()
	if err := c.Insert("h", h); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("s", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "h", "out", "s"); err != nil {
		t.Fatal(err)
	}
	if err := push1(h, udpPkt(t, 1, 1)); err != nil { // 1 -> 0: expires
		t.Fatal(err)
	}
	if s.count() != 0 {
		t.Fatal("expired packet forwarded")
	}
	if h.TTLDrops() != 1 {
		t.Fatalf("ttl drops = %d", h.TTLDrops())
	}
}

func TestIPv4ProcValidatesChecksum(t *testing.T) {
	c := newCap()
	h := NewIPv4Proc(true)
	s := newSink()
	if err := c.Insert("h", h); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("s", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "h", "out", "s"); err != nil {
		t.Fatal(err)
	}
	p := udpPkt(t, 1, 64)
	p.Data[12] ^= 0xff // corrupt src addr
	if err := push1(h, p); err != nil {
		t.Fatal(err)
	}
	if s.count() != 0 || h.ChecksumDrops() != 1 {
		t.Fatalf("bad checksum passed: fwd=%d drops=%d", s.count(), h.ChecksumDrops())
	}
}

func TestIPv6ProcDecrementsHopLimit(t *testing.T) {
	c := newCap()
	h := NewIPv6Proc()
	s := newSink()
	if err := c.Insert("h", h); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("s", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "h", "out", "s"); err != nil {
		t.Fatal(err)
	}
	if err := push1(h, udp6Pkt(t, 5)); err != nil {
		t.Fatal(err)
	}
	hdr, err := packet.ParseIPv6(s.last().Data)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.HopLimit != 4 {
		t.Fatalf("hop = %d", hdr.HopLimit)
	}
	if err := push1(h, udp6Pkt(t, 1)); err != nil {
		t.Fatal(err)
	}
	if h.HopDrops() != 1 {
		t.Fatalf("hop drops = %d", h.HopDrops())
	}
}

func TestChecksumValidator(t *testing.T) {
	c := newCap()
	v := NewChecksumValidator()
	s := newSink()
	if err := c.Insert("v", v); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("s", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "v", "out", "s"); err != nil {
		t.Fatal(err)
	}
	if err := push1(v, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	bad := udpPkt(t, 1, 64)
	bad.Data[15] ^= 0x55
	if err := push1(v, bad); err != nil {
		t.Fatal(err)
	}
	// IPv6 passes through (no header checksum).
	if err := push1(v, udp6Pkt(t, 9)); err != nil {
		t.Fatal(err)
	}
	if s.count() != 2 {
		t.Fatalf("forwarded = %d, want 2", s.count())
	}
	if v.ElemStats().Dropped != 1 {
		t.Fatalf("dropped = %d", v.ElemStats().Dropped)
	}
}

// ---- classifier ------------------------------------------------------------------

func TestClassifierRoutesBySpec(t *testing.T) {
	c := newCap()
	cls, err := NewClassifier("dns", "web", "default")
	if err != nil {
		t.Fatal(err)
	}
	sd, sw, sdef := newSink(), newSink(), newSink()
	for name, comp := range map[string]core.Component{"cls": cls, "sd": sd, "sw": sw, "sdef": sdef} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	for recp, to := range map[string]string{"dns": "sd", "web": "sw", "default": "sdef"} {
		if _, err := ConnectPush(c, "cls", recp, to); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cls.RegisterFilter("udp and dst port 53", 10, "dns"); err != nil {
		t.Fatal(err)
	}
	if _, err := cls.RegisterFilter("tcp and dst port 80", 10, "web"); err != nil {
		t.Fatal(err)
	}

	if err := push1(cls, udpPkt(t, 53, 64)); err != nil {
		t.Fatal(err)
	}
	if err := push1(cls, udpPkt(t, 9999, 64)); err != nil {
		t.Fatal(err)
	}
	web, err := packet.BuildTCP4(srcA, dstA, 5000, 80, 64, packet.TCPSyn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := push1(cls, NewPacket(web)); err != nil {
		t.Fatal(err)
	}
	if sd.count() != 1 || sw.count() != 1 || sdef.count() != 1 {
		t.Fatalf("routing = dns:%d web:%d def:%d", sd.count(), sw.count(), sdef.count())
	}
}

func TestClassifierUnmatchedWithoutDefaultDrops(t *testing.T) {
	cls, err := NewClassifier("only")
	if err != nil {
		t.Fatal(err)
	}
	if err := push1(cls, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if cls.ElemStats().Dropped != 1 {
		t.Fatalf("dropped = %d", cls.ElemStats().Dropped)
	}
}

// TestClassifierStatsCostIndependentOfRules: the stats-tree walk and every
// adaptation tick read Classifier.Stats, so its cost must not grow with the
// filter table — 1024 rules allocate exactly what an empty table does.
func TestClassifierStatsCostIndependentOfRules(t *testing.T) {
	allocs := func(rules int) float64 {
		cls, err := NewClassifier("a")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rules; i++ {
			if _, err := cls.RegisterFilter(fmt.Sprintf("udp and dst port %d", i), 1, "a"); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() { _ = cls.Stats() })
	}
	if empty, full := allocs(0), allocs(1024); full != empty {
		t.Fatalf("Stats with 1024 rules allocates %v times, with none %v", full, empty)
	}
}

func TestClassifierRegisterToUnknownOutput(t *testing.T) {
	cls, err := NewClassifier("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cls.RegisterFilter("udp", 1, "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestClassifierUnregister(t *testing.T) {
	c := newCap()
	cls, err := NewClassifier("a", "default")
	if err != nil {
		t.Fatal(err)
	}
	sa, sdef := newSink(), newSink()
	for name, comp := range map[string]core.Component{"cls": cls, "sa": sa, "sdef": sdef} {
		if err := c.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(c, "cls", "a", "sa"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "cls", "default", "sdef"); err != nil {
		t.Fatal(err)
	}
	id, err := cls.RegisterFilter("udp", 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := push1(cls, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if err := cls.UnregisterFilter(id); err != nil {
		t.Fatal(err)
	}
	if err := push1(cls, udpPkt(t, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if sa.count() != 1 || sdef.count() != 1 {
		t.Fatalf("a=%d def=%d", sa.count(), sdef.count())
	}
}

func TestClassifierDynamicOutputs(t *testing.T) {
	cls, err := NewClassifier("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := cls.AddOutput("b"); err != nil {
		t.Fatal(err)
	}
	if err := cls.AddOutput("b"); !errors.Is(err, core.ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	if len(cls.FilterOutputs()) != 2 {
		t.Fatalf("outputs = %v", cls.FilterOutputs())
	}
	if err := cls.RemoveOutput("b"); err != nil {
		t.Fatal(err)
	}
	if err := cls.RemoveOutput("ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// ---- queues ---------------------------------------------------------------------

func TestFIFOQueuePushPull(t *testing.T) {
	q, err := NewFIFOQueue(2)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2, p3 := udpPkt(t, 1, 64), udpPkt(t, 2, 64), udpPkt(t, 3, 64)
	for _, p := range []*Packet{p1, p2, p3} {
		if err := push1(q, p); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 2 || q.ElemStats().Dropped != 1 {
		t.Fatalf("len=%d dropped=%d", q.Len(), q.ElemStats().Dropped)
	}
	if got := pull1(q); got != p1 {
		t.Fatalf("pull order broken: %v", got)
	}
	if got := pull1(q); got != p2 {
		t.Fatal("pull order broken 2")
	}
	if got := pull1(q); got != nil {
		t.Fatalf("drained queue yielded %v", got)
	}
	if q.Capacity() != 2 {
		t.Fatalf("cap = %d", q.Capacity())
	}
}

func TestFIFOQueueValidation(t *testing.T) {
	if _, err := NewFIFOQueue(0); err == nil {
		t.Fatal("want error")
	}
}

func TestREDQueueForcedDrops(t *testing.T) {
	q, err := NewREDQueue(REDConfig{
		Capacity: 16, MinTh: 4, MaxTh: 8, MaxP: 0.5, Weight: 1, // weight 1: avg == instantaneous
		Rand: func() float64 { return 1.0 }, // never early-drop
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := push1(q, udpPkt(t, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if q.ForcedDrops() == 0 {
		t.Fatal("no forced drops despite avg >= maxTh")
	}
	if q.Len() >= 16 {
		t.Fatalf("queue overfilled: %d", q.Len())
	}
}

func TestREDQueueEarlyDrops(t *testing.T) {
	q, err := NewREDQueue(REDConfig{
		Capacity: 64, MinTh: 2, MaxTh: 60, MaxP: 1.0, Weight: 1,
		Rand: func() float64 { return 0.0 }, // always early-drop once avg > minTh
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := push1(q, udpPkt(t, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if q.EarlyDrops() == 0 {
		t.Fatal("no early drops despite rand=0")
	}
}

func TestREDQueueValidation(t *testing.T) {
	bad := []REDConfig{
		{Capacity: 0, MinTh: 1, MaxTh: 2, MaxP: 0.5},
		{Capacity: 10, MinTh: 0, MaxTh: 5, MaxP: 0.5},
		{Capacity: 10, MinTh: 5, MaxTh: 4, MaxP: 0.5},
		{Capacity: 10, MinTh: 2, MaxTh: 20, MaxP: 0.5},
		{Capacity: 10, MinTh: 2, MaxTh: 8, MaxP: 0},
		{Capacity: 10, MinTh: 2, MaxTh: 8, MaxP: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewREDQueue(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestREDQueuePullOrder(t *testing.T) {
	q, err := NewREDQueue(REDConfig{Capacity: 8, MinTh: 6, MaxTh: 7, MaxP: 0.1,
		Rand: func() float64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := udpPkt(t, 1, 64), udpPkt(t, 2, 64)
	if err := push1(q, p1); err != nil {
		t.Fatal(err)
	}
	if err := push1(q, p2); err != nil {
		t.Fatal(err)
	}
	if got := pull1(q); got != p1 {
		t.Fatal("order")
	}
	if got := pull1(q); got != p2 {
		t.Fatal("order2")
	}
	if got := pull1(q); got != nil {
		t.Fatal("empty")
	}
}
