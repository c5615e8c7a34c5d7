package adapt

import (
	"context"
	"encoding/binary"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netkit/cf"
	"netkit/core"
	"netkit/internal/netsim"
	"netkit/internal/trace"
	"netkit/packet"
	"netkit/router"
)

// mkUDP builds one UDP/IPv4 packet whose payload carries (flow, seq) for
// the ordering checks.
func mkUDP(t testing.TB, flow uint16, seq uint32) []byte {
	t.Helper()
	payload := make([]byte, 6)
	binary.BigEndian.PutUint16(payload[0:2], flow)
	binary.BigEndian.PutUint32(payload[2:6], seq)
	b, err := packet.BuildUDP4(
		netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		netip.AddrFrom4([4]byte{10, 9, byte(flow >> 8), byte(flow)}),
		uint16(1024+flow), uint16(2000+flow), 64, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seqSink terminates a pipeline, recording per-flow delivery order.
type seqSink struct {
	*core.Base
	mu    sync.Mutex
	next  map[uint16]uint32
	count uint64
	bad   int
}

func newSeqSink() *seqSink {
	s := &seqSink{Base: core.NewBase("test.seqSink"), next: make(map[uint16]uint32)}
	s.Provide(router.IPacketPushID, s)
	return s
}

func (s *seqSink) PushBatch(batch []*router.Packet) error {
	s.mu.Lock()
	for _, p := range batch {
		if data := p.Data; len(data) >= 34 {
			flow := binary.BigEndian.Uint16(data[28:30])
			seq := binary.BigEndian.Uint32(data[30:34])
			if s.next[flow] != seq {
				s.bad++
			}
			s.next[flow] = seq + 1
		}
		s.count++
	}
	s.mu.Unlock()
	for _, p := range batch {
		p.Release()
	}
	return nil
}

// push1 pushes one packet as a one-element batch.
func push1(dst router.IPacketPush, p *router.Packet) error {
	return dst.PushBatch([]*router.Packet{p})
}

func (s *seqSink) totals() (count uint64, bad int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, s.bad
}

// waitTick blocks until the engine has taken its baseline and at least n
// ticks, so delta conditions observe subsequent events.
func waitTick(t *testing.T, eng *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Ticks() < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at %d ticks", eng.Ticks())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFiring blocks until the named rule fires or the deadline passes.
func waitFiring(t *testing.T, ch <-chan Firing, rule string, d time.Duration) Firing {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case f := <-ch:
			if f.Err != "" {
				t.Fatalf("rule %s fired with error: %s", f.Rule, f.Err)
			}
			if f.Rule == rule {
				return f
			}
		case <-deadline:
			t.Fatalf("rule %q did not fire within %v", rule, d)
		}
	}
}

// TestClosedLoopQueueSwap is the acceptance scenario for the queue half of
// the reflective loop: netsim replays Zipf/IMIX-flavoured traffic into a
// capsule whose FIFO queue has no drain; the adaptation engine — watching
// the stats tree only — detects sustained occupancy and hot-swaps the
// FIFO for a RED queue through the architecture meta-model, migrating the
// buffered packets. No manual reconfiguration call appears anywhere, and
// no packet is lost.
func TestClosedLoopQueueSwap(t *testing.T) {
	capsule := core.NewCapsule("loop")
	in := router.NewCounter()
	if err := capsule.Insert("in", in); err != nil {
		t.Fatal(err)
	}
	const qCap = 1024
	q, err := router.NewFIFOQueue(qCap)
	if err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("q", q); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("in", "out", "q", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}

	fired := make(chan Firing, 8)
	// Thresholds sit above the migrated backlog: the EWMA is seeded to
	// the imported queue length (so a congestion-triggered swap-in would
	// early-drop immediately), and this test wants exact conservation,
	// not RED's policy drops.
	mkRED := func() (core.Component, error) {
		return router.NewREDQueue(router.REDConfig{
			Capacity: qCap, MinTh: qCap * 7 / 8, MaxTh: qCap*15/16 + 1, MaxP: 0.1,
		})
	}
	eng := NewEngine(capsule,
		Options{Interval: time.Millisecond, OnFire: func(f Firing) { fired <- f }},
		Rule{
			Name:    "fifo-to-red",
			When:    GaugeAbove("q", "queue_occupancy", 0.5),
			Sustain: 2,
			Once:    true,
			Then:    Swap("q", "q2", mkRED),
		})
	if err := capsule.Insert("adapt", eng); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.Close(ctx) }()

	// netsim replay: a source node streams generated traffic to the
	// router node, whose handler feeds the capsule's entry component.
	w := netsim.NewNetwork()
	src, err := w.AddNode("src")
	if err != nil {
		t.Fatal(err)
	}
	rtr, err := w.AddNode("rtr")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Connect("src", "rtr", netsim.LinkConfig{Queue: 4096}); err != nil {
		t.Fatal(err)
	}
	var crossedAt atomic.Int64 // UnixNano of the push that took q past the trigger level
	rtr.Register(7, func(_ string, payload []byte) {
		_ = push1(in, router.NewPacket(payload))
		if crossedAt.Load() == 0 && q.Len() > qCap/2 {
			crossedAt.Store(time.Now().UnixNano())
		}
	})
	defer w.Stop()

	gen, err := trace.NewGenerator(trace.Config{Seed: 13, Flows: 32, UDPShare: 100})
	if err != nil {
		t.Fatal(err)
	}
	const total = 768 // enough to cross 50% occupancy, below capacity
	for sent := 0; sent < total; sent += 32 {
		batch := make([][]byte, 0, 32)
		for i := 0; i < 32 && sent+i < total; i++ {
			raw, err := gen.Next()
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, raw)
		}
		if err := src.SendBatch("rtr", 7, batch); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Microsecond) // paced, so the swap runs under traffic
	}

	f := waitFiring(t, fired, "fifo-to-red", 10*time.Second)
	t.Logf("E13 reaction: fifo-to-red fired %v after occupancy crossed 0.5 (1 ms tick, Sustain 2)",
		f.At.Sub(time.Unix(0, crossedAt.Load())))

	// The link must not have dropped (zero loss starts at the wire).
	if _, drops, err := w.LinkStats("src", "rtr"); err != nil || drops != 0 {
		t.Fatalf("link dropped %d frames (err %v)", drops, err)
	}
	// Wait until every sent frame reached the entry component.
	for deadline := time.Now().Add(5 * time.Second); in.ElemStats().In < total; {
		if time.Now().After(deadline) {
			t.Fatalf("entry saw %d of %d packets", in.ElemStats().In, total)
		}
		time.Sleep(time.Millisecond)
	}

	// The architecture changed: q replaced by a RED queue under q2.
	if _, ok := capsule.Component("q"); ok {
		t.Fatal("FIFO queue still present after adaptation")
	}
	comp, ok := capsule.Component("q2")
	if !ok {
		t.Fatal("RED queue not inserted")
	}
	red, ok := comp.(*router.REDQueue)
	if !ok {
		t.Fatalf("q2 is %T, want *router.REDQueue", comp)
	}

	// Zero loss: every packet the entry forwarded — before, during and
	// after the swap — is buffered in the RED queue (state migration
	// included the FIFO backlog).
	if st := in.ElemStats(); st.In != total || st.Out != total || st.Dropped != 0 {
		t.Fatalf("entry stats %+v, want in=out=%d", st, total)
	}
	drained := 0
	for len(red.PullBatch(nil, 1, math.MaxInt)) == 1 {
		drained++
	}
	if drained != total {
		t.Fatalf("drained %d packets from RED queue, want %d (lost %d)",
			drained, total, total-drained)
	}
	if st := red.ElemStats(); st.Dropped != 0 {
		t.Fatalf("RED queue dropped %d during migration", st.Dropped)
	}

	// The loop converged: the rule disarmed after its firing.
	if got := eng.History(); len(got) != 1 {
		t.Fatalf("history = %+v, want exactly one firing", got)
	}
}

// TestClosedLoopShardScaleUp is the acceptance scenario for the scaling
// half: a sharded data plane starts with one active lane of four; netsim
// replays flow-rich traffic; the engine observes the lane skew in the
// per-replica stats and rescales the dispatcher through the architecture
// meta-model. Per-flow ordering and packet conservation hold across the
// rescale.
func TestClosedLoopShardScaleUp(t *testing.T) {
	capsule := core.NewCapsule("scale")
	replica := func(shard int, fw *cf.Framework) (string, error) {
		name := router.ShardName(shard, "cnt")
		if err := fw.Admit(name, router.NewCounter()); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(name, "out",
			router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
			return "", err
		}
		return name, nil
	}
	const lanes = 4
	sharded, err := router.NewShardedCF(capsule,
		router.ShardConfig{Shards: lanes}, replica)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.SetActiveShards(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("fwd", sharded); err != nil {
		t.Fatal(err)
	}
	sink := newSeqSink()
	if err := capsule.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("fwd", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}

	fired := make(chan Firing, 8)
	eng := NewEngine(capsule,
		Options{Interval: time.Millisecond, OnFire: func(f Firing) { fired <- f }},
		Rule{
			Name:    "scale-up",
			When:    ShardSkewAbove("fwd", 1.5, 64),
			Sustain: 2,
			Once:    true,
			Then:    ScaleShards("fwd", func(View) int { return lanes }),
		})
	if err := capsule.Insert("adapt", eng); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.Close(ctx) }()

	// netsim replay into the dispatcher: 64 flows, sequenced payloads.
	w := netsim.NewNetwork()
	src, err := w.AddNode("src")
	if err != nil {
		t.Fatal(err)
	}
	rtr, err := w.AddNode("rtr")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Connect("src", "rtr", netsim.LinkConfig{Queue: 1 << 15}); err != nil {
		t.Fatal(err)
	}
	rtr.Register(7, func(_ string, payload []byte) {
		_ = push1(sharded, router.NewPacket(payload))
	})
	defer w.Stop()

	const flows = 64
	seqs := make([]uint32, flows)
	var sent uint64
	sendRound := func(rounds int) {
		for r := 0; r < rounds; r++ {
			batch := make([][]byte, 0, flows)
			for f := 0; f < flows; f++ {
				batch = append(batch, mkUDP(t, uint16(f), seqs[f]))
				seqs[f]++
			}
			if err := src.SendBatch("rtr", 7, batch); err != nil {
				t.Fatal(err)
			}
			sent += flows
			time.Sleep(200 * time.Microsecond)
		}
	}
	sendRound(40) // one active lane: every flow lands on it -> max skew

	waitFiring(t, fired, "scale-up", 10*time.Second)
	if got := sharded.ActiveShards(); got != lanes {
		t.Fatalf("active shards = %d, want %d", got, lanes)
	}
	if v, _ := sharded.Annotations()[router.AnnotActiveShards]; v != "4" {
		t.Fatalf("annotation = %q, want 4", v)
	}

	sendRound(40) // traffic continues over the rescaled plane

	// Drain: link, then dispatcher, then replicas.
	if _, drops, err := w.LinkStats("src", "rtr"); err != nil || drops != 0 {
		t.Fatalf("link dropped %d frames (err %v)", drops, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sharded.ElemStats().In < sent {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher saw %d of %d", sharded.ElemStats().In, sent)
		}
		time.Sleep(time.Millisecond)
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := sharded.Quiesce(qctx); err != nil {
		t.Fatal(err)
	}

	// Conservation and ordering across the rescale.
	count, bad := sink.totals()
	if count != sent {
		t.Fatalf("sink saw %d of %d packets", count, sent)
	}
	if bad != 0 {
		t.Fatalf("%d out-of-order deliveries across rescale", bad)
	}
	if st := sharded.ElemStats(); st.Dropped != 0 || st.Errors != 0 {
		t.Fatalf("sharded CF stats %+v", st)
	}
	// Post-scale, more than one lane carried traffic.
	busy := 0
	for i := 0; i < lanes; i++ {
		if sharded.ShardStats(i).In > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d lanes carried traffic after scale-up", busy)
	}
}

// TestRetuneShaperFromDrops closes the resources-meta-model loop: the
// engine watches the shaper's denial counter and retunes the token-bucket
// rate when drops spike.
func TestRetuneShaperFromDrops(t *testing.T) {
	capsule := core.NewCapsule("shape")
	in := router.NewCounter()
	if err := capsule.Insert("in", in); err != nil {
		t.Fatal(err)
	}
	sh, err := router.NewTokenShaper(1000, 2000, nil) // tiny: denies quickly
	if err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("sh", sh); err != nil {
		t.Fatal(err)
	}
	sink := router.NewCounter()
	if err := capsule.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("in", "out", "sh", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("sh", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}

	fired := make(chan Firing, 8)
	const tuned = 1e9
	eng := NewEngine(capsule,
		Options{Interval: time.Millisecond, OnFire: func(f Firing) { fired <- f }},
		Rule{
			Name: "open-up",
			When: DeltaAbove("sh", "shaper_denied", 0),
			Once: true,
			Then: RetuneShaper("sh", func(View) float64 { return tuned }),
		})
	if err := capsule.Insert("adapt", eng); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.Close(ctx) }()
	waitTick(t, eng, 1)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = push1(in, router.NewPacket(mkUDP(t, uint16(i%8), uint32(i))))
			time.Sleep(100 * time.Microsecond)
		}
	}()
	waitFiring(t, fired, "open-up", 10*time.Second)
	close(stop)
	<-done

	if got := sh.Rate(); got != tuned {
		t.Fatalf("shaper rate = %g, want %g", got, tuned)
	}
	// The retuned bucket admits traffic again.
	before := sink.ElemStats().In
	for i := 0; i < 10; i++ {
		_ = push1(in, router.NewPacket(mkUDP(t, 1, uint32(i))))
	}
	if got := sink.ElemStats().In; got != before+10 {
		t.Fatalf("post-retune sink in = %d, want %d", got, before+10)
	}
}

// TestDiagnosticProbeOnLossSpike closes the interception-meta-model loop:
// a drop spike at the queue triggers installation of a named diagnostic
// audit on the upstream binding, which then observes traffic.
func TestDiagnosticProbeOnLossSpike(t *testing.T) {
	capsule := core.NewCapsule("probe")
	in := router.NewCounter()
	if err := capsule.Insert("in", in); err != nil {
		t.Fatal(err)
	}
	q, err := router.NewFIFOQueue(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("q", q); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("in", "out", "q", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}

	var audited atomic.Uint64
	probe := core.PrePost(func(op string, args []any) {
		audited.Add(uint64(router.PacketCount(op, args)))
	}, nil)
	fired := make(chan Firing, 8)
	eng := NewEngine(capsule,
		Options{Interval: time.Millisecond, OnFire: func(f Firing) { fired <- f }},
		Rule{
			Name: "probe-on-loss",
			When: DeltaAbove("q", "packets_dropped", 0),
			Once: true,
			Then: Intercept("in", "out", "adapt.diag", probe),
		})
	if err := capsule.Insert("adapt", eng); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.Close(ctx) }()
	waitTick(t, eng, 1)

	// Overflow the tiny queue so drops spike.
	for i := 0; i < 64; i++ {
		_ = push1(in, router.NewPacket(mkUDP(t, 1, uint32(i))))
	}
	waitFiring(t, fired, "probe-on-loss", 10*time.Second)

	b := capsule.BindingsOf("in")[0]
	found := false
	for _, name := range b.Interceptors() {
		if name == "adapt.diag" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostic probe not installed; chain = %v", b.Interceptors())
	}
	// The probe observes subsequent traffic.
	before := audited.Load()
	for i := 0; i < 5; i++ {
		_ = push1(in, router.NewPacket(mkUDP(t, 2, uint32(i))))
	}
	if got := audited.Load(); got != before+5 {
		t.Fatalf("probe counted %d, want %d", got, before+5)
	}
	// Unintercept is idempotent and removes the probe.
	v := View{}
	if err := Unintercept("in", "out", "adapt.diag")(ctx, capsule, v); err != nil {
		t.Fatal(err)
	}
	if err := Unintercept("in", "out", "adapt.diag")(ctx, capsule, v); err != nil {
		t.Fatal(err)
	}
	if got := b.Interceptors(); len(got) != 0 {
		t.Fatalf("chain after removal = %v", got)
	}
}

// TestEngineMechanics covers sustain, cooldown, once, and the engine's
// own stats.
func TestEngineMechanics(t *testing.T) {
	capsule := core.NewCapsule("mech")
	var always atomic.Uint64
	fireCount := func() uint64 { return always.Load() }
	eng := NewEngine(capsule,
		Options{Interval: time.Millisecond},
		Rule{
			Name:     "steady",
			When:     func(View) bool { return true },
			Sustain:  2,
			Cooldown: time.Hour, // fires once per hour at most
			Then: func(context.Context, *core.Capsule, View) error {
				always.Add(1)
				return nil
			},
		},
		Rule{
			Name: "missing-path",
			When: GaugeAbove("ghost", "nothing", 0), // absent data never fires
			Then: func(context.Context, *core.Capsule, View) error {
				t.Error("fired on missing data")
				return nil
			},
		})
	if err := capsule.Insert("adapt", eng); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fireCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sustained rule never fired")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // more ticks pass...
	if got := fireCount(); got != 1 {
		t.Fatalf("cooldown violated: %d firings", got)
	}
	// The engine observes itself through the same capability it samples.
	tree := core.CapsuleStats(capsule)
	node, ok := tree.Find("adapt")
	if !ok {
		t.Fatal("engine missing from stats tree")
	}
	if ticks, ok := node.Stat("adapt_ticks"); !ok || ticks.Value < 2 {
		t.Fatalf("engine stats = %+v", node.Stats)
	}
	if f, ok := node.Stat("adapt_firings"); !ok || f.Value != 1 {
		t.Fatalf("engine firings stat = %+v", node.Stats)
	}
	if err := capsule.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Stop is idempotent through Close; a second Stop is a no-op.
	if err := eng.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// delayStage is a pass-through pipeline stage that sleeps per packet — the
// latency fault the P99 SLO loop detects and removes.
type delayStage struct {
	*core.Base
	out   *core.Receptacle[router.IPacketPush]
	delay time.Duration
}

func newDelayStage(d time.Duration) *delayStage {
	s := &delayStage{Base: core.NewBase("test.delayStage"), delay: d}
	s.out = core.NewReceptacle[router.IPacketPush](router.IPacketPushID)
	s.AddReceptacle("out", s.out)
	s.Provide(router.IPacketPushID, s)
	return s
}

func (s *delayStage) PushBatch(batch []*router.Packet) error {
	if s.delay > 0 {
		time.Sleep(s.delay * time.Duration(len(batch)))
	}
	dst, ok := s.out.Get()
	if !ok {
		for _, p := range batch {
			p.Release()
		}
		return core.ErrNotBound
	}
	return dst.PushBatch(batch)
}

// TestViewQuantileHelpers pins the windowed-vs-cumulative semantics the
// SLO conditions rely on: a small latency regression is invisible to the
// cumulative quantile (diluted by history) but trips the windowed one
// immediately.
func TestViewQuantileHelpers(t *testing.T) {
	const fast, slow = uint64(50_000), uint64(20_000_000) // 50µs vs 20ms
	h := core.NewHistogram()
	for i := 0; i < 10_000; i++ {
		h.Record(fast)
	}
	prev := core.StatNode{Children: []core.StatNode{{
		Name: "fwd", Stats: []core.Stat{core.H(router.StatLatency, "ns", h.Snapshot())},
	}}}
	for i := 0; i < 50; i++ { // regression: 50 slow packets, 0.5% of total
		h.Record(slow)
	}
	now := core.StatNode{Children: []core.StatNode{{
		Name: "fwd", Stats: []core.Stat{core.H(router.StatLatency, "ns", h.Snapshot())},
	}}}
	v := View{Now: now, Prev: prev, Elapsed: time.Second}

	if q, ok := v.Quantile("fwd", router.StatLatency, 0.99); !ok || q > float64(fast)*1.1 {
		t.Fatalf("cumulative p99 %v/%v should still read fast", q, ok)
	}
	if q, ok := v.WindowQuantile("fwd", router.StatLatency, 0.99); !ok || q < float64(slow)*0.9 {
		t.Fatalf("windowed p99 %v/%v should read the regression", q, ok)
	}
	if QuantileAbove("fwd", router.StatLatency, 0.99, float64(time.Millisecond))(v) {
		t.Fatal("cumulative condition must not see a 0.5%% regression yet")
	}
	if !P99Above("fwd", time.Millisecond)(v) {
		t.Fatal("windowed P99Above must see the regression")
	}
	// Absent data reads as "not holding", like every other condition.
	if P99Above("nope", time.Millisecond)(v) {
		t.Fatal("missing path must not hold")
	}
	if _, ok := v.WindowQuantile("fwd", "packets_in", 0.99); ok {
		t.Fatal("non-histogram stat must not answer quantiles")
	}
	// Empty window (no new observations) reads false too.
	same := View{Now: now, Prev: now, Elapsed: time.Second}
	if _, ok := same.WindowQuantile("fwd", router.StatLatency, 0.99); ok {
		t.Fatal("empty window must not answer")
	}
}

// TestClosedLoopP99HotSwap is the acceptance scenario for the tail-latency
// half of the SLO loop: a sharded plane whose replicas contain a slow
// stage; the engine — watching only the windowed p99 of the plane's
// latency histogram stat — detects the SLO breach and hot-swaps the stage
// in every replica through the architecture meta-model. The windowed p99
// then recovers below the threshold, demonstrating the loop closes.
func TestClosedLoopP99HotSwap(t *testing.T) {
	const lanes = 2
	const slo = 2 * time.Millisecond
	capsule := core.NewCapsule("slo")
	replica := func(shard int, fw *cf.Framework) (string, error) {
		name := router.ShardName(shard, "stage")
		if err := fw.Admit(name, newDelayStage(5*time.Millisecond)); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(name, "out",
			router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
			return "", err
		}
		return name, nil
	}
	sharded, err := router.NewShardedCF(capsule,
		router.ShardConfig{Shards: lanes, LatencyHistogram: true}, replica)
	if err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("fwd", sharded); err != nil {
		t.Fatal(err)
	}
	sink := newSeqSink()
	if err := capsule.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := capsule.Bind("fwd", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}

	fired := make(chan Firing, 8)
	eng := NewEngine(capsule,
		Options{Interval: 2 * time.Millisecond, OnFire: func(f Firing) { fired <- f }},
		Rule{
			Name:    "p99-slo",
			When:    P99Above("fwd", slo),
			Sustain: 2,
			Once:    true,
			Then: ShardSwap("fwd", "stage", "stage2", func(int) (core.Component, error) {
				return newDelayStage(0), nil
			}),
		})
	if err := capsule.Insert("adapt", eng); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.Close(ctx) }()

	// Pre-built frames so the pump goroutine never touches testing.T.
	const flows = 16
	frames := make([][]byte, flows)
	for f := range frames {
		frames[f] = mkUDP(t, uint16(f), 0)
	}
	var sent atomic.Uint64
	var pumping sync.WaitGroup
	pump := func(stop <-chan struct{}) {
		defer pumping.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = push1(sharded, router.NewPacket(frames[i%flows]))
			sent.Add(1)
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}
	stopSlow := make(chan struct{})
	pumping.Add(1)
	go pump(stopSlow)
	waitFiring(t, fired, "p99-slo", 15*time.Second)
	close(stopSlow)
	// A push blocked while the swap parked the lanes carries a slow-era
	// Born stamp: join the pump so it cannot land after the base below.
	pumping.Wait()

	// The architecture changed in every replica: stage -> stage2.
	inner := sharded.Inner()
	for i := 0; i < lanes; i++ {
		if _, ok := inner.Component(router.ShardName(i, "stage")); ok {
			t.Fatalf("shard %d still carries the slow stage", i)
		}
		if _, ok := inner.Component(router.ShardName(i, "stage2")); !ok {
			t.Fatalf("shard %d missing the replacement stage", i)
		}
	}

	// Drain the slow-era backlog (old Born stamps would pollute the
	// recovery window), then measure a fresh window over the fast plane.
	latHist := func() *core.HistSnapshot {
		for _, s := range sharded.Stats() {
			if s.Name == router.StatLatency {
				return s.Hist
			}
		}
		t.Fatal("no latency stat on the sharded CF")
		return nil
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := sharded.Quiesce(qctx); err != nil {
		t.Fatal(err)
	}
	base := latHist()
	stopFast := make(chan struct{})
	pumping.Add(1)
	go pump(stopFast)
	time.Sleep(100 * time.Millisecond)
	close(stopFast)
	pumping.Wait()
	if err := sharded.Quiesce(qctx); err != nil {
		t.Fatal(err)
	}
	window := latHist().Sub(base)
	if window.Count == 0 {
		t.Fatal("recovery window recorded nothing")
	}
	if p99 := window.Quantile(0.99); p99 >= float64(slo) {
		t.Fatalf("post-swap windowed p99 = %vns, SLO %v not recovered", p99, slo)
	}
	if got := eng.History(); len(got) != 1 {
		t.Fatalf("history = %+v, want exactly one firing", got)
	}
}

// TestBatchFillBelow pins the windowed batch-fill condition: it fires on
// a tick whose frames-per-syscall delta underfills the configured batch,
// stays quiet on a well-amortised tick, and — like every condition —
// reads absent data and idle windows as "not holding".
func TestBatchFillBelow(t *testing.T) {
	dev := func(frames, calls uint64) core.StatNode {
		return core.StatNode{Children: []core.StatNode{{
			Name: "src",
			Stats: []core.Stat{
				core.C("udp_rx_frames", "frames", frames),
				core.C("udp_rx_syscalls", "syscalls", calls),
			},
		}}}
	}
	// 100 syscalls moving 3200 frames out of a batch-32 ceiling: full.
	full := View{Now: dev(3200, 100), Prev: dev(0, 0), Elapsed: time.Second}
	if BatchFillBelow("src", 32, 0.5, 10)(full) {
		t.Fatal("a fully amortised window must not hold")
	}
	// 100 syscalls moving 100 frames: fill 1/32, far under ratio 0.5.
	trickle := View{Now: dev(100, 100), Prev: dev(0, 0), Elapsed: time.Second}
	if !BatchFillBelow("src", 32, 0.5, 10)(trickle) {
		t.Fatal("a trickle window must hold")
	}
	// Under the minSyscalls floor the same fill reads as idle, not thin.
	if BatchFillBelow("src", 32, 0.5, 1000)(trickle) {
		t.Fatal("a window under the syscall floor must not hold")
	}
	// No growth at all: zero-delta window never holds.
	idle := View{Now: dev(100, 100), Prev: dev(100, 100), Elapsed: time.Second}
	if BatchFillBelow("src", 32, 0.5, 10)(idle) {
		t.Fatal("an idle window must not hold")
	}
	// Missing component path never holds.
	if BatchFillBelow("nope", 32, 0.5, 10)(trickle) {
		t.Fatal("a missing path must not hold")
	}
}

// TestFramesPerRoundtripBelow pins the IPC-lane analogue of the batch-fill
// condition: it fires on a tick whose frames-per-roundtrip delta underfills
// the sender's batch, stays quiet when the lane amortises well, and reads
// absent or idle lanes as "not holding".
func TestFramesPerRoundtripBelow(t *testing.T) {
	lane := func(frames, trips uint64) core.StatNode {
		return core.StatNode{Children: []core.StatNode{{
			Name: "remote",
			Stats: []core.Stat{
				core.C("ipc_acked_frames", "packets", frames),
				core.C("ipc_roundtrips", "acks", trips),
			},
		}}}
	}
	// 100 round-trips carrying 3200 frames against a batch-32 sender: full.
	full := View{Now: lane(3200, 100), Prev: lane(0, 0), Elapsed: time.Second}
	if FramesPerRoundtripBelow("remote", 32, 0.5, 10)(full) {
		t.Fatal("a fully amortised lane must not hold")
	}
	// 100 round-trips carrying 100 frames: the lane pays a near-full
	// crossing per packet — exactly what the condition exists to catch.
	trickle := View{Now: lane(100, 100), Prev: lane(0, 0), Elapsed: time.Second}
	if !FramesPerRoundtripBelow("remote", 32, 0.5, 10)(trickle) {
		t.Fatal("a per-packet lane must hold")
	}
	// Under the round-trip floor the same fill reads as idle, not thin.
	if FramesPerRoundtripBelow("remote", 32, 0.5, 1000)(trickle) {
		t.Fatal("a lane under the round-trip floor must not hold")
	}
	// No growth at all: zero-delta window never holds.
	idle := View{Now: lane(100, 100), Prev: lane(100, 100), Elapsed: time.Second}
	if FramesPerRoundtripBelow("remote", 32, 0.5, 10)(idle) {
		t.Fatal("an idle lane must not hold")
	}
	// Missing lane path never holds.
	if FramesPerRoundtripBelow("nope", 32, 0.5, 10)(trickle) {
		t.Fatal("a missing path must not hold")
	}
}
