package router

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"netkit/cf"
	"netkit/core"
	"netkit/packet"
)

// ---- fixtures -------------------------------------------------------------

// mkFlowPacket builds a UDP/IPv4 packet of flow `flow` carrying sequence
// number `seq` in its payload, so delivery order is checkable per flow.
func mkFlowPacket(t testing.TB, flow, seq uint32) *Packet {
	t.Helper()
	src := netip.AddrFrom4([4]byte{10, 0, byte(flow >> 8), byte(flow)})
	dst := netip.AddrFrom4([4]byte{192, 168, byte(flow >> 8), byte(flow)})
	payload := make([]byte, 8)
	binary.BigEndian.PutUint32(payload[0:], flow)
	binary.BigEndian.PutUint32(payload[4:], seq)
	raw, err := packet.BuildUDP4(src, dst, uint16(1000+flow%100), 53, 64, payload)
	if err != nil {
		t.Fatal(err)
	}
	return NewPacket(raw)
}

// flowSeq decodes what mkFlowPacket encoded.
func flowSeq(p *Packet) (flow, seq uint32) {
	payload := p.Data[packet.IPv4HeaderLen+packet.UDPHeaderLen:]
	return binary.BigEndian.Uint32(payload[0:]), binary.BigEndian.Uint32(payload[4:])
}

// recordingSink is a concurrency-safe terminal component recording the
// per-flow delivery sequence, the property the sharded CF must preserve.
// With failMod >= 2 it additionally FAILS (after recording and releasing)
// every packet whose flow+seq is a multiple of failMod — a deterministic
// per-packet predicate, so batched and per-packet drives fail identical
// packets and upstream error accounting can be compared exactly. Batch
// failures are reported with per-packet cardinality via BatchError, the
// contract upstream books depend on.
type recordingSink struct {
	*core.Base
	mu      sync.Mutex
	flows   map[uint32][]uint32
	count   int
	failMod uint32
}

func (s *recordingSink) fails(flow, seq uint32) bool {
	return s.failMod >= 2 && (flow+seq)%s.failMod == 0
}

func newRecordingSink() *recordingSink {
	s := &recordingSink{Base: core.NewBase("test.RecordingSink"), flows: make(map[uint32][]uint32)}
	s.Provide(IPacketPushID, s)
	return s
}

func (s *recordingSink) Push(p *Packet) error {
	flow, seq := flowSeq(p)
	s.mu.Lock()
	s.flows[flow] = append(s.flows[flow], seq)
	s.count++
	s.mu.Unlock()
	p.Release()
	if s.fails(flow, seq) {
		return errFlaky
	}
	return nil
}

func (s *recordingSink) PushBatch(batch []*Packet) error {
	failed := 0
	s.mu.Lock()
	for _, p := range batch {
		flow, seq := flowSeq(p)
		s.flows[flow] = append(s.flows[flow], seq)
		s.count++
		if s.fails(flow, seq) {
			failed++
		}
	}
	s.mu.Unlock()
	for _, p := range batch {
		p.Release()
	}
	if failed > 0 {
		return &BatchError{Failed: failed, Err: errFlaky}
	}
	return nil
}

func (s *recordingSink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// perFlowInOrder fails the test unless every flow's recorded sequence is
// exactly 0..len-1 in order.
func (s *recordingSink) perFlowInOrder(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for flow, seqs := range s.flows {
		for i, got := range seqs {
			if got != uint32(i) {
				t.Fatalf("flow %d: position %d has seq %d (sequence %v...)",
					flow, i, got, seqs[:i+1])
			}
		}
	}
}

// counterReplica is the simplest compliant replica: one counter piped to
// the shard egress.
func counterReplica(shard int, fw *cf.Framework) (string, error) {
	name := ShardName(shard, "cnt")
	if err := fw.Admit(name, NewCounter()); err != nil {
		return "", err
	}
	if _, err := fw.Capsule().Bind(name, "out", ShardName(shard, "egress"), IPacketPushID); err != nil {
		return "", err
	}
	return name, nil
}

// buildSharded returns a started n-shard CF wired to a recording sink.
func buildSharded(t *testing.T, n int, build ReplicaFactory) (*core.Capsule, *ShardedCF, *recordingSink) {
	t.Helper()
	capsule := core.NewCapsule("shardtest")
	s, err := NewShardedCF(capsule, ShardConfig{Shards: n}, build)
	if err != nil {
		t.Fatal(err)
	}
	sink := newRecordingSink()
	if err := capsule.Insert("sharded", s); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(capsule, "sharded", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	if err := capsule.StartAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = capsule.StopAll(context.Background()) })
	return capsule, s, sink
}

func quiesce(t *testing.T, s *ShardedCF) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

// ---- construction and shape ----------------------------------------------

func TestShardedCFValidation(t *testing.T) {
	capsule := core.NewCapsule("v")
	if _, err := NewShardedCF(capsule, ShardConfig{Shards: 0}, counterReplica); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewShardedCF(capsule, ShardConfig{Shards: 2}, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	failing := func(shard int, fw *cf.Framework) (string, error) {
		return "", errors.New("boom")
	}
	if _, err := NewShardedCF(capsule, ShardConfig{Shards: 2}, failing); err == nil {
		t.Fatal("factory failure not propagated")
	}
}

// TestShardedCFReplicaEnumeration proves the architecture meta-space sees
// the shards: one replica group per shard, each holding its ingress,
// egress and factory-built members, all annotated with the shard index.
func TestShardedCFReplicaEnumeration(t *testing.T) {
	_, s, _ := buildSharded(t, 3, counterReplica)
	if s.Shards() != 3 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	groups := s.Replicas()
	if len(groups) != 3 {
		t.Fatalf("replica groups = %d (%v)", len(groups), groups)
	}
	for i := 0; i < 3; i++ {
		idx := fmt.Sprint(i)
		want := map[string]bool{
			ShardName(i, "cnt"): true, ShardName(i, "egress"): true, ShardName(i, "ingress"): true,
		}
		if len(groups[idx]) != len(want) {
			t.Fatalf("replica %d members %v", i, groups[idx])
		}
		for _, name := range groups[idx] {
			if !want[name] {
				t.Fatalf("replica %d has unexpected member %q", i, name)
			}
		}
	}
}

// ---- dispatch correctness -------------------------------------------------

// TestShardedCFDeliversAllPerFlowInOrder pushes interleaved flows through
// a 4-shard CF in mixed batch sizes and checks complete, per-flow-ordered
// delivery plus dispatcher/shard/egress count conservation.
func TestShardedCFDeliversAllPerFlowInOrder(t *testing.T) {
	_, s, sink := buildSharded(t, 4, counterReplica)
	const flows, perFlow = 16, 200
	seqs := make([]uint32, flows)
	batch := GetBatch()
	total := 0
	for round := 0; round < perFlow; round++ {
		for f := uint32(0); f < flows; f++ {
			batch = append(batch, mkFlowPacket(t, f, seqs[f]))
			seqs[f]++
			total++
			if len(batch) == 24 {
				if err := s.PushBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	if err := s.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	PutBatch(batch)
	quiesce(t, s)
	if got := sink.total(); got != total {
		t.Fatalf("sink received %d of %d", got, total)
	}
	sink.perFlowInOrder(t)

	stats := s.ElemStats()
	if stats.In != uint64(total) || stats.Out != uint64(total) || stats.Dropped != 0 {
		t.Fatalf("aggregate stats %+v, want in=out=%d", stats, total)
	}
	var perShard uint64
	for i := 0; i < s.Shards(); i++ {
		st := s.ShardStats(i)
		if st.In != st.Out {
			t.Fatalf("shard %d leaked: %+v", i, st)
		}
		perShard += st.In
	}
	if perShard != uint64(total) {
		t.Fatalf("per-shard sum %d != dispatched %d", perShard, total)
	}
}

// TestShardedCFFlowAffinity proves RSS affinity: one flow's packets are
// serviced by exactly one shard.
func TestShardedCFFlowAffinity(t *testing.T) {
	_, s, sink := buildSharded(t, 4, counterReplica)
	const n = 64
	for seq := uint32(0); seq < n; seq++ {
		if err := s.Push(mkFlowPacket(t, 7, seq)); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s)
	if sink.total() != n {
		t.Fatalf("sink received %d of %d", sink.total(), n)
	}
	busy := 0
	for i := 0; i < s.Shards(); i++ {
		if st := s.ShardStats(i); st.In > 0 {
			busy++
			if st.In != n {
				t.Fatalf("shard %d saw %d of %d", i, st.In, n)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("one flow touched %d shards", busy)
	}
}

// TestShardedCFSpreadsFlows sanity-checks the dispatcher actually fans
// out: many flows must occupy every shard of a 4-shard CF.
func TestShardedCFSpreadsFlows(t *testing.T) {
	_, s, _ := buildSharded(t, 4, counterReplica)
	for f := uint32(0); f < 256; f++ {
		if err := s.Push(mkFlowPacket(t, f, 0)); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s)
	for i := 0; i < s.Shards(); i++ {
		if st := s.ShardStats(i); st.In == 0 {
			t.Fatalf("shard %d idle across 256 flows", i)
		}
	}
}

// ---- lifecycle ------------------------------------------------------------

// TestShardedCFStopDrainsThenRefuses: packets accepted before Stop are all
// delivered (the workers drain their rings), packets after Stop are
// refused with ErrStopped and counted as dispatcher drops.
func TestShardedCFStopDrainsThenRefuses(t *testing.T) {
	capsule, s, sink := buildSharded(t, 2, counterReplica)
	const n = 500
	batch := GetBatch()
	for i := uint32(0); i < n; i++ {
		batch = append(batch, mkFlowPacket(t, i%8, i/8))
		if len(batch) == 32 {
			if err := s.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	PutBatch(batch)
	if err := capsule.StopComponent(context.Background(), "sharded"); err != nil {
		t.Fatal(err)
	}
	if got := sink.total(); got != n {
		t.Fatalf("sink received %d of %d accepted before Stop", got, n)
	}
	if err := s.Push(mkFlowPacket(t, 1, 0)); !errors.Is(err, ErrStopped) {
		t.Fatalf("push after stop: %v", err)
	}
	if s.ElemStats().Dropped != 1 {
		t.Fatalf("refused packet not counted: %+v", s.Stats())
	}
	// Restart: the CF accepts traffic again.
	if err := capsule.StartComponent(context.Background(), "sharded"); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(mkFlowPacket(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	if got := sink.total(); got != n+1 {
		t.Fatalf("sink received %d, want %d", got, n+1)
	}
}

// ---- interception ---------------------------------------------------------

// TestShardedCFInterceptAggregates installs ONE audit across all replica
// ingress bindings and checks it counts every packet exactly once —
// aggregated across shards — whether the chain sees Push or PushBatch ops.
func TestShardedCFInterceptAggregates(t *testing.T) {
	_, s, sink := buildSharded(t, 4, counterReplica)
	var audited uint64
	var mu sync.Mutex
	around := core.PrePost(func(op string, args []any) {
		mu.Lock()
		audited += uint64(PacketCount(op, args))
		mu.Unlock()
	}, nil)
	if err := s.Intercept("ingress", "out", "audit", around); err != nil {
		t.Fatal(err)
	}
	const total = 600
	batch := GetBatch()
	for i := uint32(0); i < total; i++ {
		batch = append(batch, mkFlowPacket(t, i%32, i/32))
		if len(batch) == 16 {
			if err := s.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	PutBatch(batch)
	quiesce(t, s)
	mu.Lock()
	got := audited
	mu.Unlock()
	if got != total {
		t.Fatalf("audit counted %d of %d", got, total)
	}
	if sink.total() != total {
		t.Fatalf("sink received %d of %d", sink.total(), total)
	}
	// Removal re-fuses every replica; traffic keeps flowing uncounted.
	if err := s.Unintercept("ingress", "out", "audit"); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(mkFlowPacket(t, 1, 99)); err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	mu.Lock()
	after := audited
	mu.Unlock()
	if after != total {
		t.Fatalf("audit still counting after removal: %d", after)
	}
}

// TestShardedCFInterceptAllOrNothing pre-installs a colliding interceptor
// on one replica's binding: the all-replica install must fail and leave
// every other replica's chain empty.
func TestShardedCFInterceptAllOrNothing(t *testing.T) {
	_, s, _ := buildSharded(t, 3, counterReplica)
	inner := s.Inner()
	noop := core.PrePost(nil, nil)

	// Pre-install "clash" on shard 1's ingress binding only.
	var shard1 *core.Binding
	for _, b := range inner.BindingsOf(ShardName(1, "ingress")) {
		from, recp := b.From()
		if from == ShardName(1, "ingress") && recp == "out" {
			shard1 = b
		}
	}
	if shard1 == nil {
		t.Fatal("shard 1 ingress binding not found")
	}
	if err := shard1.AddInterceptor(core.Interceptor{Name: "clash", Wrap: noop}); err != nil {
		t.Fatal(err)
	}
	if err := s.Intercept("ingress", "out", "clash", noop); !errors.Is(err, core.ErrAlreadyExists) {
		t.Fatalf("want ErrAlreadyExists, got %v", err)
	}
	for i := 0; i < 3; i++ {
		var b *core.Binding
		for _, cand := range inner.BindingsOf(ShardName(i, "ingress")) {
			from, recp := cand.From()
			if from == ShardName(i, "ingress") && recp == "out" {
				b = cand
			}
		}
		want := 0
		if i == 1 {
			want = 1 // only the pre-installed interceptor
		}
		if got := len(b.Interceptors()); got != want {
			t.Fatalf("shard %d chain %v after failed install", i, b.Interceptors())
		}
	}
	if err := s.Intercept("nosuch", "out", "x", noop); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unknown endpoint: %v", err)
	}
}

// stallStage is a replica stage that runs hook before forwarding each
// batch: a sleep builds a ring backlog behind it, a blocking hook wedges
// its lane.
type stallStage struct {
	*core.Base
	out  *core.Receptacle[IPacketPush]
	hook func()
}

func (s *stallStage) Push(p *Packet) error { return s.PushBatch([]*Packet{p}) }

func (s *stallStage) PushBatch(batch []*Packet) error {
	s.hook()
	next, _ := s.out.Get()
	return ForwardBatch(next, batch)
}

// stallReplica builds ingress -> stallStage(hook) -> egress.
func stallReplica(hook func()) ReplicaFactory {
	return func(shard int, fw *cf.Framework) (string, error) {
		st := &stallStage{Base: core.NewBase("test.StallStage"), hook: hook}
		st.out = core.NewReceptacle[IPacketPush](IPacketPushID)
		st.AddReceptacle("out", st.out)
		st.Provide(IPacketPushID, st)
		name := ShardName(shard, "stall")
		if err := fw.Admit(name, st); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(name, "out", ShardName(shard, "egress"), IPacketPushID); err != nil {
			return "", err
		}
		return name, nil
	}
}

// TestShardedCFInterceptIsACut: Intercept is an exact cut even with a ring
// backlog behind a slow replica. The packets accepted before it drain
// unaudited; the audit reads exactly the packets pushed after it returns.
func TestShardedCFInterceptIsACut(t *testing.T) {
	_, s, sink := buildSharded(t, 2, stallReplica(func() { time.Sleep(100 * time.Microsecond) }))
	var audited atomic.Int64
	around := core.PrePost(func(op string, args []any) {
		audited.Add(int64(PacketCount(op, args)))
	}, nil)
	push := func(from, n int) {
		for i := from; i < from+n; i++ {
			if err := s.Push(mkFlowPacket(t, uint32(i%8), uint32(i/8))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const before, after = 200, 120
	push(0, before) // one ring entry each, far faster than the replica drains
	if err := s.Intercept("ingress", "out", "audit", around); err != nil {
		t.Fatal(err)
	}
	push(before, after)
	quiesce(t, s)
	if got := audited.Load(); got != after {
		t.Fatalf("audit read %d, want exactly the %d packets pushed after Intercept", got, after)
	}
	if got := sink.total(); got != before+after {
		t.Fatalf("sink received %d of %d", got, before+after)
	}
	sink.perFlowInOrder(t)
}

// TestShardedCFMetaOpsWithoutWorkers: with no worker running — never
// started, or stopped — every lane is already at the cut, so each fenced
// meta-operation returns at once.
func TestShardedCFMetaOpsWithoutWorkers(t *testing.T) {
	s, err := NewShardedCF(core.NewCapsule("shardtest"), ShardConfig{Shards: 2}, counterReplica)
	if err != nil {
		t.Fatal(err)
	}
	counter := func(int) (core.Component, error) { return NewCounter(), nil }
	ops := func(state string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			done <- errors.Join(
				s.HotSwap("cnt", "cnt2", counter),
				s.HotSwap("cnt2", "cnt", counter),
				s.Intercept("ingress", "out", "audit", core.PrePost(nil, nil)),
				s.Unintercept("ingress", "out", "audit"),
				s.SetActiveShards(ctx, 1),
				s.SetActiveShards(ctx, 2),
				s.Quiesce(ctx),
			)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", state, err)
			}
		case <-ctx.Done():
			t.Fatalf("%s: meta-operations still blocked after 5s", state)
		}
	}
	ops("never started")
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(mkFlowPacket(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	ops("stopped")
}

// TestShardedCFQuiesceExpiresOnWedgedLane: a lane stuck inside its replica
// never reaches the cut, so Quiesce returns ctx.Err() and releases the
// intake and every lane it had parked; once the replica lets go, the
// wedged lane resumes and the CF quiesces normally.
func TestShardedCFQuiesceExpiresOnWedgedLane(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	_, s, sink := buildSharded(t, 2, stallReplica(func() {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}))
	var unwedge sync.Once
	t.Cleanup(func() { unwedge.Do(func() { close(release) }) }) // before Stop drains
	wedged := mkFlowPacket(t, 1, 0)
	lane := FlowShard(wedged, 2)
	if err := s.Push(wedged); err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Quiesce(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Quiesce on a wedged lane: %v, want %v", err, context.DeadlineExceeded)
	}
	// The other lane forwards while this one is still wedged.
	flow := uint32(2)
	for FlowShard(mkFlowPacket(t, flow, 0), 2) == lane {
		flow++
	}
	if err := s.Push(mkFlowPacket(t, flow, 0)); err != nil {
		t.Fatal(err)
	}
	waitSinkTotal(t, sink, 1)
	if err := s.Push(mkFlowPacket(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	unwedge.Do(func() { close(release) })
	quiesce(t, s)
	if got := sink.total(); got != 3 {
		t.Fatalf("sink received %d of 3", got)
	}
	sink.perFlowInOrder(t)
}

// ---- reconfiguration under load -------------------------------------------

// queueReplica builds ingress -> FIFO queue -> RR link scheduler -> egress:
// a replica with buffered state, so hot-swapping the queue exercises
// Exportable migration.
func queueReplica(capacity int) ReplicaFactory {
	return func(shard int, fw *cf.Framework) (string, error) {
		qName := ShardName(shard, "queue")
		sName := ShardName(shard, "sched")
		q, err := NewFIFOQueue(capacity)
		if err != nil {
			return "", err
		}
		if err := fw.Admit(qName, q); err != nil {
			return "", err
		}
		sched, err := NewLinkScheduler(PolicyRR)
		if err != nil {
			return "", err
		}
		if err := sched.AddInput("in0", 1500, 0); err != nil {
			return "", err
		}
		if err := fw.Admit(sName, sched); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(sName, "in0", qName, IPacketPullID); err != nil {
			return "", err
		}
		if _, err := fw.Capsule().Bind(sName, "out", ShardName(shard, "egress"), IPacketPushID); err != nil {
			return "", err
		}
		return qName, nil
	}
}

// waitSinkTotal polls until the sink has received want packets.
func waitSinkTotal(t *testing.T, sink *recordingSink, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for sink.total() != want {
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d of %d", sink.total(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitSinkAbove spins until the sink has received more than n packets and
// returns the new total, so the caller's next step provably runs under
// traffic.
func waitSinkAbove(t *testing.T, sink *recordingSink, n int) int {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if got := sink.total(); got > n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d: no traffic", n)
		}
		runtime.Gosched()
	}
}

// TestShardedCFHotSwapLosslessUnderLoad is the reconfig-under-traffic
// stress test: producers drive all shards at full rate while the buffered
// queue component of EVERY replica is hot-swapped (twice), with Exportable
// state migration. Afterwards: zero packet loss (every sent packet reaches
// the sink exactly once, in per-flow order) and audit-count conservation
// across shards (dispatcher in == sum of per-shard in == sink out, no
// drops anywhere).
func TestShardedCFHotSwapLosslessUnderLoad(t *testing.T) {
	const (
		shards    = 4
		producers = 3
		perProd   = 1024 // batch ceiling per producer; fits one replica's queue
		batchSz   = 8
		flows     = 24
	)
	_, s, sink := buildSharded(t, shards, queueReplica(1<<15))

	var seqMu sync.Mutex
	seqs := make([]uint32, flows)
	total := 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Sequence numbers are assigned under one lock so the
				// global per-flow order is well-defined even with several
				// producers; the batch is pushed under the same lock to
				// keep assignment order and dispatch order identical.
				seqMu.Lock()
				batch := GetBatch()
				for j := 0; j < batchSz; j++ {
					f := (total + j) % flows
					batch = append(batch, mkFlowPacket(t, uint32(f), seqs[f]))
					seqs[f]++
				}
				total += batchSz
				err := s.PushBatch(batch)
				seqMu.Unlock()
				PutBatch(batch)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Two full-fleet hot-swaps while the producers hammer every shard:
	// each waits for fresh deliveries, so each provably runs under traffic.
	seen := 0
	for swap := 0; swap < 2; swap++ {
		seen = waitSinkAbove(t, sink, seen)
		oldName, newName := "queue", "queue2"
		if swap == 1 {
			oldName, newName = "queue2", "queue"
		}
		err := s.HotSwap(oldName, newName, func(shard int) (core.Component, error) {
			return NewFIFOQueue(1 << 15)
		})
		if err != nil {
			t.Fatalf("hot-swap %d: %v", swap, err)
		}
	}
	close(stop)
	wg.Wait()
	quiesce(t, s) // rings drained into the (new) queues
	waitSinkTotal(t, sink, total)
	sink.perFlowInOrder(t)

	// Audit-count conservation: dispatcher in == sum of shard ins == sink
	// deliveries, and nothing dropped anywhere in the sharded CF.
	stats := s.ElemStats()
	if stats.In != uint64(total) || stats.Dropped != 0 || stats.Errors != 0 {
		t.Fatalf("aggregate stats %+v, want in=%d dropped=0", stats, total)
	}
	var perShard uint64
	for i := 0; i < shards; i++ {
		st := s.ShardStats(i)
		if st.Dropped != 0 || st.Errors != 0 {
			t.Fatalf("shard %d lost packets: %+v", i, st)
		}
		perShard += st.In
	}
	if perShard != uint64(total) {
		t.Fatalf("per-shard sum %d != sent %d", perShard, total)
	}
	if stats.Out != uint64(total) {
		t.Fatalf("egress merged %d of %d", stats.Out, total)
	}
}

// TestShardedCFConcurrentProducersRescaleAndStop: four unserialised
// producers with disjoint flow sets push into one 4-lane plane while it
// rescales 4 -> 2 -> 4 and then stops mid-traffic. Every accepted packet
// is delivered in per-flow order, every refused push reports ErrStopped
// and counts as dropped, and the plane's books balance.
func TestShardedCFConcurrentProducersRescaleAndStop(t *testing.T) {
	const producers, flowsPer, batchSz = 4, 6, 12
	_, s, sink := buildSharded(t, 4, counterReplica)
	type result struct {
		accepted, refused int
		err               error
	}
	results := make(chan result, producers)
	for pr := 0; pr < producers; pr++ {
		go func(first uint32) {
			var r result
			seqs := make([]uint32, flowsPer)
			for r.err == nil {
				batch := GetBatch()
				for j := 0; j < batchSz; j++ {
					f := j % flowsPer
					batch = append(batch, mkFlowPacket(t, first+uint32(f), seqs[f]))
					seqs[f]++
				}
				if r.err = s.PushBatch(batch); r.err == nil {
					r.accepted += len(batch)
				} else {
					r.refused += len(batch)
				}
				PutBatch(batch)
			}
			results <- r
		}(uint32(pr * flowsPer))
	}

	ctx := context.Background()
	seen := 0
	for _, target := range []int{2, 4} {
		seen = waitSinkAbove(t, sink, seen)
		if err := s.SetActiveShards(ctx, target); err != nil {
			t.Fatal(err)
		}
	}
	waitSinkAbove(t, sink, seen)
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	accepted, refused := 0, 0
	for range producers {
		r := <-results
		if !errors.Is(r.err, ErrStopped) {
			t.Fatalf("refused push returned %v, want %v", r.err, ErrStopped)
		}
		accepted += r.accepted
		refused += r.refused
	}
	if got := sink.total(); got != accepted {
		t.Fatalf("sink received %d of %d accepted", got, accepted)
	}
	sink.perFlowInOrder(t)
	st := s.ElemStats()
	if st.Out != uint64(accepted) || st.Dropped != uint64(refused) || st.In != st.Out+st.Dropped {
		t.Fatalf("stats %+v, want out=%d dropped=%d in=out+dropped", st, accepted, refused)
	}
}

// TestShardedCFStopWaitsOutBlockedProducer: a producer blocked on a full
// ring holds the intake fence, so Stop waits it out. Once the wedged
// replica lets go, the blocked batch is accepted and delivered before Stop
// returns, and the next push is refused.
func TestShardedCFStopWaitsOutBlockedProducer(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	_, s, sink := buildSharded(t, 1, stallReplica(func() {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}))
	var unwedge sync.Once
	t.Cleanup(func() { unwedge.Do(func() { close(release) }) }) // before Stop drains
	// The worker holds the first packet in the wedged replica, so the
	// producer's only stall is on the full ring behind it, inside PushBatch.
	if err := s.Push(mkFlowPacket(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
	<-entered
	accepted := make(chan int, 1)
	go func() {
		n := 1
		for s.Push(mkFlowPacket(t, 1, uint32(n))) == nil {
			n++
		}
		accepted <- n
	}()
	ring := s.shards[0].ring
	for ring.stalls.Load() == 0 {
		runtime.Gosched()
	}

	stopped := make(chan error, 1)
	go func() { stopped <- s.Stop(context.Background()) }()
	// A pending writer makes TryRLock fail: Stop is waiting on the fence.
	for s.intake.TryRLock() {
		s.intake.RUnlock()
		runtime.Gosched()
	}
	select {
	case err := <-stopped:
		t.Fatalf("Stop returned (%v) while a producer was blocked on a full ring", err)
	default:
	}
	unwedge.Do(func() { close(release) })
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stop still blocked 2s after the lane resumed")
	}
	n := <-accepted
	if want := len(ring.buf) + 2; n != want {
		t.Fatalf("accepted %d pushes, want %d (one in the replica, a full ring, the blocked one)", n, want)
	}
	if got := sink.total(); got != n {
		t.Fatalf("sink received %d of %d accepted before Stop", got, n)
	}
	sink.perFlowInOrder(t)
	if err := s.Push(mkFlowPacket(t, 1, uint32(n+1))); !errors.Is(err, ErrStopped) {
		t.Fatalf("push after Stop: %v, want %v", err, ErrStopped)
	}
	if got := s.ElemStats().Dropped; got != 2 {
		t.Fatalf("dropped %d, want the 2 refused pushes", got)
	}
}

// TestShardedCFHotSwapNamesFailingShard: a replacement factory failure
// surfaces the shard index and leaves the workers running.
func TestShardedCFHotSwapFactoryFailure(t *testing.T) {
	_, s, sink := buildSharded(t, 2, queueReplica(64))
	err := s.HotSwap("queue", "queue2", func(shard int) (core.Component, error) {
		return nil, errors.New("no replacement")
	})
	if err == nil {
		t.Fatal("factory failure not propagated")
	}
	// The CF still forwards after the failed swap.
	if err := s.Push(mkFlowPacket(t, 3, 0)); err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	waitSinkTotal(t, sink, 1)
}

// countSink counts packets without keeping them; unlike countingSink it
// is safe for the concurrent pushes of every shard worker.
type countSink struct {
	*core.Base
	pkts atomic.Int64
}

func (s *countSink) Push(p *Packet) error { return s.PushBatch([]*Packet{p}) }

func (s *countSink) PushBatch(batch []*Packet) error {
	s.pkts.Add(int64(len(batch)))
	return nil
}

// TestShardedCFPushBatchAllocatesNothing: in the steady state a dispatch
// onto a started 2-lane plane allocates nothing — the stage scratch is
// pooled by pointer and the rings reuse their own arrays.
func TestShardedCFPushBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	capsule := core.NewCapsule("shardtest")
	s, err := NewShardedCF(capsule, ShardConfig{Shards: 2}, counterReplica)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{Base: core.NewBase("test.CountSink")}
	sink.Provide(IPacketPushID, sink)
	for name, c := range map[string]core.Component{"sharded": s, "sink": sink} {
		if err := capsule.Insert(name, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectPush(capsule, "sharded", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	if err := capsule.StartAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = capsule.StopAll(context.Background()) })
	batch := make([]*Packet, 16)
	for i := range batch {
		batch[i] = mkFlowPacket(t, uint32(i), 0)
	}
	var want int64
	push := func() {
		// One batch at a time, so the rings never run deeper than the
		// warm-up left them and no array is grown inside the measurement.
		_ = s.PushBatch(batch)
		for want += int64(len(batch)); sink.pkts.Load() < want; {
			runtime.Gosched()
		}
	}
	push()
	if n := testing.AllocsPerRun(200, push); n != 0 {
		t.Fatalf("PushBatch allocates %v times per batch", n)
	}
	if s.ShardStats(0).Out == 0 || s.ShardStats(1).Out == 0 {
		t.Fatal("the batch did not spread over both lanes")
	}
}

// ---- the SPSC ring ---------------------------------------------------------

// TestSPSCRingTransfersInOrder moves batches through the ring with a
// concurrent producer and consumer, checking order, completeness, and the
// blocking-enqueue back-pressure path (ring depth far smaller than the
// transfer count).
func TestSPSCRingTransfersInOrder(t *testing.T) {
	r := newSPSCRing(8)
	const n = 20000
	done := make(chan error, 1)
	go func() {
		var b []*Packet
		next := 0
		for next < n {
			var ok bool
			if b, ok = r.tryDequeue(b); !ok {
				select {
				case <-r.wake:
				case <-time.After(5 * time.Second):
					done <- fmt.Errorf("consumer stalled at %d", next)
					return
				}
				continue
			}
			if len(b) != 1 {
				done <- fmt.Errorf("batch len %d", len(b))
				return
			}
			if _, seq := flowSeq(b[0]); seq != uint32(next) {
				done <- fmt.Errorf("batch %d arrived at position %d", seq, next)
				return
			}
			next++
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		r.enqueue([]*Packet{mkFlowPacket(t, 1, uint32(i))})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok := r.tryDequeue(nil); ok {
		t.Fatal("ring not empty after transfer")
	}
}

// TestSPSCRingReusesWarmArrays pins the ring's ownership of its slot
// arrays: a one-batch-at-a-time transfer keeps cycling the few arrays the
// consumer handed back last instead of one per slot, a freed slot pins no
// packet, and once the arrays are grown a hand-off allocates nothing.
func TestSPSCRingReusesWarmArrays(t *testing.T) {
	r := newSPSCRing(ringDepth)
	pkts := []*Packet{mkFlowPacket(t, 1, 0), mkFlowPacket(t, 1, 1), mkFlowPacket(t, 1, 2)}
	arrays := map[**Packet]bool{}
	var b []*Packet
	for i := 0; i < 1000; i++ {
		in := pkts[:len(pkts)-i%len(pkts)] // shrinking lengths, so no array regrows
		r.enqueue(in)
		var ok bool
		if b, ok = r.tryDequeue(b); !ok || len(b) != len(in) || b[0] != in[0] {
			t.Fatalf("batch %d: got %d packets (ok=%v), want %d", i, len(b), ok, len(in))
		}
		arrays[unsafe.SliceData(b)] = true
		freed := r.buf[(r.head.Load()-1)&r.mask]
		for j, p := range freed[:cap(freed)] {
			if p != nil {
				t.Fatalf("batch %d: freed slot still holds a packet at %d", i, j)
			}
		}
	}
	if len(arrays) > 3 {
		t.Fatalf("1000 one-at-a-time batches went through %d backing arrays, want <= 3", len(arrays))
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.enqueue(pkts)
		b, _ = r.tryDequeue(b)
	}); n != 0 {
		t.Fatalf("an enqueue/dequeue cycle allocates %v times", n)
	}
}

// TestSPSCRingSwapRace runs a full-speed producer against a full-speed
// consumer on rings so shallow that the tail slot and the warm slot behind
// head coincide often, checking that every batch arrives whole and in
// order — the property the producer's array swap must not break.
func TestSPSCRingSwapRace(t *testing.T) {
	const n = 20000
	pkts := make([]*Packet, n+3)
	for i := range pkts {
		pkts[i] = mkFlowPacket(t, 1, uint32(i))
	}
	for _, depth := range []int{2, 4} {
		t.Run(strconv.Itoa(depth), func(t *testing.T) {
			r := newSPSCRing(depth)
			done := make(chan error, 1)
			go func() {
				// After a mismatch the consumer keeps draining, so the
				// producer never blocks on a ring nobody empties.
				var b []*Packet
				var err error
				next := 0
				for next < n {
					var ok bool
					if b, ok = r.tryDequeue(b); !ok {
						select {
						case <-r.wake:
						case <-time.After(5 * time.Second):
							done <- errors.Join(err, fmt.Errorf("consumer stalled at %d", next))
							return
						}
						continue
					}
					for _, p := range b {
						if _, seq := flowSeq(p); seq != uint32(next) && err == nil {
							err = fmt.Errorf("packet %d arrived at position %d", seq, next)
						}
						next++
					}
				}
				done <- err
			}()
			for i, j := 0, 0; i < n; j++ {
				k := 1 + j%3
				r.enqueue(pkts[i : i+k])
				i += k
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if _, ok := r.tryDequeue(nil); ok {
				t.Fatal("ring not empty after transfer")
			}
		})
	}
}

// ---- flow hash -------------------------------------------------------------

// TestFlowHashIgnoresNonFlowFields: per-hop mutation (TTL, checksum) and
// payload must not move a flow between shards.
func TestFlowHashIgnoresNonFlowFields(t *testing.T) {
	p1 := mkFlowPacket(t, 42, 0)
	p2 := mkFlowPacket(t, 42, 999) // same flow, different payload
	if FlowHash(p1) != FlowHash(p2) {
		t.Fatal("payload changed the flow hash")
	}
	if err := packet.DecrementTTL(p1.Data); err != nil {
		t.Fatal(err)
	}
	if FlowHash(p1) != FlowHash(p2) {
		t.Fatal("TTL decrement changed the flow hash")
	}
	if FlowHash(p1) != FlowHash(p1) {
		t.Fatal("hash not deterministic")
	}
	p3 := mkFlowPacket(t, 43, 0)
	if FlowHash(p1) == FlowHash(p3) {
		t.Fatal("distinct flows collided (bad test fixture or degenerate hash)")
	}
}

func TestFlowHashHandlesGarbage(t *testing.T) {
	inputs := [][]byte{nil, {}, {0x45}, {0x60, 1, 2}, make([]byte, 19), make([]byte, 39), {0xff, 0xff}}
	for _, in := range inputs {
		if got := FlowHashRaw(in); got != 0 {
			t.Fatalf("unparseable input %v hashed to %d, want 0", in, got)
		}
	}
}

func TestFlowHashIPv6(t *testing.T) {
	src := netip.MustParseAddr("2001:db8::1")
	dst := netip.MustParseAddr("2001:db8::2")
	a, err := packet.BuildUDP6(src, dst, 1000, 53, 64, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := packet.BuildUDP6(src, dst, 1000, 53, 64, []byte("yy"))
	if err != nil {
		t.Fatal(err)
	}
	if FlowHashRaw(a) != FlowHashRaw(b) {
		t.Fatal("same v6 flow hashed apart")
	}
	c, err := packet.BuildUDP6(src, dst, 1001, 53, 64, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if FlowHashRaw(a) == FlowHashRaw(c) {
		t.Fatal("v6 port ignored")
	}
	if err := packet.DecrementHopLimit(a); err != nil {
		t.Fatal(err)
	}
	if FlowHashRaw(a) != FlowHashRaw(b) {
		t.Fatal("hop-limit decrement changed the v6 flow hash")
	}
}

// TestFlowShardBalance: across many flows, no shard of 4 should be starved
// or hogged beyond 2x the fair share (loose bound; FNV over real tuples).
func TestFlowShardBalance(t *testing.T) {
	counts := make([]int, 4)
	const flows = 4096
	for f := uint32(0); f < flows; f++ {
		counts[FlowShard(mkFlowPacket(t, f, 0), 4)]++
	}
	fair := flows / 4
	for i, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Fatalf("shard %d has %d of %d flows (distribution %v)", i, c, flows, counts)
		}
	}
}

// TestShardedCFHotSwapRetryAfterPartialFailure: when a fleet swap fails
// partway (some replicas swapped, some not), retrying with the same
// arguments skips the already-swapped replicas and completes the rest,
// leaving every replica on the new component and traffic flowing.
func TestShardedCFHotSwapRetryAfterPartialFailure(t *testing.T) {
	_, s, sink := buildSharded(t, 3, queueReplica(64))
	calls := 0
	failSecond := func(shard int) (core.Component, error) {
		calls++
		if calls == 2 {
			return nil, errors.New("transient")
		}
		return NewFIFOQueue(64)
	}
	if err := s.HotSwap("queue", "queue2", failSecond); err == nil {
		t.Fatal("partial failure not reported")
	}
	// Shard 0 swapped, shards 1..2 did not.
	inner := s.Inner()
	if _, ok := inner.Component(ShardName(0, "queue2")); !ok {
		t.Fatal("shard 0 not swapped before the failure")
	}
	if _, ok := inner.Component(ShardName(1, "queue")); !ok {
		t.Fatal("shard 1 unexpectedly swapped")
	}
	// Retry with a working factory: only the unswapped replicas are
	// re-attempted, and the fleet converges.
	made := 0
	if err := s.HotSwap("queue", "queue2", func(shard int) (core.Component, error) {
		made++
		return NewFIFOQueue(64)
	}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if made != 2 {
		t.Fatalf("retry built %d replacements, want 2 (shard 0 already swapped)", made)
	}
	for i := 0; i < 3; i++ {
		if _, ok := inner.Component(ShardName(i, "queue2")); !ok {
			t.Fatalf("shard %d missing queue2 after retry", i)
		}
		if _, ok := inner.Component(ShardName(i, "queue")); ok {
			t.Fatalf("shard %d still has the old queue after retry", i)
		}
	}
	// A swap whose old name exists nowhere fails loudly.
	if err := s.HotSwap("nosuch", "x", func(int) (core.Component, error) {
		return NewFIFOQueue(8)
	}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unknown component: %v", err)
	}
	// The converged fleet still forwards.
	const n = 40
	for i := uint32(0); i < n; i++ {
		if err := s.Push(mkFlowPacket(t, i%6, i/6)); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s)
	waitSinkTotal(t, sink, n)
}

// TestShardedCFHotSwapRetryAfterInsertFailure covers router.HotSwap's
// failure-after-insert mode: a replacement lacking the old component's
// receptacles is rejected AFTER being inserted, leaving the shard with
// both old and new names. The fleet retry must clean up the abandoned
// remnant and converge.
func TestShardedCFHotSwapRetryAfterInsertFailure(t *testing.T) {
	_, s, sink := buildSharded(t, 3, counterReplica)
	badOnShard1 := func(shard int) (core.Component, error) {
		if shard == 1 {
			return NewDropper(), nil // lacks the "out" receptacle cnt carries
		}
		return NewCounter(), nil
	}
	if err := s.HotSwap("cnt", "cnt2", badOnShard1); err == nil {
		t.Fatal("receptacle-less replacement accepted")
	}
	inner := s.Inner()
	if _, ok := inner.Component(ShardName(1, "cnt")); !ok {
		t.Fatal("shard 1 lost its old component on the failed swap")
	}
	if _, ok := inner.Component(ShardName(1, "cnt2")); !ok {
		t.Fatal("expected the abandoned replacement to still be inserted")
	}
	if err := s.HotSwap("cnt", "cnt2", func(int) (core.Component, error) {
		return NewCounter(), nil
	}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := inner.Component(ShardName(i, "cnt2")); !ok {
			t.Fatalf("shard %d missing cnt2 after retry", i)
		}
		if _, ok := inner.Component(ShardName(i, "cnt")); ok {
			t.Fatalf("shard %d still has cnt after retry", i)
		}
	}
	const n = 30
	for i := uint32(0); i < n; i++ {
		if err := s.Push(mkFlowPacket(t, i%5, i/5)); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s)
	waitSinkTotal(t, sink, n)
	sink.perFlowInOrder(t)
}

// ---- active-lane rescaling -------------------------------------------------

// TestSetActiveShardsRescaleUnderTraffic drives continuous multi-flow
// traffic through a 4-lane CF while repeatedly rescaling the dispatcher
// 1 -> 4 -> 2 -> 4 lanes. The contract matches HotSwap's: zero loss
// (back-pressure during the drain window, never drops) and per-flow
// order preserved across every rescale, because a rescale only commits
// once every accepted packet has drained through its old lane.
func TestSetActiveShardsRescaleUnderTraffic(t *testing.T) {
	_, s, sink := buildShardedActive(t, 4, 1, counterReplica)
	if got := s.ActiveShards(); got != 1 {
		t.Fatalf("initial active = %d, want 1", got)
	}

	const flows = 16
	stop := make(chan struct{})
	sent := make(chan int, 1)
	go func() {
		seqs := make([]uint32, flows)
		for rounds := 0; ; rounds++ {
			select {
			case <-stop:
				sent <- rounds * flows
				return
			default:
			}
			batch := GetBatch()
			for f := 0; f < flows; f++ {
				batch = append(batch, mkFlowPacket(t, uint32(f), seqs[f]))
				seqs[f]++
			}
			if err := s.PushBatch(batch); err != nil {
				t.Error(err)
			}
			PutBatch(batch)
		}
	}()
	seen := 0
	for _, target := range []int{4, 2, 4} {
		seen = waitSinkAbove(t, sink, seen) // the rescale runs under traffic
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.SetActiveShards(ctx, target); err != nil {
			t.Fatal(err)
		}
		cancel()
		if got := s.ActiveShards(); got != target {
			t.Fatalf("active = %d, want %d", got, target)
		}
	}
	close(stop)
	total := <-sent
	quiesce(t, s)

	waitSinkTotal(t, sink, total)
	sink.perFlowInOrder(t)
	if st := s.ElemStats(); st.In != uint64(total) || st.Out != uint64(total) || st.Dropped != 0 {
		t.Fatalf("stats %+v, want in=out=%d dropped=0", st, total)
	}
	// The annotation tracks the final lane count for the meta-space.
	if v := s.Annotations()[AnnotActiveShards]; v != "4" {
		t.Fatalf("annotation %q, want 4", v)
	}
	// Clamping: out-of-range targets saturate instead of failing.
	ctx := context.Background()
	if err := s.SetActiveShards(ctx, 99); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveShards(); got != 4 {
		t.Fatalf("clamped high = %d, want 4", got)
	}
	if err := s.SetActiveShards(ctx, -3); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveShards(); got != 1 {
		t.Fatalf("clamped low = %d, want 1", got)
	}
}

// buildShardedActive is buildSharded with an explicit initial active-lane
// count.
func buildShardedActive(t *testing.T, n, active int, build ReplicaFactory) (*core.Capsule, *ShardedCF, *recordingSink) {
	t.Helper()
	capsule := core.NewCapsule("shardtest")
	s, err := NewShardedCF(capsule, ShardConfig{Shards: n}, build)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetActiveShards(context.Background(), active); err != nil {
		t.Fatal(err)
	}
	sink := newRecordingSink()
	if err := capsule.Insert("sharded", s); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(capsule, "sharded", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	if err := capsule.StartAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = capsule.StopAll(context.Background()) })
	return capsule, s, sink
}

// ---- latency histograms ----------------------------------------------------

// TestShardedCFLatencyHistogram asserts the LatencyHistogram option closes
// the loop from hot-path stamping to the stats tree: every delivered packet
// is recorded in exactly one lane's StatLatency histogram, the CF-level
// stat is the bucket-wise merge of the lanes, and quantiles answer
// plausibly (positive, and at least the sleep injected into one replica).
func TestShardedCFLatencyHistogram(t *testing.T) {
	const shards, packets = 4, 400
	capsule := core.NewCapsule("shardtest")
	s, err := NewShardedCF(capsule, ShardConfig{Shards: shards, LatencyHistogram: true}, counterReplica)
	if err != nil {
		t.Fatal(err)
	}
	sink := newRecordingSink()
	if err := capsule.Insert("sharded", s); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(capsule, "sharded", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	if err := capsule.StartAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = capsule.StopAll(context.Background()) })

	batch := GetBatch()
	for i := 0; i < packets; i++ {
		batch = append(batch, mkFlowPacket(t, uint32(i%37), uint32(i/37)))
		if len(batch) == 32 {
			if err := s.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = GetBatch()
		}
	}
	if len(batch) > 0 {
		if err := s.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s)

	tree := s.StatsTree()
	var laneTotal uint64
	var laneMerged *core.HistSnapshot
	for i := 0; i < shards; i++ {
		lane, ok := tree.Find("shard" + strconv.Itoa(i))
		if !ok {
			t.Fatalf("no lane shard%d in stats tree", i)
		}
		st, ok := lane.Stat(StatLatency)
		if !ok {
			t.Fatalf("lane shard%d has no %s stat", i, StatLatency)
		}
		if st.Kind != core.KindHistogram || st.Hist == nil || st.Unit != "ns" {
			t.Fatalf("lane shard%d latency stat malformed: %+v", i, st)
		}
		laneTotal += st.Hist.Count
		laneMerged = laneMerged.Merge(st.Hist)
	}
	if laneTotal != packets {
		t.Fatalf("lanes recorded %d observations, want %d", laneTotal, packets)
	}
	root, ok := tree.Stat(StatLatency)
	if !ok {
		t.Fatalf("CF root has no %s stat", StatLatency)
	}
	if root.Hist.Count != packets || root.Value != float64(packets) {
		t.Fatalf("root histogram count %d/%v, want %d", root.Hist.Count, root.Value, packets)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if got, want := root.Hist.Quantile(q), laneMerged.Quantile(q); got != want {
			t.Fatalf("root q%.3f = %v, lane merge says %v", q, got, want)
		}
	}
	if p50 := root.Hist.Quantile(0.5); p50 <= 0 {
		t.Fatalf("p50 residence %v should be positive", p50)
	}
}

// TestShardedCFLatencyRespectsUpstreamStamp asserts a Born stamped by an
// upstream driver (end-to-end measurement) is preserved, so the lane
// histogram reflects the driver's clock origin, not the dispatcher's.
func TestShardedCFLatencyRespectsUpstreamStamp(t *testing.T) {
	capsule := core.NewCapsule("shardtest")
	s, err := NewShardedCF(capsule, ShardConfig{Shards: 1, LatencyHistogram: true}, counterReplica)
	if err != nil {
		t.Fatal(err)
	}
	sink := newRecordingSink()
	if err := capsule.Insert("sharded", s); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(capsule, "sharded", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	if err := capsule.StartAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = capsule.StopAll(context.Background()) })

	const upstream = 40 * time.Millisecond
	time.Sleep(upstream + 5*time.Millisecond) // ensure the clock is past the offset
	p := mkFlowPacket(t, 1, 0)
	p.Born = Nanotime() - int64(upstream) // stamped 40ms "ago" by a driver
	if err := s.Push(p); err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	tree := s.StatsTree()
	st, ok := tree.Stat(StatLatency)
	if !ok || st.Hist.Count != 1 {
		t.Fatalf("expected one latency observation, got %+v", st)
	}
	if min := float64(upstream); st.Hist.Quantile(1) < min {
		t.Fatalf("recorded latency %v ns must include the upstream %v", st.Hist.Quantile(1), upstream)
	}
}
