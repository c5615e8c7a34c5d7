package router

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"netkit/cf"
	"netkit/core"
	"netkit/packet"
)

// Tests for bind-time chain fusion (DESIGN.md §8): one N-hop plan must be
// observationally indistinguishable from N chained one-hop plans — same
// deliveries, same per-flow order, same counters, same errors — and must
// de-specialise losslessly the instant the meta-level touches the chain.

// statMap projects a component's flat stats into name -> value, the shape
// the equivalence assertions compare hop by hop.
func statMap(c core.Component) map[string]float64 {
	out := map[string]float64{}
	if st, ok := c.(core.IStats); ok {
		for _, s := range st.Stats() {
			if s.Hist == nil {
				out[s.Name] = s.Value
			}
		}
	}
	return out
}

// mkTTLPacket is mkFlowPacket with a chosen TTL and optionally a corrupted
// header checksum — the two levers that make IPv4Proc and
// ChecksumValidator drop deterministically.
func mkTTLPacket(t testing.TB, flow, seq uint32, ttl uint8, corrupt bool) *Packet {
	t.Helper()
	src := netip.AddrFrom4([4]byte{10, 0, byte(flow >> 8), byte(flow)})
	dst := netip.AddrFrom4([4]byte{192, 168, byte(flow >> 8), byte(flow)})
	payload := make([]byte, 8)
	payload[0] = byte(flow >> 24)
	payload[1] = byte(flow >> 16)
	payload[2] = byte(flow >> 8)
	payload[3] = byte(flow)
	payload[4] = byte(seq >> 24)
	payload[5] = byte(seq >> 16)
	payload[6] = byte(seq >> 8)
	payload[7] = byte(seq)
	raw, err := packet.BuildUDP4(src, dst, uint16(1000+flow%100), 53, ttl, payload)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		raw[10] ^= 0xff // break the header checksum
	}
	return NewPacket(raw)
}

// buildFusedChain assembles fp -> comps[0] -> ... -> comps[n-1] -> sink in
// a fresh capsule and returns the FastPath head. A nil sink leaves the
// last component's receptacle unbound (or the chain may end in a terminal
// Dropper).
func buildFusedChain(t testing.TB, comps []core.Component, sink core.Component) (*core.Capsule, *FastPath) {
	t.Helper()
	c := core.NewCapsule("fusetest")
	fp := NewFastPath(c)
	if err := c.Insert("fp", fp); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(comps))
	for i, comp := range comps {
		names[i] = "hop" + string(rune('a'+i))
		if err := c.Insert(names[i], comp); err != nil {
			t.Fatal(err)
		}
	}
	prev := "fp"
	for _, name := range names {
		if _, err := ConnectPush(c, prev, "out", name); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	if sink != nil {
		if err := c.Insert("sink", sink); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(c, prev, "out", "sink"); err != nil {
			t.Fatal(err)
		}
	}
	return c, fp
}

// TestFastPathFusesChain pins the basic contract: an interceptor-free
// chain of fusible hops compiles into one plan covering every hop, traffic
// through the fused plan is delivered and counted exactly as hop-by-hop
// semantics dictate, and specialised counters (byte totals, TTL drops)
// keep working.
func TestFastPathFusesChain(t *testing.T) {
	cnt := NewCounter()
	v4 := NewIPv4Proc(true)
	sink := newRecordingSink()
	_, fp := buildFusedChain(t, []core.Component{cnt, v4}, sink)

	// Eager compile at attach + the chain wired afterwards means the first
	// push re-fuses; drive one packet, then assert the plan covers both
	// hops.
	if err := fp.Push(mkTTLPacket(t, 1, 0, 64, false)); err != nil {
		t.Fatal(err)
	}
	if got := fp.Fuser().FusedHops(); got != 2 {
		t.Fatalf("fused hops = %d, want 2", got)
	}

	// A batch with one TTL-expiring packet: the expired one drops at v4,
	// the rest reach the sink.
	batch := []*Packet{
		mkTTLPacket(t, 1, 1, 64, false),
		mkTTLPacket(t, 2, 0, 1, false), // TTL 1 -> expires at v4
		mkTTLPacket(t, 1, 2, 64, false),
	}
	if err := fp.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := sink.total(); got != 3 { // 1 warmup + 2 survivors
		t.Fatalf("sink got %d packets, want 3", got)
	}
	sink.perFlowInOrder(t)

	cs := statMap(cnt)
	vs := statMap(v4)
	if cs["packets_in"] != 4 || cs["packets_out"] != 4 || cs["packets_dropped"] != 0 {
		t.Fatalf("counter stats %v", cs)
	}
	if cs["bytes_in"] == 0 {
		t.Fatalf("fused counter lost its byte meter: %v", cs)
	}
	if vs["packets_in"] != 4 || vs["packets_out"] != 3 || vs["packets_dropped"] != 1 || vs["ttl_drops"] != 1 {
		t.Fatalf("v4 stats %v", vs)
	}
	fs := statMap(fp)
	if fs["packets_in"] != 4 || fs["packets_out"] != 4 || fs["fused"] != 2 {
		t.Fatalf("fastpath stats %v", fs)
	}
	if fs["fusions"] < 1 {
		t.Fatalf("no fusion counted: %v", fs)
	}
}

// TestFusedInterceptLifecycle pins the de-specialise/re-fuse loop: the
// fused gauge drops to zero the instant an interceptor lands on any chain
// binding (synchronous watcher, not an eventually-consistent event), the
// interceptor observes every packet pushed after install, and removal
// re-fuses on the next crossing.
func TestFusedInterceptLifecycle(t *testing.T) {
	cnt := NewCounter()
	cnt2 := NewCounter()
	sink := newRecordingSink()
	capsule, fp := buildFusedChain(t, []core.Component{cnt, cnt2}, sink)
	if err := fp.Push(mkTTLPacket(t, 1, 0, 64, false)); err != nil {
		t.Fatal(err)
	}
	if got := fp.Fuser().FusedHops(); got != 2 {
		t.Fatalf("fused hops = %d, want 2", got)
	}

	// Intercept the mid-chain binding hopa -> hopb.
	var audited int
	var mu sync.Mutex
	around := core.PrePost(func(op string, args []any) {
		mu.Lock()
		audited += PacketCount(op, args)
		mu.Unlock()
	}, nil)
	var mid *core.Binding
	for _, b := range capsule.BindingsOf("hopa") {
		mid = b
	}
	if mid == nil {
		t.Fatal("mid-chain binding not found")
	}
	if err := mid.AddInterceptor(core.Interceptor{Name: "audit", Wrap: around}); err != nil {
		t.Fatal(err)
	}
	if got := fp.Fuser().FusedHops(); got != 0 {
		t.Fatalf("plan survived interceptor install: %d hops", got)
	}

	// Every packet pushed now must cross the chain: batches count once per
	// packet (PacketCount), and nothing is lost while de-specialised.
	if err := fp.PushBatch([]*Packet{
		mkTTLPacket(t, 1, 1, 64, false),
		mkTTLPacket(t, 1, 2, 64, false),
	}); err != nil {
		t.Fatal(err)
	}
	if err := fp.Push(mkTTLPacket(t, 1, 3, 64, false)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := audited
	mu.Unlock()
	if got != 3 {
		t.Fatalf("audit saw %d packets, want 3", got)
	}
	if sink.total() != 4 {
		t.Fatalf("sink got %d, want 4", sink.total())
	}

	// Removal re-fuses on the next crossing; the chain goes quiet.
	if err := mid.RemoveInterceptor("audit"); err != nil {
		t.Fatal(err)
	}
	if err := fp.Push(mkTTLPacket(t, 1, 4, 64, false)); err != nil {
		t.Fatal(err)
	}
	if got := fp.Fuser().FusedHops(); got != 2 {
		t.Fatalf("chain did not re-fuse after removal: %d hops", got)
	}
	mu.Lock()
	after := audited
	mu.Unlock()
	if after != 3 {
		t.Fatalf("audit still counting after removal: %d", after)
	}
	sink.perFlowInOrder(t)
	if fp.Fuser().Invalidations() < 2 {
		t.Fatalf("expected >=2 invalidations, got %d", fp.Fuser().Invalidations())
	}
}

// TestFastPathPushBatchAllocatesNothing pins both plan forms' steady
// state: a fusable chain runs its compiled plan, and an unfusable one the
// head's one-hop plan stamped with its generation — the negative cache —
// so neither recompiles nor allocates per batch.
func TestFastPathPushBatchAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		comps []core.Component
		fused int
	}{
		{"fusable", []core.Component{NewCounter(), NewCounter()}, 2},
		{"unfusable", []core.Component{NewCounter()}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, fp := buildFusedChain(t, tc.comps, newCountingSink())
			batch := []*Packet{mkTTLPacket(t, 1, 0, 64, false), mkTTLPacket(t, 2, 0, 64, false)}
			if n := testing.AllocsPerRun(200, func() { _ = fp.PushBatch(batch) }); n != 0 {
				t.Fatalf("PushBatch allocates %v times per batch", n)
			}
			if got := fp.Fuser().FusedHops(); got != tc.fused {
				t.Fatalf("fused hops = %d, want %d", got, tc.fused)
			}
		})
	}
}

// TestFusedTerminalChain pins terminal plans: a chain ending in a Dropper
// fuses with no tail, consumes everything, and counts drops at the
// terminal hop exactly as the unfused Dropper would.
func TestFusedTerminalChain(t *testing.T) {
	cnt := NewCounter()
	drop := NewDropper()
	_, fp := buildFusedChain(t, []core.Component{cnt, drop}, nil)
	batch := make([]*Packet, 5)
	for i := range batch {
		batch[i] = mkTTLPacket(t, 1, uint32(i), 64, false)
	}
	if err := fp.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := fp.Fuser().FusedHops(); got != 2 {
		t.Fatalf("fused hops = %d, want 2", got)
	}
	ds := statMap(drop)
	cs := statMap(cnt)
	if cs["packets_in"] != 5 || cs["packets_out"] != 5 {
		t.Fatalf("counter stats %v", cs)
	}
	if ds["packets_in"] != 5 || ds["packets_dropped"] != 5 || ds["packets_out"] != 0 {
		t.Fatalf("dropper stats %v", ds)
	}
}

// FuzzFusedEquivalence is the fusion correctness contract as a fuzz
// property: for ANY chain drawn from the fusible palette, ANY packet
// stream (mixed TTLs, corrupted checksums), ANY batch segmentation, and
// both entry forms (Push and PushBatch), one N-hop plan and an identical
// chain of N one-hop plans deliver the same packets in the same per-flow
// order and finish with identical counters on every hop — shared and
// specialised. Both sides run the same runner, so for shaper-free chains
// the delivery count is also checked against a model that knows only the
// stream: which packets expire, which fail their checksum.
func FuzzFusedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(7), []byte{4, 9, 2}, false)
	f.Add(uint64(99), uint8(0), uint8(0), []byte{1}, true)
	f.Add(uint64(7), uint8(5), uint8(255), []byte{32, 32}, false)
	f.Fuzz(func(t *testing.T, seed uint64, shape, mix uint8, splits []byte, perPacket bool) {
		if seed == 0 {
			seed = 1
		}
		rng := xorshift(seed)
		hops := 2 + int(shape%5)

		// Two identical chains from the fusible palette. The shaper gets a
		// frozen clock so its byte budget — and therefore its drop pattern
		// — is a pure function of the packet sequence.
		frozen := time.Now()
		clock := func() time.Time { return frozen }
		// survives is the stream-side model of one hop: does a packet with
		// this TTL and checksum state come out the other end? nil for the
		// shaper, whose verdict depends on what came before.
		type survives func(ttl *uint8, corrupt bool) bool
		var model []survives
		mkChain := func() []core.Component {
			r := xorshift(seed) // same draw sequence for both chains
			comps := make([]core.Component, hops)
			model = model[:0]
			for i := range comps {
				switch r.next() % 4 {
				case 0:
					comps[i] = NewCounter()
					model = append(model, func(*uint8, bool) bool { return true })
				case 1:
					validate := r.next()%2 == 0
					comps[i] = NewIPv4Proc(validate)
					model = append(model, func(ttl *uint8, corrupt bool) bool {
						if validate && corrupt {
							return false
						}
						*ttl--
						return *ttl > 0
					})
				case 2:
					comps[i] = NewChecksumValidator()
					model = append(model, func(_ *uint8, corrupt bool) bool { return !corrupt })
				default:
					model = append(model, nil)
					sh, err := NewTokenShaper(1e-6, 256+float64(r.next()%8192), clock)
					if err != nil {
						t.Fatal(err)
					}
					comps[i] = sh
				}
			}
			return comps
		}

		// The stream: per-flow sequenced packets with fuzz-chosen TTLs and
		// occasional checksum corruption, so drops happen at different
		// depths.
		flows := 1 + int(rng.next()%8)
		const total = 160
		type unit struct {
			flow, seq uint32
			ttl       uint8
			corrupt   bool
		}
		stream := make([]unit, total)
		seqs := make([]uint32, flows)
		for i := range stream {
			fl := uint32(rng.next() % uint64(flows))
			ttl := uint8(64)
			switch rng.next() % 8 {
			case 0:
				ttl = 1
			case 1:
				ttl = 2
			}
			corrupt := mix != 0 && rng.next()%uint64(mix)+1 == 1
			stream[i] = unit{fl, seqs[fl], ttl, corrupt}
			seqs[fl]++
		}

		fusedComps := mkChain()
		fusedSink := newRecordingSink()
		_, fp := buildFusedChain(t, fusedComps, fusedSink)

		refComps := mkChain()
		refSink := newRecordingSink()
		refCapsule := core.NewCapsule("ref")
		prev := ""
		for i, comp := range refComps {
			name := "hop" + string(rune('a'+i))
			if err := refCapsule.Insert(name, comp); err != nil {
				t.Fatal(err)
			}
			if prev != "" {
				if _, err := ConnectPush(refCapsule, prev, "out", name); err != nil {
					t.Fatal(err)
				}
			}
			prev = name
		}
		if err := refCapsule.Insert("sink", refSink); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(refCapsule, prev, "out", "sink"); err != nil {
			t.Fatal(err)
		}
		refHead := refComps[0].(IPacketPush)

		// Drive both with the same segmentation. The reference head is hit
		// directly (no FastPath), so every hop runs its own one-hop plan.
		k := 0
		limit := func() int {
			if len(splits) == 0 {
				return 1
			}
			n := 1 + int(splits[k%len(splits)]%32)
			k++
			return n
		}
		push := func(dst IPacketPush, u unit) {
			if err := dst.Push(mkTTLPacket(t, u.flow, u.seq, u.ttl, u.corrupt)); err != nil {
				t.Fatal(err)
			}
		}
		if perPacket {
			for _, u := range stream {
				push(fp, u)
				push(refHead, u)
			}
		} else {
			drive := func(dst IPacketPush) {
				var batch []*Packet
				lim := limit()
				for _, u := range stream {
					batch = append(batch, mkTTLPacket(t, u.flow, u.seq, u.ttl, u.corrupt))
					if len(batch) >= lim {
						if err := ForwardBatch(dst, batch); err != nil {
							t.Fatal(err)
						}
						batch = batch[:0]
						lim = limit()
					}
				}
				if err := ForwardBatch(dst, batch); err != nil {
					t.Fatal(err)
				}
			}
			drive(fp)
			k = 0 // same segmentation for the reference
			drive(refHead)
		}

		// The fused chain must actually have fused — the property is vacuous
		// otherwise.
		if got := fp.Fuser().FusedHops(); got != hops {
			t.Fatalf("fused %d of %d hops", got, hops)
		}

		// The deliveries the stream itself predicts.
		want, modelled := 0, true
		for _, u := range stream {
			ttl, alive := u.ttl, true
			for _, hop := range model {
				if hop == nil {
					modelled = false
				} else if alive {
					alive = hop(&ttl, u.corrupt)
				}
			}
			if alive {
				want++
			}
		}
		if modelled && refSink.total() != want {
			t.Fatalf("one-hop chain delivered %d, the stream predicts %d", refSink.total(), want)
		}

		// Same deliveries, same per-flow order.
		if fusedSink.total() != refSink.total() {
			t.Fatalf("fused delivered %d, unfused %d", fusedSink.total(), refSink.total())
		}
		fusedSink.mu.Lock()
		refSink.mu.Lock()
		for fl, want := range refSink.flows {
			got := fusedSink.flows[fl]
			if len(got) != len(want) {
				t.Fatalf("flow %d: fused %d packets, unfused %d", fl, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("flow %d diverges at %d: fused seq %d, unfused %d", fl, i, got[i], want[i])
				}
			}
		}
		refSink.mu.Unlock()
		fusedSink.mu.Unlock()

		// Identical counters on every hop: shared in/out/dropped/errs AND
		// the specialised meters (bytes_in, ttl_drops, cs_drops,
		// shaper_allowed/denied).
		for i := range refComps {
			fs, rs := statMap(fusedComps[i]), statMap(refComps[i])
			for name, want := range rs {
				if fs[name] != want {
					t.Fatalf("hop %d %T stat %q: fused %v, unfused %v (fused %v, unfused %v)",
						i, refComps[i], name, fs[name], want, fs, rs)
				}
			}
		}
	})
}

// fusedCounterReplica builds a two-counter replica chain so each shard
// lane has a fusible depth >= 2: ingress -> c0 -> c1 -> egress.
func fusedCounterReplica(shard int, fw *cf.Framework) (string, error) {
	c0, c1 := ShardName(shard, "c0"), ShardName(shard, "c1")
	if err := fw.Admit(c0, NewCounter()); err != nil {
		return "", err
	}
	if err := fw.Admit(c1, NewCounter()); err != nil {
		return "", err
	}
	if _, err := fw.Capsule().Bind(c0, "out", c1, IPacketPushID); err != nil {
		return "", err
	}
	if _, err := fw.Capsule().Bind(c1, "out", ShardName(shard, "egress"), IPacketPushID); err != nil {
		return "", err
	}
	return c0, nil
}

// laneFusedGauge reads the "fused" gauge of every lane in the stats tree.
func laneFusedGauge(t *testing.T, s *ShardedCF) []float64 {
	t.Helper()
	tree := s.StatsTree()
	var out []float64
	for _, ch := range tree.Children {
		if g, ok := ch.Stat("fused"); ok {
			out = append(out, g.Value)
		}
	}
	return out
}

// assertTravelledLanesFused requires every lane that has carried traffic
// to report a fused plan of the given depth (fusion is lazy: a lane that
// never ran a batch has nothing to specialise), and at least one such
// lane to exist.
func assertTravelledLanesFused(t *testing.T, s *ShardedCF, depth float64) {
	t.Helper()
	travelled := 0
	for i, ch := range s.StatsTree().Children {
		in, ok := ch.Stat("packets_in")
		if !ok || in.Value == 0 {
			continue
		}
		travelled++
		if g, ok := ch.Stat("fused"); !ok || g.Value != depth {
			t.Fatalf("travelled lane %d fused gauge = %v, want %v", i, g.Value, depth)
		}
	}
	if travelled == 0 {
		t.Fatal("no lane carried traffic")
	}
}

// TestShardedFusionInterceptStress is the live-interception contract under
// the race detector: continuous traffic through fused lanes while an
// auditing interceptor is installed and removed repeatedly must lose
// nothing and keep per-flow order; then a quiesced fence epilogue proves
// audit counts are EXACT across the install fence — an interceptor
// installed after Intercept returns observes every subsequent packet, and
// none after removal.
func TestShardedFusionInterceptStress(t *testing.T) {
	_, s, sink := buildSharded(t, 4, fusedCounterReplica)

	// Warm every lane (64 flows spread over 4 shards) and confirm the
	// travelled lanes fused to depth 2. Start events de-specialise the
	// eagerly-built plans, so fusion shows up on first traffic.
	const warmFlows = 64
	warm := GetBatch()
	for fl := uint32(0); fl < warmFlows; fl++ {
		warm = append(warm, mkFlowPacket(t, 1000+fl, 0))
	}
	if err := s.PushBatch(warm); err != nil {
		t.Fatal(err)
	}
	PutBatch(warm)
	quiesce(t, s)
	assertTravelledLanesFused(t, s, 2)

	// Chaos phase: 4 producers with disjoint flows vs an install/remove
	// loop on the ingress binding of every lane.
	const (
		producers = 4
		perFlow   = 200
		flowsPer  = 8
	)
	var audited uint64
	var amu sync.Mutex
	around := core.PrePost(func(op string, args []any) {
		amu.Lock()
		audited += uint64(PacketCount(op, args))
		amu.Unlock()
	}, nil)

	stop := make(chan struct{})
	meddlerDone := make(chan struct{})
	go func() { // meddler: install/remove against live fused traffic
		defer close(meddlerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Intercept("ingress", "out", "chaos", around); err != nil {
				t.Errorf("intercept: %v", err)
				return
			}
			if err := s.Unintercept("ingress", "out", "chaos"); err != nil {
				t.Errorf("unintercept: %v", err)
				return
			}
		}
	}()
	var producersWg sync.WaitGroup
	for p := 0; p < producers; p++ {
		producersWg.Add(1)
		go func(p int) {
			defer producersWg.Done()
			for seq := uint32(0); seq < perFlow; seq++ {
				batch := GetBatch()
				for fl := 0; fl < flowsPer; fl++ {
					batch = append(batch, mkFlowPacket(t, uint32(1+p*flowsPer+fl), seq))
				}
				if err := s.PushBatch(batch); err != nil {
					t.Errorf("push: %v", err)
					return
				}
				PutBatch(batch)
			}
		}(p)
	}
	prodDone := make(chan struct{})
	go func() { producersWg.Wait(); close(prodDone) }()
	select {
	case <-prodDone:
	case <-time.After(120 * time.Second):
		t.Fatal("stress phase timed out")
	}
	close(stop)
	<-meddlerDone
	quiesce(t, s)

	const chaosTotal = warmFlows + producers*perFlow*flowsPer
	if got := sink.total(); got != chaosTotal {
		t.Fatalf("lost packets under live interception: sink %d, want %d", got, chaosTotal)
	}
	sink.perFlowInOrder(t)

	// Fence epilogue: with traffic quiesced, an install must be exact.
	var fenced uint64
	var fmu sync.Mutex
	exact := core.PrePost(func(op string, args []any) {
		fmu.Lock()
		fenced += uint64(PacketCount(op, args))
		fmu.Unlock()
	}, nil)
	if err := s.Intercept("ingress", "out", "exact", exact); err != nil {
		t.Fatal(err)
	}
	const fenceN = 300
	for i := 0; i < fenceN; i++ {
		if err := s.Push(mkFlowPacket(t, uint32(100+i%16), uint32(i/16))); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s)
	fmu.Lock()
	got := fenced
	fmu.Unlock()
	if got != fenceN {
		t.Fatalf("fenced audit saw %d of %d packets", got, fenceN)
	}
	// While intercepted, every lane must be de-specialised.
	for i, g := range laneFusedGauge(t, s) {
		if g != 0 {
			t.Fatalf("lane %d still fused under interception: gauge %v", i, g)
		}
	}
	if err := s.Unintercept("ingress", "out", "exact"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fenceN; i++ {
		if err := s.Push(mkFlowPacket(t, uint32(200+i%16), uint32(i/16))); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s)
	fmu.Lock()
	after := fenced
	fmu.Unlock()
	if after != fenceN {
		t.Fatalf("audit counted past removal: %d, want %d", after, fenceN)
	}
	// And the lanes re-fused once the chain was clean again.
	assertTravelledLanesFused(t, s, 2)
}
