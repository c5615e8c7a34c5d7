package router

import (
	"bytes"
	"context"
	"net/netip"
	"testing"
	"time"

	"netkit/core"
	"netkit/packet"
)

// Fuzz targets for the two load-bearing properties of the sharded data
// plane (DESIGN.md §4.5): the flow hash keys only on flow identity (so a
// flow's packets never migrate between shards mid-life), and a sharded
// pipeline delivers exactly the per-flow sequences the equivalent single
// pipeline delivers, for ANY batch segmentation of the input.

// flowFieldEnd returns the index after the bytes FlowHashRaw may read
// (header + ports), or -1 when the input is unparseable; flowStart/the
// returned mutable set excludes addresses/proto/ports.
func hashedRegions(b []byte) (mutable func(i int) bool, parseable bool) {
	if len(b) < 1 {
		return nil, false
	}
	switch b[0] >> 4 {
	case 4:
		if len(b) < 20 {
			return nil, false
		}
		ihl := int(b[0]&0x0f) * 4
		proto := b[9]
		ports := (proto == packet.ProtoTCP || proto == packet.ProtoUDP) &&
			ihl >= 20 && len(b) >= ihl+4
		return func(i int) bool {
			switch {
			case i == 0: // version/IHL select the parse; keep them
				return false
			case i >= 12 && i < 20: // addresses
				return false
			case i == 9: // protocol
				return false
			case ports && i >= ihl && i < ihl+4: // ports
				return false
			}
			return true
		}, true
	case 6:
		if len(b) < packet.IPv6HeaderLen {
			return nil, false
		}
		proto := b[6]
		ports := (proto == packet.ProtoTCP || proto == packet.ProtoUDP) &&
			len(b) >= packet.IPv6HeaderLen+4
		return func(i int) bool {
			switch {
			case i == 0:
				return false
			case i >= 8 && i < 40: // addresses
				return false
			case i == 6: // next header
				return false
			case ports && i >= 40 && i < 44:
				return false
			}
			return true
		}, true
	default:
		return nil, false
	}
}

// FuzzFlowHashStability checks, for arbitrary byte strings, that the flow
// hash (1) never panics, (2) is deterministic, (3) depends ONLY on the
// flow-identity bytes — mutating any other byte (TTL, checksum, payload)
// leaves the hash, and therefore the packet's shard for every shard
// count, unchanged. Same 5-tuple ⇒ same shard, always.
func FuzzFlowHashStability(f *testing.F) {
	src4 := netip.AddrFrom4([4]byte{10, 1, 2, 3})
	dst4 := netip.AddrFrom4([4]byte{10, 9, 8, 7})
	udp4, err := packet.BuildUDP4(src4, dst4, 1234, 53, 64, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	tcp4, err := packet.BuildTCP4(src4, dst4, 80, 4321, 12, 0x10, []byte("tcp data"))
	if err != nil {
		f.Fatal(err)
	}
	udp6, err := packet.BuildUDP6(netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("2001:db8::2"), 777, 53, 8, []byte("six"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(udp4, uint16(0x0107))
	f.Add(tcp4, uint16(0xbeef))
	f.Add(udp6, uint16(0x2a2a))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x45, 0x00}, uint16(1))
	f.Add(bytes.Repeat([]byte{0x61}, 64), uint16(9))

	f.Fuzz(func(t *testing.T, data []byte, mutSeed uint16) {
		h := FlowHashRaw(data)
		if h != FlowHashRaw(data) {
			t.Fatal("hash not deterministic")
		}
		mutable, parseable := hashedRegions(data)
		if !parseable {
			if h != 0 {
				t.Fatalf("unparseable input hashed to %d, want 0", h)
			}
			return
		}
		// Mutate every non-flow byte (xor with a fuzzed non-zero mask):
		// the hash — and hence the shard for every shard count — must not
		// move. This covers TTL/hop-limit decrements, checksum updates and
		// payload rewrites in one sweep.
		mask := byte(mutSeed) | 1
		mutated := append([]byte(nil), data...)
		for i := range mutated {
			if mutable(i) {
				mutated[i] ^= mask
			}
		}
		if got := FlowHashRaw(mutated); got != h {
			t.Fatalf("non-flow mutation moved hash %d -> %d", h, got)
		}
		p1, p2 := NewPacket(data), NewPacket(mutated)
		for n := 1; n <= 8; n++ {
			if FlowShard(p1, n) != FlowShard(p2, n) {
				t.Fatalf("same flow split across shards at n=%d", n)
			}
		}
	})
}

// xorshift is the repo's deterministic test PRNG.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// FuzzBatchEquivalence drives one packet stream through (a) a sharded CF
// under a fuzz-chosen shard count and batch segmentation and (b) the
// equivalent single pipeline per packet, and requires identical per-flow
// delivery: same packets, same per-flow order. This is the observational-
// equivalence contract of RSS sharding — parallelism may interleave flows
// against each other but must never reorder or lose a flow's packets.
//
// The downstream sink may also FAIL a fuzz-chosen deterministic subset of
// packets (failMod), pinning the per-packet-exact error books of the batch
// path: however the dispatcher segments the stream into per-lane
// sub-batches, the merged error count must equal the per-packet
// reference's, packet for packet — not one per failing run or crossing.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte{3, 7, 1, 30}, uint8(0))
	f.Add(uint64(42), uint8(0), []byte{1}, uint8(0))
	f.Add(uint64(7), uint8(7), []byte{32, 32, 32}, uint8(0))
	f.Add(uint64(5), uint8(2), []byte{8, 3, 17}, uint8(3))
	f.Add(uint64(11), uint8(1), []byte{16}, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, shardsRaw uint8, splits []byte, failMod uint8) {
		if seed == 0 {
			seed = 1
		}
		shards := 1 + int(shardsRaw%4)
		failEvery := uint32(failMod % 5) // 0..4; <2 disables failures
		rng := xorshift(seed)
		flows := 1 + int(rng.next()%13)
		const total = 192

		// The stream: packet i belongs to a pseudo-random flow and carries
		// that flow's next sequence number.
		type unit struct{ flow, seq uint32 }
		stream := make([]unit, total)
		seqs := make([]uint32, flows)
		for i := range stream {
			fl := uint32(rng.next() % uint64(flows))
			stream[i] = unit{fl, seqs[fl]}
			seqs[fl]++
		}

		// The deterministic failure set and its size.
		failSink := &recordingSink{failMod: failEvery}
		expectFailed := 0
		for _, u := range stream {
			if failSink.fails(u.flow, u.seq) {
				expectFailed++
			}
		}

		// (a) sharded, with fuzz-chosen batch splits.
		_, sharded, shardedSink := buildSharded(t, shards, counterReplica)
		shardedSink.failMod = failEvery
		batch := GetBatch()
		k := 0
		limit := func() int {
			if len(splits) == 0 {
				return 1
			}
			n := 1 + int(splits[k%len(splits)]%32)
			k++
			return n
		}
		lim := limit()
		for _, u := range stream {
			batch = append(batch, mkFlowPacket(t, u.flow, u.seq))
			if len(batch) >= lim {
				if err := sharded.PushBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
				lim = limit()
			}
		}
		if err := sharded.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		PutBatch(batch)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sharded.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}

		// (b) the single-pipeline reference: one counter, per-packet push.
		refCapsule := core.NewCapsule("ref")
		refSink := newRecordingSink()
		refSink.failMod = failEvery
		entry := NewCounter()
		if err := refCapsule.Insert("cnt", entry); err != nil {
			t.Fatal(err)
		}
		if err := refCapsule.Insert("sink", refSink); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectPush(refCapsule, "cnt", "out", "sink"); err != nil {
			t.Fatal(err)
		}
		for _, u := range stream {
			err := push1(entry, mkFlowPacket(t, u.flow, u.seq))
			if wantErr := refSink.fails(u.flow, u.seq); (err != nil) != wantErr {
				t.Fatalf("flow %d seq %d: push err %v, want failure %v", u.flow, u.seq, err, wantErr)
			}
		}

		// Identical per-flow delivery.
		if shardedSink.total() != refSink.total() {
			t.Fatalf("sharded delivered %d, single delivered %d",
				shardedSink.total(), refSink.total())
		}

		// Stats conservation over the uniform IStats surface: the sum of
		// the per-replica lane arrival counters equals the merged egress
		// count — no packet is double-counted or lost between the
		// dispatcher's lanes and the merge.
		tree := sharded.StatsTree()
		var laneIn, laneOut float64
		lanes := 0
		for _, ch := range tree.Children {
			in, ok1 := ch.Stat("packets_in")
			out, ok2 := ch.Stat("packets_out")
			if !ok1 || !ok2 {
				t.Fatalf("lane %s lacks packet counters: %+v", ch.Name, ch.Stats)
			}
			laneIn += in.Value
			laneOut += out.Value
			lanes++
		}
		if lanes != shards {
			t.Fatalf("stats tree has %d lanes, want %d", lanes, shards)
		}
		merged := sharded.ElemStats()
		if uint64(laneIn) != merged.In || uint64(laneOut) != merged.Out {
			t.Fatalf("lane sums in=%v out=%v, merged in=%d out=%d",
				laneIn, laneOut, merged.In, merged.Out)
		}
		if merged.Out != uint64(total-expectFailed) || merged.Dropped != 0 {
			t.Fatalf("merged egress %d (dropped %d), want %d", merged.Out, merged.Dropped, total-expectFailed)
		}
		// Per-packet-exact error books: the merged sharded errors and the
		// per-packet reference's entry counter agree with the deterministic
		// failure set, regardless of how batches were split across lanes.
		if merged.Errors != uint64(expectFailed) {
			t.Fatalf("merged errors %d, want %d", merged.Errors, expectFailed)
		}
		refStats := entry.ElemStats()
		if refStats.Errors != uint64(expectFailed) || refStats.Out != uint64(total-expectFailed) {
			t.Fatalf("reference errors %d out %d, want %d and %d",
				refStats.Errors, refStats.Out, expectFailed, total-expectFailed)
		}
		shardedSink.mu.Lock()
		refSink.mu.Lock()
		defer shardedSink.mu.Unlock()
		defer refSink.mu.Unlock()
		if len(shardedSink.flows) != len(refSink.flows) {
			t.Fatalf("flow sets differ: %d vs %d", len(shardedSink.flows), len(refSink.flows))
		}
		for fl, want := range refSink.flows {
			got := shardedSink.flows[fl]
			if len(got) != len(want) {
				t.Fatalf("flow %d: sharded delivered %d, single %d", fl, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("flow %d diverges at %d: sharded %d, single %d",
						fl, i, got[i], want[i])
				}
			}
		}
	})
}
