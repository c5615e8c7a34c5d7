package router

import (
	"testing"

	"netkit/core"
)

// TestLatencySamplePredicate pins the shared egress latency predicate:
// zero-duration samples count, unstamped packets and clock regressions
// don't. One-packet and whole-batch pushes must use exactly this
// function — the regression this guards is one path counting d == 0 while
// the other silently dropped it.
func TestLatencySamplePredicate(t *testing.T) {
	cases := []struct {
		now, born int64
		d         uint64
		ok        bool
	}{
		{5, 5, 0, true}, // zero duration IS a sample
		{9, 5, 4, true},
		{5, 9, 0, false},  // clock regression: no sample
		{5, 0, 0, false},  // unstamped packet
		{5, -3, 0, false}, // nonsense stamp
	}
	for _, c := range cases {
		d, ok := latencySample(c.now, c.born)
		if d != c.d || ok != c.ok {
			t.Fatalf("latencySample(%d, %d) = (%d, %v), want (%d, %v)",
				c.now, c.born, d, ok, c.d, c.ok)
		}
	}
}

// TestEgressLatencyPathsAgree drives the same stamped/unstamped packet mix
// through shardEgress one packet at a time and as one batch, and asserts
// the histogram population is identical: one sample per stamped packet,
// regardless of batching. Before the predicate was unified a same-instant
// packet (Born == now, possible at nanosecond granularity under coarse
// clocks) was counted by one path but not the other.
func TestEgressLatencyPathsAgree(t *testing.T) {
	mk := func(stamped bool) *Packet {
		p := mkFlowPacket(t, 1, 0)
		if stamped {
			p.Born = Nanotime() - 10 // strictly in the past: valid either path
		} else {
			p.Born = 0
		}
		return p
	}

	run := func(push func(e *shardEgress, ps []*Packet)) float64 {
		parent := &ShardedCF{out: core.NewReceptacle[IPacketPush](IPacketPushID)}
		e := newShardEgress(parent, core.NewHistogram())
		push(e, []*Packet{mk(true), mk(false), mk(true)})
		return float64(e.lat.Snapshot().Count)
	}

	perPacket := run(func(e *shardEgress, ps []*Packet) {
		for _, p := range ps {
			_ = push1(e, p)
		}
	})
	batched := run(func(e *shardEgress, ps []*Packet) {
		_ = e.PushBatch(ps)
	})
	if perPacket != 2 || batched != 2 {
		t.Fatalf("sample counts diverge: one-packet pushes recorded %v, one batch %v, want 2 each",
			perPacket, batched)
	}
}
