package router

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"netkit/core"
	"netkit/internal/trace"
	"netkit/packet"
)

// TestQuickPipelineConservation: for random linear pipelines assembled
// from the standard elements and random packet batches, every packet is
// either forwarded to the tail or accounted as a drop somewhere — the
// data path never loses a packet silently.
func TestQuickPipelineConservation(t *testing.T) {
	check := func(seed int64, nPkts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capsule := core.NewCapsule("quick-pipe")

		// Random chain of 1..5 counting/validating/queue-less elements.
		type namedPush struct {
			name string
			comp core.Component
		}
		var chain []namedPush
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			var comp core.Component
			switch rng.Intn(3) {
			case 0:
				comp = NewCounter()
			case 1:
				comp = NewIPv4Proc(false)
			default:
				comp = NewChecksumValidator()
			}
			chain = append(chain, namedPush{fmt.Sprintf("e%d", i), comp})
		}
		tail := NewCounter()
		sink := NewDropper()
		for _, e := range chain {
			if err := capsule.Insert(e.name, e.comp); err != nil {
				return false
			}
		}
		if err := capsule.Insert("tail", tail); err != nil {
			return false
		}
		if err := capsule.Insert("sink", sink); err != nil {
			return false
		}
		for i := 0; i < len(chain)-1; i++ {
			if _, err := ConnectPush(capsule, chain[i].name, "out", chain[i+1].name); err != nil {
				return false
			}
		}
		if _, err := ConnectPush(capsule, chain[len(chain)-1].name, "out", "tail"); err != nil {
			return false
		}
		if _, err := ConnectPush(capsule, "tail", "out", "sink"); err != nil {
			return false
		}

		gen, err := trace.NewGenerator(trace.Config{
			Seed: uint64(seed) + 1, Flows: 4, UDPShare: 100,
		})
		if err != nil {
			return false
		}
		head, _ := chain[0].comp.Provided(IPacketPushID)
		push := head.(IPacketPush)
		total := int(nPkts)%100 + 1
		for i := 0; i < total; i++ {
			raw, err := gen.NextFixed(64)
			if err != nil {
				return false
			}
			if rng.Intn(8) == 0 {
				raw[8] = 1 // TTL about to expire
			}
			if rng.Intn(8) == 0 {
				raw[14] ^= 0xff // corrupt checksum
			}
			if err := push1(push, NewPacket(raw)); err != nil {
				return false
			}
		}

		// Conservation: tail receipts + per-element drops == total.
		dropped := uint64(0)
		for _, e := range chain {
			if sr, ok := e.comp.(StatsReporter); ok {
				dropped += sr.ElemStats().Dropped
			}
		}
		return tail.ElemStats().In+dropped == uint64(total)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHotSwapAlwaysConserves: random pipelines hot-swap a random
// middle element under a batch of traffic; receipts plus drops equal
// sends, and the architecture always validates afterwards.
func TestQuickHotSwapConserves(t *testing.T) {
	check := func(seed int64) bool {
		capsule := core.NewCapsule("quick-swap")
		head := NewCounter()
		mid := NewCounter()
		tail := NewCounter()
		sink := NewDropper()
		for name, comp := range map[string]core.Component{
			"head": head, "mid": mid, "tail": tail, "sink": sink,
		} {
			if err := capsule.Insert(name, comp); err != nil {
				return false
			}
		}
		for _, b := range [][3]string{
			{"head", "out", "mid"}, {"mid", "out", "tail"}, {"tail", "out", "sink"},
		} {
			if _, err := ConnectPush(capsule, b[0], b[1], b[2]); err != nil {
				return false
			}
		}
		gen, err := trace.NewGenerator(trace.Config{Seed: uint64(seed) + 3, Flows: 2, UDPShare: 100})
		if err != nil {
			return false
		}
		done := make(chan int)
		go func() {
			sent := 0
			for i := 0; i < 2000; i++ {
				raw, err := gen.NextFixed(64)
				if err != nil {
					continue
				}
				if push1(head, NewPacket(raw)) == nil {
					sent++
				}
			}
			done <- sent
		}()
		if err := HotSwap(capsule, "mid", "mid2", NewCounter()); err != nil {
			return false
		}
		sent := <-done
		if tail.ElemStats().In != uint64(sent) {
			return false
		}
		return capsule.Snapshot().Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFigure3TTLInvariant: packets emerging from the Figure-3
// composite always have TTL/hop-limit exactly one less than injected, for
// arbitrary generated traffic.
func TestQuickFigure3TTLInvariant(t *testing.T) {
	outer := core.NewCapsule("quick-f3")
	comp, err := NewFigure3Composite(outer, Figure3Config{QueueCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := outer.Insert("gw", comp); err != nil {
		t.Fatal(err)
	}
	collect := newSink()
	if err := outer.Insert("collect", collect); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(outer, "gw", "out", "collect"); err != nil {
		t.Fatal(err)
	}
	ingress, _ := comp.Provided(IPacketPushID)
	push := ingress.(IPacketPush)
	inner := comp.Inner()
	sched, _ := inner.Component("sched")

	check := func(seed uint64, v6 bool) bool {
		gen, err := trace.NewGenerator(trace.Config{Seed: seed + 1, Flows: 4, V6Share: b2pct(v6)})
		if err != nil {
			return false
		}
		raw, err := gen.NextFixed(80)
		if err != nil {
			return false
		}
		wantTTL := 63
		if err := push1(push, NewPacket(raw)); err != nil {
			return false
		}
		// Drain through the scheduler synchronously.
		sched.(*LinkScheduler).RunOnce(16)
		got := collect.last()
		if got == nil {
			return false
		}
		switch packet.Version(got.Data) {
		case 4:
			h, err := packet.ParseIPv4(got.Data)
			return err == nil && int(h.TTL) == wantTTL &&
				packet.ValidateIPv4Checksum(got.Data) == nil
		case 6:
			h, err := packet.ParseIPv6(got.Data)
			return err == nil && int(h.HopLimit) == wantTTL
		default:
			return false
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func b2pct(b bool) int {
	if b {
		return 100
	}
	return 0
}
