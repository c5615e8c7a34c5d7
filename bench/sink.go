package main

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"

	"netkit/core"
	"netkit/packet"
	"netkit/router"
)

// Sink is the benchmark's own tail component and the first half of its
// correctness oracle: it counts what arrives, records due-time-to-sink
// latency once per arriving batch, and checks every packet's place in its
// flow. It is part of the measured path on every workload, so it does the
// least that still catches a wrong result: two loads and a compare per
// packet, and a header checksum on one packet in 64.
type Sink struct {
	*core.Base
	packets atomic.Uint64
	bytes   atomic.Uint64
	lat     hist

	// next[f] is one past the last stream position seen from flow f. A
	// flow stays on one goroutine at a time in every workload (one lane,
	// one pump, one scheduler), so entries are never written concurrently.
	next []uint64

	reordered atomic.Uint64 // position not above the flow's previous one
	badCsum   atomic.Uint64 // sampled IPv4 header checksum failures
	foreign   atomic.Uint64 // too short, or a flow id the tape never made
}

const typeSink = "netkit.bench.Sink"

func newSink(flows int) *Sink {
	s := &Sink{Base: core.NewBase(typeSink), next: make([]uint64, flows)}
	s.Provide(router.IPacketPushID, s)
	return s
}

// Push implements router.IPacketPush.
func (s *Sink) Push(p *router.Packet) error {
	one := [1]*router.Packet{p}
	return s.PushBatch(one[:])
}

// PushBatch implements router.IPacketPushBatch.
func (s *Sink) PushBatch(batch []*router.Packet) error {
	if len(batch) == 0 {
		return nil
	}
	now := router.Nanotime()
	var bytes uint64
	for i, p := range batch {
		d := p.Data
		if len(d) < minFrame {
			s.foreign.Add(1)
			p.Release()
			continue
		}
		flow := binary.BigEndian.Uint32(d[offFlow:])
		seq := binary.BigEndian.Uint64(d[offSeq:])
		if i == 0 {
			if due := int64(binary.BigEndian.Uint64(d[offStamp:])); now >= due {
				s.lat.record(uint64(now - due))
			}
		}
		switch {
		case int(flow) >= len(s.next):
			s.foreign.Add(1)
		case seq < s.next[flow]:
			s.reordered.Add(1)
		default:
			s.next[flow] = seq + 1
		}
		if seq&63 == 0 && packet.ValidateIPv4Checksum(d) != nil {
			s.badCsum.Add(1)
		}
		bytes += uint64(len(d))
		p.Release()
	}
	s.bytes.Add(bytes)
	s.packets.Add(uint64(len(batch)))
	return nil
}

// Stats implements core.IStats, so the sink shows in the stats tree the
// per-layer metrics are read from.
func (s *Sink) Stats() []core.Stat {
	return []core.Stat{
		core.C("packets_in", "packets", s.packets.Load()),
		core.C("bytes_in", "bytes", s.bytes.Load()),
	}
}

var (
	_ router.IPacketPushBatch = (*Sink)(nil)
	_ core.IStats             = (*Sink)(nil)
)

// nullSink is the probe tail: it counts and releases, nothing else, so a
// probe through it times the program and not the oracle.
type nullSink struct {
	*core.Base
	packets atomic.Uint64
}

func newNullSink() *nullSink {
	s := &nullSink{Base: core.NewBase("netkit.bench.NullSink")}
	s.Provide(router.IPacketPushID, s)
	return s
}

func (s *nullSink) Push(p *router.Packet) error {
	s.packets.Add(1)
	p.Release()
	return nil
}

func (s *nullSink) PushBatch(batch []*router.Packet) error {
	s.packets.Add(uint64(len(batch)))
	for _, p := range batch {
		p.Release()
	}
	return nil
}

// delivery is what a finished run hands the oracle: the generator's own
// count of what it offered, what the sink saw, and what the program's
// stats tree admits to having dropped.
type delivery struct {
	offered   uint64
	delivered uint64
	dropped   uint64 // Σ drop and loss counters in the stats tree
	reordered uint64
	badCsum   uint64
	foreign   uint64

	// classWant/classGot are packets per classifier output as the VM
	// oracle predicts and as the queues counted; nil when the workload
	// has no classifier.
	classWant, classGot []uint64
	// opErrs are the meta-operations that did not return nil.
	opErrs []string
}

// verdict lists every way the delivery is wrong; empty means correct.
func (d delivery) verdict() []string {
	var bad []string
	if d.offered != d.delivered+d.dropped {
		bad = append(bad, fmt.Sprintf("conservation: offered %d != delivered %d + dropped %d",
			d.offered, d.delivered, d.dropped))
	}
	if d.reordered > 0 {
		bad = append(bad, fmt.Sprintf("order: %d packets arrived behind a later packet of their flow", d.reordered))
	}
	if d.badCsum > 0 {
		bad = append(bad, fmt.Sprintf("checksum: %d sampled packets failed IPv4 header validation", d.badCsum))
	}
	if d.foreign > 0 {
		bad = append(bad, fmt.Sprintf("foreign: %d packets were not frames the generator made", d.foreign))
	}
	for k := range d.classWant {
		if d.classWant[k] != d.classGot[k] {
			bad = append(bad, fmt.Sprintf("class: output %d took %d packets, the VM oracle predicts %d",
				k, d.classGot[k], d.classWant[k]))
		}
	}
	if len(d.opErrs) > 0 {
		bad = append(bad, "meta-ops: "+strings.Join(d.opErrs, "; "))
	}
	return bad
}
