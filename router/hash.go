package router

import "netkit/packet"

// This file is the RSS half of the sharded data plane (DESIGN.md §4.5):
// a flow hash over the packet's addressing fields, used by ShardedCF to
// give every flow an affinity to one pipeline replica. Two properties are
// load-bearing and fuzz-checked (FuzzFlowHashStability):
//
//   - Stability: the hash depends only on the flow identity (addresses,
//     protocol, ports), never on payload, TTL/hop-limit, or checksums —
//     so a flow's packets keep hashing alike as per-hop processing
//     mutates them.
//   - Totality: any byte string hashes without panicking; unparseable
//     packets all hash to the same value (shard 0), preserving their
//     relative order through a sharded dispatch.

// fnv1aInit/fnv1aPrime are the standard 32-bit FNV-1a parameters.
const (
	fnv1aInit  uint32 = 2166136261
	fnv1aPrime uint32 = 16777619
)

func fnv1a(h uint32, bs ...byte) uint32 {
	for _, b := range bs {
		h = (h ^ uint32(b)) * fnv1aPrime
	}
	return h
}

func fnv1aBytes(h uint32, bs []byte) uint32 {
	for _, b := range bs {
		h = (h ^ uint32(b)) * fnv1aPrime
	}
	return h
}

// avalanche is the murmur3 finaliser. FNV-1a multiplies by an odd prime,
// so bit 0 of its state is only ever the XOR of the input bytes' bit 0:
// without a final mix, flows whose port counts in step with their address
// would all land on one of two lanes.
func avalanche(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// FlowHash returns the RSS-style flow hash of p: FNV-1a over the packet's
// source and destination addresses, protocol and — for TCP/UDP — transport
// ports, then an avalanche mix so every bit (FlowShard takes the low ones)
// depends on every input bit. It reads the raw bytes directly, so hashing
// costs no header-view extraction. Same 5-tuple ⇒ same hash; unparseable packets return 0.
func FlowHash(p *Packet) uint32 { return FlowHashRaw(p.Data) }

// FlowHashRaw is FlowHash over raw IP packet bytes.
func FlowHashRaw(b []byte) uint32 {
	if len(b) < 1 {
		return 0
	}
	switch b[0] >> 4 {
	case 4:
		if len(b) < 20 {
			return 0
		}
		ihl := int(b[0]&0x0f) * 4
		proto := b[9]
		h := fnv1aBytes(fnv1aInit, b[12:20]) // src+dst
		h = fnv1a(h, proto)
		if (proto == packet.ProtoTCP || proto == packet.ProtoUDP) &&
			ihl >= 20 && len(b) >= ihl+4 {
			h = fnv1aBytes(h, b[ihl:ihl+4]) // src+dst port
		}
		return avalanche(h)
	case 6:
		if len(b) < packet.IPv6HeaderLen {
			return 0
		}
		proto := b[6]
		h := fnv1aBytes(fnv1aInit, b[8:40]) // src+dst
		h = fnv1a(h, proto)
		if (proto == packet.ProtoTCP || proto == packet.ProtoUDP) &&
			len(b) >= packet.IPv6HeaderLen+4 {
			h = fnv1aBytes(h, b[40:44])
		}
		return avalanche(h)
	default:
		return 0
	}
}

// FlowShard maps p onto one of n shards by flow hash. n must be positive.
func FlowShard(p *Packet, n int) int {
	return int(FlowHash(p) % uint32(n))
}
