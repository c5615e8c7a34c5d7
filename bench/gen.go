package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"

	"netkit/packet"
	"netkit/router"
)

// Frame layout. Every generated frame is IPv4/UDP with no options, and the
// UDP payload starts with the three fields the sink and the tracer read
// back: which flow the frame belongs to, its position in the offered
// stream, and when it was due. They ride in the payload rather than in
// router.Packet because two workloads re-materialise packets from bytes
// (the kernel socket, the IPC boundary) and lose the wrapper on the way.
const (
	payloadOff = packet.IPv4HeaderLen + packet.UDPHeaderLen
	offFlow    = payloadOff      // uint32
	offSeq     = payloadOff + 4  // uint64, index in the offered stream
	offStamp   = payloadOff + 12 // int64, router.Nanotime due time
	minFrame   = 64

	batchSize = 32
)

// splitmix64 is the seed-to-inputs generator: small, and independent of
// the Go release, so a seed names the same frames on every toolchain.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// traffic describes what a workload offers.
type traffic struct {
	flows   int
	tapeLen int  // frames on the tape; a multiple of batchSize
	imix    bool // 64/576/1500 at 7:4:1 instead of fixed 64 B
	zipf    bool // flow popularity Zipf s=1.0 instead of uniform
	routed  bool // addresses chosen to hit the router workload's rules
}

// tape is the pregenerated offered stream: tapeLen frames the generator
// cycles through, each with its own packet wrapper. A frame is reused only
// after tapeLen-2*batchSize further frames have been delivered (the
// generator waits otherwise), so a frame is never in flight twice.
type tape struct {
	frames [][]byte
	flow   []uint32
	pkts   []router.Packet

	pos   int
	seq   uint64
	batch []*router.Packet
	raws  [][]byte
}

// imixSize draws from the 7:4:1 simple-IMIX mix.
func imixSize(r uint64) int {
	switch k := r % 12; {
	case k < 7:
		return 64
	case k < 11:
		return 576
	default:
		return 1500
	}
}

// zipfTable is the cumulative weight table of Zipf(s=1) over n ranks.
func zipfTable(n int) []float64 {
	cum := make([]float64, n)
	var t float64
	for k := 0; k < n; k++ {
		t += 1 / float64(k+1)
		cum[k] = t
	}
	return cum
}

const numRules = 1024

// ruleOfFlow spreads flows over the router workload's rules.
func ruleOfFlow(f uint32) int {
	h := f * 2654435761
	return int((h >> 12) % numRules)
}

// ruleSpec is rule r of the router workload: exact-match, flow-safe, half
// on the UDP destination port and half on the destination host, so the
// compiled table holds two tuple spaces of 512 entries.
func ruleSpec(r int) (spec, output string) {
	output = fmt.Sprintf("out%d", r%numClasses)
	if r%2 == 0 {
		return fmt.Sprintf("udp and dst port %d", 20000+r), output
	}
	return fmt.Sprintf("dst host 10.1.%d.%d", r>>8, r&255), output
}

// flowHeader returns the addresses of flow f. The source port is a hash of
// f rather than f itself: router.FlowHash is FNV-1a, whose lowest bit is
// the XOR of its input bytes' lowest bits, so a port that counts in step
// with the source address would put every flow on the same one of two
// lanes.
func flowHeader(f uint32, routed bool) (src, dst netip.Addr, sport, dport uint16) {
	src = netip.AddrFrom4([4]byte{10, 0, byte(f >> 8), byte(f)})
	dst = netip.AddrFrom4([4]byte{10, 9, 0, 1})
	sport, dport = uint16(1024+(f*2654435761>>16)%60000), 9
	if routed {
		if r := ruleOfFlow(f); r%2 == 0 {
			dst, dport = netip.AddrFrom4([4]byte{10, 2, 0, 1}), uint16(20000+r)
		} else {
			dst = netip.AddrFrom4([4]byte{10, 1, byte(r >> 8), byte(r)})
		}
	}
	return
}

// newTape generates the offered stream for (workload, seed). The same pair
// gives byte-identical frames.
func newTape(workload string, seed uint64, tr traffic) (*tape, error) {
	if tr.tapeLen%batchSize != 0 || tr.tapeLen < 4*batchSize {
		return nil, fmt.Errorf("tape length %d is not a multiple of %d", tr.tapeLen, batchSize)
	}
	h := fnv.New64a()
	h.Write([]byte(workload))
	rng := splitmix64(seed ^ h.Sum64())

	var cum []float64
	if tr.zipf {
		cum = zipfTable(tr.flows)
	}
	t := &tape{
		frames: make([][]byte, tr.tapeLen),
		flow:   make([]uint32, tr.tapeLen),
		pkts:   make([]router.Packet, tr.tapeLen),
		batch:  make([]*router.Packet, batchSize),
		raws:   make([][]byte, batchSize),
	}
	sizes := make([]int, tr.tapeLen)
	total := 0
	for i := range sizes {
		sizes[i] = minFrame
		if tr.imix {
			sizes[i] = imixSize(rng.next())
		}
		total += sizes[i]
	}
	slab := make([]byte, total)
	for i := range t.frames {
		var f uint32
		if tr.zipf {
			f = uint32(sort.SearchFloat64s(cum, rng.float()*cum[len(cum)-1]))
			if int(f) >= tr.flows {
				f = uint32(tr.flows - 1)
			}
		} else {
			f = uint32(rng.next() % uint64(tr.flows))
		}
		src, dst, sport, dport := flowHeader(f, tr.routed)
		payload := make([]byte, sizes[i]-payloadOff)
		binary.BigEndian.PutUint32(payload, f)
		b, err := packet.BuildUDP4(src, dst, sport, dport, 64, payload)
		if err != nil {
			return nil, err
		}
		t.frames[i], slab = slab[:len(b):len(b)], slab[len(b):]
		copy(t.frames[i], b)
		t.flow[i] = f
	}
	return t, nil
}

// hash identifies the generated frame set.
func (t *tape) hash() string {
	h := sha256.New()
	for _, f := range t.frames {
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// distinctFlows counts the flows that actually occur on the tape: the
// working set a flow cache sees.
func (t *tape) distinctFlows() int {
	seen := make(map[uint32]struct{})
	for _, f := range t.flow {
		seen[f] = struct{}{}
	}
	return len(seen)
}

// next stamps the next batchSize frames with their stream position and due
// time and leaves them in t.batch (wrapped) and t.raws (bytes). It is the
// whole per-packet work of the generator and allocates nothing: the
// wrapper is reset in place so a component's cached header view never
// survives from the frame's previous trip.
func (t *tape) next(due int64) {
	for i := 0; i < batchSize; i++ {
		k := t.pos + i
		f := t.frames[k]
		binary.BigEndian.PutUint64(f[offSeq:], t.seq)
		binary.BigEndian.PutUint64(f[offStamp:], uint64(due))
		t.seq++
		p := &t.pkts[k]
		*p = router.Packet{Data: f, Born: due}
		t.batch[i] = p
		t.raws[i] = f
	}
	t.pos += batchSize
	if t.pos == len(t.frames) {
		t.pos = 0
	}
}
