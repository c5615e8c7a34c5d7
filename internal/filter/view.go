package filter

import (
	"net/netip"

	"netkit/packet"
)

// View is the per-packet field cache every rule program evaluates. It is
// extracted once per packet (by the classifier) and shared across all
// filter evaluations, so the per-rule cost is pure field comparison.
type View struct {
	Version  int // 4, 6, or 0 when unparseable
	Src, Dst netip.Addr
	Proto    uint8
	SrcPort  uint16
	DstPort  uint16
	HasPorts bool
	TTL      uint8 // hop limit for v6
	TOS      uint8 // traffic class for v6
	Len      int   // total packet length in bytes
}

// Extract builds a View from a raw IP packet. Unparseable packets yield a
// zero-version View, which matches no test (so filters fail closed).
func Extract(raw []byte) View {
	v := View{Len: len(raw)}
	switch packet.Version(raw) {
	case 4:
		h, err := packet.ParseIPv4(raw)
		if err != nil {
			return v
		}
		v.Version = 4
		v.Src, v.Dst = h.Src, h.Dst
		v.Proto = h.Protocol
		v.TTL = h.TTL
		v.TOS = h.TOS
		fillViewPorts(&v, raw[h.IHL:h.TotalLen])
	case 6:
		h, err := packet.ParseIPv6(raw)
		if err != nil {
			return v
		}
		v.Version = 6
		v.Src, v.Dst = h.Src, h.Dst
		v.Proto = h.NextHeader
		v.TTL = h.HopLimit
		v.TOS = h.TrafficClass
		fillViewPorts(&v, raw[packet.IPv6HeaderLen:])
	}
	return v
}

func fillViewPorts(v *View, payload []byte) {
	switch v.Proto {
	case packet.ProtoTCP, packet.ProtoUDP:
		if len(payload) >= 4 {
			v.SrcPort = uint16(payload[0])<<8 | uint16(payload[1])
			v.DstPort = uint16(payload[2])<<8 | uint16(payload[3])
			v.HasPorts = true
		}
	}
}

// numField reads the named numeric field.
func (v *View) numField(f NumField) int {
	switch f {
	case FieldTTL:
		return int(v.TTL)
	case FieldLen:
		return v.Len
	case FieldTOS:
		return int(v.TOS)
	default:
		return 0
	}
}
