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

// Extract builds a View from a raw IP packet: the by-value form of
// ExtractInto.
func Extract(raw []byte) View {
	var v View
	ExtractInto(&v, raw)
	return v
}

// ExtractInto parses raw into v in place, overwriting every field, so a
// View reused across packets keeps nothing of the last one. The header
// rules are packet's (ValidateIPv4, ValidateIPv6); the fields are read
// straight from raw, with no header struct between. Unparseable packets
// yield a zero-version View, which matches no test (so filters fail
// closed).
func ExtractInto(v *View, raw []byte) {
	*v = View{Len: len(raw)}
	switch packet.Version(raw) {
	case 4:
		ihl, total, err := packet.ValidateIPv4(raw)
		if err != nil {
			return
		}
		v.Version = 4
		v.TOS, v.TTL, v.Proto = raw[1], raw[8], raw[9]
		v.Src = netip.AddrFrom4([4]byte(raw[12:16]))
		v.Dst = netip.AddrFrom4([4]byte(raw[16:20]))
		fillViewPorts(v, raw[ihl:total])
	case 6:
		if _, err := packet.ValidateIPv6(raw); err != nil {
			return
		}
		v.Version = 6
		v.TOS = raw[0]<<4 | raw[1]>>4
		v.Proto, v.TTL = raw[6], raw[7]
		v.Src = netip.AddrFrom16([16]byte(raw[8:24]))
		v.Dst = netip.AddrFrom16([16]byte(raw[24:40]))
		fillViewPorts(v, raw[packet.IPv6HeaderLen:])
	}
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
