// Package packet provides the wire-format substrate used by the Router CF:
// IPv4 and IPv6 header parsing and construction, transport headers (UDP,
// TCP — the fields the in-band functions need), Internet checksums, and
// flow identification. All parsing is allocation-free over caller-owned
// byte slices so it can run on the in-band fast path.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Sentinel errors.
var (
	// ErrTruncated indicates a packet shorter than its headers claim.
	ErrTruncated = errors.New("packet: truncated")
	// ErrVersion indicates an unsupported IP version nibble.
	ErrVersion = errors.New("packet: unsupported IP version")
	// ErrHeaderLength indicates a malformed IHL or payload length field.
	ErrHeaderLength = errors.New("packet: bad header length")
	// ErrChecksum indicates a failed IPv4 header checksum validation.
	ErrChecksum = errors.New("packet: bad checksum")
	// ErrTTLExpired indicates a TTL/hop-limit that reached zero.
	ErrTTLExpired = errors.New("packet: ttl expired")
)

// IP protocol numbers used by the router components.
const (
	ProtoICMP   = 1
	ProtoTCP    = 6
	ProtoUDP    = 17
	ProtoICMPv6 = 58
)

// Version returns the IP version nibble of a raw packet, or 0 if empty.
func Version(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	return int(b[0] >> 4)
}

// ---------------------------------------------------------------------------
// IPv4

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 is a parsed IPv4 header. Fields mirror RFC 791; addresses use
// netip.Addr for value semantics.
type IPv4 struct {
	IHL      int // header length in bytes
	TOS      uint8
	TotalLen int
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst netip.Addr
}

// ParseIPv4 parses an IPv4 header from b without validating the checksum
// (use ValidateIPv4Checksum for that, mirroring the paper's separate
// "checksum validator" in-band component).
func ParseIPv4(b []byte) (IPv4, error) {
	var h IPv4
	ihl, total, err := ValidateIPv4(b)
	if err != nil {
		return h, err
	}
	h.IHL, h.TotalLen = ihl, total
	h.TOS = b[1]
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	h.Src = netip.AddrFrom4([4]byte(b[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	return h, nil
}

// ValidateIPv4 is ParseIPv4's in-place form and the one statement of its
// header rules: it checks b's IPv4 header and returns the header and
// datagram lengths, building no IPv4; fields are then read from b.
func ValidateIPv4(b []byte) (ihl, totalLen int, err error) {
	if len(b) < IPv4HeaderLen {
		return 0, 0, fmt.Errorf("ipv4: %d bytes: %w", len(b), ErrTruncated)
	}
	if v := b[0] >> 4; v != 4 {
		return 0, 0, fmt.Errorf("ipv4: version %d: %w", v, ErrVersion)
	}
	ihl = int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return 0, 0, fmt.Errorf("ipv4: ihl %d: %w", ihl, ErrHeaderLength)
	}
	if len(b) < ihl {
		return 0, 0, fmt.Errorf("ipv4: ihl %d > %d bytes: %w", ihl, len(b), ErrTruncated)
	}
	totalLen = int(binary.BigEndian.Uint16(b[2:4]))
	if totalLen < ihl {
		return 0, 0, fmt.Errorf("ipv4: total length %d < ihl %d: %w", totalLen, ihl, ErrHeaderLength)
	}
	if totalLen > len(b) {
		return 0, 0, fmt.Errorf("ipv4: total length %d > %d bytes: %w", totalLen, len(b), ErrTruncated)
	}
	return ihl, totalLen, nil
}

// Marshal writes the header into b, which must be at least IHL bytes
// (options beyond 20 bytes are zero-filled), computing the checksum.
func (h IPv4) Marshal(b []byte) error {
	ihl := h.IHL
	if ihl == 0 {
		ihl = IPv4HeaderLen
	}
	if ihl < IPv4HeaderLen || ihl%4 != 0 || ihl > 60 {
		return fmt.Errorf("ipv4: marshal ihl %d: %w", ihl, ErrHeaderLength)
	}
	if len(b) < ihl {
		return fmt.Errorf("ipv4: marshal into %d bytes: %w", len(b), ErrTruncated)
	}
	if !h.Src.Is4() || !h.Dst.Is4() {
		return fmt.Errorf("ipv4: marshal non-v4 address: %w", ErrVersion)
	}
	b[0] = 0x40 | uint8(ihl/4)
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(h.TotalLen))
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	src, dst := h.Src.As4(), h.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	for i := IPv4HeaderLen; i < ihl; i++ {
		b[i] = 0
	}
	cs := Checksum(b[:ihl])
	binary.BigEndian.PutUint16(b[10:12], cs)
	return nil
}

// ValidateIPv4Checksum verifies the header checksum over b's IHL bytes.
func ValidateIPv4Checksum(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return fmt.Errorf("ipv4: checksum: %w", ErrTruncated)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return fmt.Errorf("ipv4: checksum ihl %d: %w", ihl, ErrHeaderLength)
	}
	if Checksum(b[:ihl]) != 0 {
		return ErrChecksum
	}
	return nil
}

// DecrementTTL decrements the TTL in place and incrementally updates the
// checksum per RFC 1141. It returns ErrTTLExpired if the TTL is already 0
// or reaches 0 (the caller decides whether 0-after-decrement forwards).
func DecrementTTL(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return fmt.Errorf("ipv4: ttl: %w", ErrTruncated)
	}
	if b[8] == 0 {
		return ErrTTLExpired
	}
	b[8]--
	// RFC 1141 incremental update: checksum += 0x0100 (TTL is the high byte
	// of the 16-bit word at offset 8), with end-around carry.
	cs := binary.BigEndian.Uint16(b[10:12])
	sum := uint32(cs) + 0x0100
	sum = (sum & 0xffff) + (sum >> 16)
	binary.BigEndian.PutUint16(b[10:12], uint16(sum))
	if b[8] == 0 {
		return ErrTTLExpired
	}
	return nil
}

// ---------------------------------------------------------------------------
// IPv6

// IPv6HeaderLen is the fixed IPv6 header length.
const IPv6HeaderLen = 40

// IPv6 is a parsed fixed IPv6 header.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	PayloadLen   int
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// ParseIPv6 parses the fixed header from b.
func ParseIPv6(b []byte) (IPv6, error) {
	var h IPv6
	payloadLen, err := ValidateIPv6(b)
	if err != nil {
		return h, err
	}
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3])
	h.PayloadLen = payloadLen
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	h.Src = netip.AddrFrom16([16]byte(b[8:24]))
	h.Dst = netip.AddrFrom16([16]byte(b[24:40]))
	return h, nil
}

// ValidateIPv6 is ParseIPv6's in-place form: it checks b's fixed header
// and returns its payload length, building no IPv6.
func ValidateIPv6(b []byte) (payloadLen int, err error) {
	if len(b) < IPv6HeaderLen {
		return 0, fmt.Errorf("ipv6: %d bytes: %w", len(b), ErrTruncated)
	}
	if v := b[0] >> 4; v != 6 {
		return 0, fmt.Errorf("ipv6: version %d: %w", v, ErrVersion)
	}
	payloadLen = int(binary.BigEndian.Uint16(b[4:6]))
	if IPv6HeaderLen+payloadLen > len(b) {
		return 0, fmt.Errorf("ipv6: payload %d > %d bytes: %w", payloadLen, len(b)-IPv6HeaderLen, ErrTruncated)
	}
	return payloadLen, nil
}

// Marshal writes the fixed header into b.
func (h IPv6) Marshal(b []byte) error {
	if len(b) < IPv6HeaderLen {
		return fmt.Errorf("ipv6: marshal into %d bytes: %w", len(b), ErrTruncated)
	}
	if !h.Src.Is6() || h.Src.Is4In6() || !h.Dst.Is6() || h.Dst.Is4In6() {
		return fmt.Errorf("ipv6: marshal non-v6 address: %w", ErrVersion)
	}
	b[0] = 0x60 | h.TrafficClass>>4
	b[1] = h.TrafficClass<<4 | uint8(h.FlowLabel>>16&0x0f)
	b[2] = uint8(h.FlowLabel >> 8)
	b[3] = uint8(h.FlowLabel)
	binary.BigEndian.PutUint16(b[4:6], uint16(h.PayloadLen))
	b[6] = h.NextHeader
	b[7] = h.HopLimit
	src, dst := h.Src.As16(), h.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	return nil
}

// DecrementHopLimit decrements the IPv6 hop limit in place.
func DecrementHopLimit(b []byte) error {
	if len(b) < IPv6HeaderLen {
		return fmt.Errorf("ipv6: hop limit: %w", ErrTruncated)
	}
	if b[7] == 0 {
		return ErrTTLExpired
	}
	b[7]--
	if b[7] == 0 {
		return ErrTTLExpired
	}
	return nil
}

// ---------------------------------------------------------------------------
// Transport

// UDPHeaderLen is the UDP header length.
const UDPHeaderLen = 8

// UDP is a parsed UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           int
	Checksum         uint16
}

// ParseUDP parses a UDP header.
func ParseUDP(b []byte) (UDP, error) {
	var h UDP
	if len(b) < UDPHeaderLen {
		return h, fmt.Errorf("udp: %d bytes: %w", len(b), ErrTruncated)
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = int(binary.BigEndian.Uint16(b[4:6]))
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	if h.Length < UDPHeaderLen || h.Length > len(b) {
		return h, fmt.Errorf("udp: length %d: %w", h.Length, ErrHeaderLength)
	}
	return h, nil
}

// Marshal writes the UDP header into b.
func (h UDP) Marshal(b []byte) error {
	if len(b) < UDPHeaderLen {
		return fmt.Errorf("udp: marshal into %d bytes: %w", len(b), ErrTruncated)
	}
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(h.Length))
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
	return nil
}

// TCPMinHeaderLen is the minimum TCP header length.
const TCPMinHeaderLen = 20

// TCP holds the TCP header fields the router's in-band functions use.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          int // bytes
	Flags            uint8
	Window           uint16
}

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// ParseTCP parses a TCP header.
func ParseTCP(b []byte) (TCP, error) {
	var h TCP
	if len(b) < TCPMinHeaderLen {
		return h, fmt.Errorf("tcp: %d bytes: %w", len(b), ErrTruncated)
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.DataOff = int(b[12]>>4) * 4
	if h.DataOff < TCPMinHeaderLen || h.DataOff > len(b) {
		return h, fmt.Errorf("tcp: data offset %d: %w", h.DataOff, ErrHeaderLength)
	}
	h.Flags = b[13] & 0x3f
	h.Window = binary.BigEndian.Uint16(b[14:16])
	return h, nil
}

// Marshal writes a minimal (20-byte, no options) TCP header into b.
func (h TCP) Marshal(b []byte) error {
	if len(b) < TCPMinHeaderLen {
		return fmt.Errorf("tcp: marshal into %d bytes: %w", len(b), ErrTruncated)
	}
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = 5 << 4
	b[13] = h.Flags & 0x3f
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	b[16], b[17], b[18], b[19] = 0, 0, 0, 0
	return nil
}

// ---------------------------------------------------------------------------
// Checksum

// Checksum computes the RFC 1071 Internet checksum of b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// ---------------------------------------------------------------------------
// Flows

// FlowKey is the classic 5-tuple used for per-flow processing (stratum 3
// programs "act on pre-selected packet flows").
type FlowKey struct {
	Src, Dst         netip.Addr
	Proto            uint8
	SrcPort, DstPort uint16
}

// String implements fmt.Stringer.
func (k FlowKey) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Flow extracts the 5-tuple from a raw IP packet. Port fields are zero for
// non-TCP/UDP protocols.
func Flow(b []byte) (FlowKey, error) {
	var k FlowKey
	switch Version(b) {
	case 4:
		h, err := ParseIPv4(b)
		if err != nil {
			return k, err
		}
		k.Src, k.Dst, k.Proto = h.Src, h.Dst, h.Protocol
		payload := b[h.IHL:h.TotalLen]
		fillPorts(&k, payload)
	case 6:
		h, err := ParseIPv6(b)
		if err != nil {
			return k, err
		}
		k.Src, k.Dst, k.Proto = h.Src, h.Dst, h.NextHeader
		fillPorts(&k, b[IPv6HeaderLen:])
	default:
		return k, fmt.Errorf("flow: version %d: %w", Version(b), ErrVersion)
	}
	return k, nil
}

func fillPorts(k *FlowKey, payload []byte) {
	switch k.Proto {
	case ProtoTCP, ProtoUDP:
		if len(payload) >= 4 {
			k.SrcPort = binary.BigEndian.Uint16(payload[0:2])
			k.DstPort = binary.BigEndian.Uint16(payload[2:4])
		}
	}
}

// ---------------------------------------------------------------------------
// Builders (used by tests, examples and the traffic generator)

// BuildUDP4 constructs a complete IPv4/UDP packet with the given payload.
func BuildUDP4(src, dst netip.Addr, srcPort, dstPort uint16, ttl uint8, payload []byte) ([]byte, error) {
	total := IPv4HeaderLen + UDPHeaderLen + len(payload)
	b := make([]byte, total)
	ip := IPv4{
		IHL: IPv4HeaderLen, TotalLen: total, TTL: ttl,
		Protocol: ProtoUDP, Src: src, Dst: dst,
	}
	if err := ip.Marshal(b); err != nil {
		return nil, err
	}
	udp := UDP{SrcPort: srcPort, DstPort: dstPort, Length: UDPHeaderLen + len(payload)}
	if err := udp.Marshal(b[IPv4HeaderLen:]); err != nil {
		return nil, err
	}
	copy(b[IPv4HeaderLen+UDPHeaderLen:], payload)
	return b, nil
}

// BuildTCP4 constructs a complete IPv4/TCP packet (no TCP options).
func BuildTCP4(src, dst netip.Addr, srcPort, dstPort uint16, ttl, flags uint8, payload []byte) ([]byte, error) {
	total := IPv4HeaderLen + TCPMinHeaderLen + len(payload)
	b := make([]byte, total)
	ip := IPv4{
		IHL: IPv4HeaderLen, TotalLen: total, TTL: ttl,
		Protocol: ProtoTCP, Src: src, Dst: dst,
	}
	if err := ip.Marshal(b); err != nil {
		return nil, err
	}
	tcp := TCP{SrcPort: srcPort, DstPort: dstPort, Flags: flags, Window: 65535}
	if err := tcp.Marshal(b[IPv4HeaderLen:]); err != nil {
		return nil, err
	}
	copy(b[IPv4HeaderLen+TCPMinHeaderLen:], payload)
	return b, nil
}

// BuildUDP6 constructs a complete IPv6/UDP packet.
func BuildUDP6(src, dst netip.Addr, srcPort, dstPort uint16, hopLimit uint8, payload []byte) ([]byte, error) {
	b := make([]byte, IPv6HeaderLen+UDPHeaderLen+len(payload))
	ip := IPv6{
		PayloadLen: UDPHeaderLen + len(payload), NextHeader: ProtoUDP,
		HopLimit: hopLimit, Src: src, Dst: dst,
	}
	if err := ip.Marshal(b); err != nil {
		return nil, err
	}
	udp := UDP{SrcPort: srcPort, DstPort: dstPort, Length: UDPHeaderLen + len(payload)}
	if err := udp.Marshal(b[IPv6HeaderLen:]); err != nil {
		return nil, err
	}
	copy(b[IPv6HeaderLen+UDPHeaderLen:], payload)
	return b, nil
}
