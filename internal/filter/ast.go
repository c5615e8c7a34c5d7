package filter

import (
	"fmt"
	"net/netip"
	"strings"
)

// Node is a filter expression AST node.
type Node interface {
	// String renders the node back to valid filter syntax.
	String() string
}

// AndNode is logical conjunction.
type AndNode struct{ L, R Node }

// OrNode is logical disjunction.
type OrNode struct{ L, R Node }

// NotNode is logical negation.
type NotNode struct{ X Node }

// String implements Node.
func (n *AndNode) String() string { return fmt.Sprintf("(%s and %s)", n.L, n.R) }

// String implements Node.
func (n *OrNode) String() string { return fmt.Sprintf("(%s or %s)", n.L, n.R) }

// String implements Node.
func (n *NotNode) String() string { return fmt.Sprintf("not %s", n.X) }

// Dir selects which address/port a test applies to.
type Dir int

// Direction values.
const (
	DirEither Dir = iota // either src or dst (ports only)
	DirSrc
	DirDst
)

func (d Dir) String() string {
	switch d {
	case DirSrc:
		return "src"
	case DirDst:
		return "dst"
	default:
		return "either"
	}
}

// VersionNode tests the IP version (4 or 6).
type VersionNode struct{ V int }

// String implements Node.
func (n *VersionNode) String() string {
	if n.V == 6 {
		return "ip6"
	}
	return "ip"
}

// ProtoNode tests the IP protocol / next header.
type ProtoNode struct{ Proto uint8 }

// String implements Node.
func (n *ProtoNode) String() string {
	switch n.Proto {
	case protoTCP:
		return "tcp"
	case protoUDP:
		return "udp"
	case protoICMP:
		return "icmp"
	default:
		return fmt.Sprintf("proto %d", n.Proto)
	}
}

// HostNode tests an exact src/dst address.
type HostNode struct {
	Dir  Dir
	Addr netip.Addr
}

// String implements Node.
func (n *HostNode) String() string { return fmt.Sprintf("%s host %s", n.Dir, n.Addr) }

// NetNode tests src/dst membership in a prefix.
type NetNode struct {
	Dir    Dir
	Prefix netip.Prefix
}

// String implements Node.
func (n *NetNode) String() string { return fmt.Sprintf("%s net %s", n.Dir, n.Prefix) }

// PortNode tests a src/dst/either port against an inclusive range
// (Lo == Hi for a single port).
type PortNode struct {
	Dir    Dir
	Lo, Hi uint16
}

// String implements Node.
func (n *PortNode) String() string {
	var b strings.Builder
	if n.Dir != DirEither {
		fmt.Fprintf(&b, "%s ", n.Dir)
	}
	fmt.Fprintf(&b, "port %d", n.Lo)
	if n.Hi != n.Lo {
		fmt.Fprintf(&b, "-%d", n.Hi)
	}
	return b.String()
}

// CmpOp is a numeric comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota + 1
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// eval applies the operator.
func (o CmpOp) eval(a, b int) bool {
	switch o {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	default:
		return false
	}
}

// NumField identifies a numeric packet field usable in comparisons.
type NumField uint8

// Numeric fields.
const (
	FieldTTL NumField = iota + 1
	FieldLen
	FieldTOS
)

func (f NumField) String() string {
	switch f {
	case FieldTTL:
		return "ttl"
	case FieldLen:
		return "len"
	case FieldTOS:
		return "tos"
	default:
		return "?"
	}
}

// CmpNode compares a numeric field against a constant.
type CmpNode struct {
	Field NumField
	Op    CmpOp
	Val   int
}

// String implements Node.
func (n *CmpNode) String() string { return fmt.Sprintf("%s %s %d", n.Field, n.Op, n.Val) }

// protocol numbers, local to avoid importing packet (keeps the language
// layer dependency-free; equivalence with packet's constants is asserted
// in tests).
const (
	protoICMP = 1
	protoTCP  = 6
	protoUDP  = 17
)
