package filter

import (
	"fmt"
	"net/netip"
)

// opcode is a VM instruction code. The VM is a postfix stack machine over
// booleans and small integers — the flattened, data-driven representation
// the classifier runs in-band where instruction counts matter.
type opcode uint8

const (
	opVersion opcode = iota + 1 // push bool: Version == arg
	opProto                     // push bool: Proto == arg (and parseable)
	opHostSrc                   // push bool: Src == prefix address
	opHostDst                   // push bool: Dst == prefix address
	opNetSrc                    // push bool: prefix contains Src
	opNetDst                    // push bool: prefix contains Dst
	opPortSrc                   // push bool: lo <= SrcPort <= hi
	opPortDst                   // push bool: lo <= DstPort <= hi
	opPortAny                   // push bool: either port in range
	opCmp                       // push bool: field `cmpOp` arg
	opAnd                       // pop 2 bools, push conjunction
	opOr                        // pop 2 bools, push disjunction
	opNot                       // pop bool, push negation (false when unparseable)
)

// instr is one VM instruction. Only the fields relevant to the opcode are
// populated. Host tests hold a full-length prefix, so one address field
// serves host and net tests alike and an instruction stays at 56 bytes:
// verifying a tuple-space candidate touches fewer cache lines.
type instr struct {
	op     opcode
	field  NumField
	cmp    CmpOp
	arg    int
	arg2   int
	prefix netip.Prefix
}

// Program is a compiled filter: a linear postfix instruction sequence.
type Program struct {
	ins      []instr
	maxStack int
	src      string
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.ins) }

// String returns the original specification if known.
func (p *Program) String() string { return p.src }

// CompileProgram flattens the AST into a postfix Program.
func CompileProgram(n Node) (*Program, error) {
	p := &Program{}
	depth, err := p.emit(n)
	if err != nil {
		return nil, err
	}
	p.maxStack = depth
	p.src = n.String()
	return p, nil
}

// Compile parses and program-compiles a spec in one step.
func Compile(spec string) (*Program, error) {
	n, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return CompileProgram(n)
}

// emit appends instructions for n and returns the maximum stack depth the
// subtree needs.
func (p *Program) emit(n Node) (int, error) {
	switch t := n.(type) {
	case *AndNode:
		dl, err := p.emit(t.L)
		if err != nil {
			return 0, err
		}
		dr, err := p.emit(t.R)
		if err != nil {
			return 0, err
		}
		p.ins = append(p.ins, instr{op: opAnd})
		return maxInt(dl, dr+1), nil
	case *OrNode:
		dl, err := p.emit(t.L)
		if err != nil {
			return 0, err
		}
		dr, err := p.emit(t.R)
		if err != nil {
			return 0, err
		}
		p.ins = append(p.ins, instr{op: opOr})
		return maxInt(dl, dr+1), nil
	case *NotNode:
		d, err := p.emit(t.X)
		if err != nil {
			return 0, err
		}
		p.ins = append(p.ins, instr{op: opNot})
		return d, nil
	case *VersionNode:
		p.ins = append(p.ins, instr{op: opVersion, arg: t.V})
		return 1, nil
	case *ProtoNode:
		p.ins = append(p.ins, instr{op: opProto, arg: int(t.Proto)})
		return 1, nil
	case *HostNode:
		op := opHostSrc
		if t.Dir == DirDst {
			op = opHostDst
		}
		p.ins = append(p.ins, instr{op: op, prefix: netip.PrefixFrom(t.Addr, t.Addr.BitLen())})
		return 1, nil
	case *NetNode:
		op := opNetSrc
		if t.Dir == DirDst {
			op = opNetDst
		}
		p.ins = append(p.ins, instr{op: op, prefix: t.Prefix})
		return 1, nil
	case *PortNode:
		var op opcode
		switch t.Dir {
		case DirSrc:
			op = opPortSrc
		case DirDst:
			op = opPortDst
		default:
			op = opPortAny
		}
		p.ins = append(p.ins, instr{op: op, arg: int(t.Lo), arg2: int(t.Hi)})
		return 1, nil
	case *CmpNode:
		p.ins = append(p.ins, instr{op: opCmp, field: t.Field, cmp: t.Op, arg: t.Val})
		return 1, nil
	default:
		return 0, fmt.Errorf("filter: cannot compile node %T", n)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Match reports whether v satisfies the program, executing it over a
// fixed-size stack. Programs with maxStack <= 16 run allocation-free.
func (p *Program) Match(v *View) bool {
	var fixed [16]bool
	stack := fixed[:0]
	if p.maxStack > len(fixed) {
		stack = make([]bool, 0, p.maxStack)
	}
	parsed := v.Version != 0
	for i := range p.ins {
		in := &p.ins[i]
		switch in.op {
		case opVersion:
			stack = append(stack, v.Version == in.arg)
		case opProto:
			stack = append(stack, parsed && int(v.Proto) == in.arg)
		case opHostSrc:
			stack = append(stack, parsed && v.Src == in.prefix.Addr())
		case opHostDst:
			stack = append(stack, parsed && v.Dst == in.prefix.Addr())
		case opNetSrc:
			stack = append(stack, parsed && in.prefix.Contains(v.Src))
		case opNetDst:
			stack = append(stack, parsed && in.prefix.Contains(v.Dst))
		case opPortSrc:
			stack = append(stack, v.HasPorts &&
				int(v.SrcPort) >= in.arg && int(v.SrcPort) <= in.arg2)
		case opPortDst:
			stack = append(stack, v.HasPorts &&
				int(v.DstPort) >= in.arg && int(v.DstPort) <= in.arg2)
		case opPortAny:
			stack = append(stack, v.HasPorts &&
				((int(v.SrcPort) >= in.arg && int(v.SrcPort) <= in.arg2) ||
					(int(v.DstPort) >= in.arg && int(v.DstPort) <= in.arg2)))
		case opCmp:
			stack = append(stack, parsed && in.cmp.eval(v.numField(in.field), in.arg))
		case opAnd:
			n := len(stack)
			stack[n-2] = stack[n-2] && stack[n-1]
			stack = stack[:n-1]
		case opOr:
			n := len(stack)
			stack[n-2] = stack[n-2] || stack[n-1]
			stack = stack[:n-1]
		case opNot:
			n := len(stack)
			stack[n-1] = parsed && !stack[n-1]
		}
	}
	return len(stack) == 1 && stack[0]
}
