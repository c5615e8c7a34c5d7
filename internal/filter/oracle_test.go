package filter

import "fmt"

// closure compiles the AST into a tree of Go closures: the reference
// semantics the VM is checked against (match, TestQuickClosureVMEquivalence,
// FuzzParse). Each node becomes a function; evaluation short-circuits like
// the source expression. It is an oracle only — no product path runs it.
func closure(n Node) (func(*View) bool, error) {
	switch t := n.(type) {
	case *AndNode:
		l, err := closure(t.L)
		if err != nil {
			return nil, err
		}
		r, err := closure(t.R)
		if err != nil {
			return nil, err
		}
		return func(v *View) bool { return l(v) && r(v) }, nil
	case *OrNode:
		l, err := closure(t.L)
		if err != nil {
			return nil, err
		}
		r, err := closure(t.R)
		if err != nil {
			return nil, err
		}
		return func(v *View) bool { return l(v) || r(v) }, nil
	case *NotNode:
		x, err := closure(t.X)
		if err != nil {
			return nil, err
		}
		return func(v *View) bool { return v.Version != 0 && !x(v) }, nil
	case *VersionNode:
		ver := t.V
		return func(v *View) bool { return v.Version == ver }, nil
	case *ProtoNode:
		p := t.Proto
		return func(v *View) bool { return v.Version != 0 && v.Proto == p }, nil
	case *HostNode:
		addr, dir := t.Addr, t.Dir
		return func(v *View) bool {
			if v.Version == 0 {
				return false
			}
			if dir == DirSrc {
				return v.Src == addr
			}
			return v.Dst == addr
		}, nil
	case *NetNode:
		pfx, dir := t.Prefix, t.Dir
		return func(v *View) bool {
			if v.Version == 0 {
				return false
			}
			if dir == DirSrc {
				return pfx.Contains(v.Src)
			}
			return pfx.Contains(v.Dst)
		}, nil
	case *PortNode:
		lo, hi, dir := t.Lo, t.Hi, t.Dir
		return func(v *View) bool {
			if !v.HasPorts {
				return false
			}
			switch dir {
			case DirSrc:
				return v.SrcPort >= lo && v.SrcPort <= hi
			case DirDst:
				return v.DstPort >= lo && v.DstPort <= hi
			default:
				return (v.SrcPort >= lo && v.SrcPort <= hi) ||
					(v.DstPort >= lo && v.DstPort <= hi)
			}
		}, nil
	case *CmpNode:
		f, op, val := t.Field, t.Op, t.Val
		return func(v *View) bool {
			return v.Version != 0 && op.eval(v.numField(f), val)
		}, nil
	default:
		return nil, fmt.Errorf("filter: unknown node %T", n)
	}
}
