package filter

import (
	"fmt"
	"net/netip"
	"strconv"
)

// Parse compiles a filter specification into its AST. An empty or
// whitespace-only spec is an error; use the explicit "ip or ip6" to match
// everything.
func Parse(spec string) (Node, error) {
	toks, err := lex(spec)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, &SyntaxError{p.peek().pos, fmt.Sprintf("trailing input %q", p.peek().text)}
	}
	return n, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokWord && p.peek().text == "or" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &OrNode{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokWord && p.peek().text == "and" {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &AndNode{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Node, error) {
	t := p.peek()
	switch {
	case t.kind == tokWord && t.text == "not":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotNode{X: x}, nil
	case t.kind == tokLParen:
		p.next()
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if tt := p.next(); tt.kind != tokRParen {
			return nil, &SyntaxError{tt.pos, "expected )"}
		}
		return x, nil
	default:
		return p.parseTest()
	}
}

func (p *parser) parseTest() (Node, error) {
	t := p.next()
	if t.kind != tokWord {
		return nil, &SyntaxError{t.pos, fmt.Sprintf("expected test, got %q", t.text)}
	}
	switch t.text {
	case "ip":
		return &VersionNode{V: 4}, nil
	case "ip6":
		return &VersionNode{V: 6}, nil
	case "tcp":
		return &ProtoNode{Proto: protoTCP}, nil
	case "udp":
		return &ProtoNode{Proto: protoUDP}, nil
	case "icmp":
		return &ProtoNode{Proto: protoICMP}, nil
	case "proto":
		n, err := p.parseNum()
		if err != nil {
			return nil, err
		}
		if n > 255 {
			return nil, &SyntaxError{t.pos, fmt.Sprintf("proto %d out of range", n)}
		}
		return &ProtoNode{Proto: uint8(n)}, nil
	case "src", "dst":
		dir := DirSrc
		if t.text == "dst" {
			dir = DirDst
		}
		return p.parseDirectedTest(dir)
	case "port":
		return p.parsePortTail(DirEither, t.pos)
	case "ttl", "len", "tos":
		var f NumField
		switch t.text {
		case "ttl":
			f = FieldTTL
		case "len":
			f = FieldLen
		case "tos":
			f = FieldTOS
		}
		return p.parseCmpTail(f)
	default:
		return nil, &SyntaxError{t.pos, fmt.Sprintf("unknown test %q", t.text)}
	}
}

func (p *parser) parseDirectedTest(dir Dir) (Node, error) {
	t := p.next()
	if t.kind != tokWord {
		return nil, &SyntaxError{t.pos, fmt.Sprintf("expected host/net/port after %s", dir)}
	}
	switch t.text {
	case "host":
		a := p.next()
		if a.kind != tokAddr {
			return nil, &SyntaxError{a.pos, fmt.Sprintf("expected address, got %q", a.text)}
		}
		addr, err := netip.ParseAddr(a.text)
		if err != nil {
			return nil, &SyntaxError{a.pos, fmt.Sprintf("bad address %q: %v", a.text, err)}
		}
		return &HostNode{Dir: dir, Addr: addr}, nil
	case "net":
		a := p.next()
		if a.kind != tokAddr {
			return nil, &SyntaxError{a.pos, fmt.Sprintf("expected CIDR, got %q", a.text)}
		}
		pfx, err := netip.ParsePrefix(a.text)
		if err != nil {
			return nil, &SyntaxError{a.pos, fmt.Sprintf("bad CIDR %q: %v", a.text, err)}
		}
		return &NetNode{Dir: dir, Prefix: pfx.Masked()}, nil
	case "port":
		return p.parsePortTail(dir, t.pos)
	default:
		return nil, &SyntaxError{t.pos, fmt.Sprintf("unknown directed test %q", t.text)}
	}
}

func (p *parser) parsePortTail(dir Dir, pos int) (Node, error) {
	lo, err := p.parseNum()
	if err != nil {
		return nil, err
	}
	hi := lo
	if p.peek().kind == tokDash {
		p.next()
		hi, err = p.parseNum()
		if err != nil {
			return nil, err
		}
	}
	if lo > 65535 || hi > 65535 {
		return nil, &SyntaxError{pos, fmt.Sprintf("port %d-%d out of range", lo, hi)}
	}
	if hi < lo {
		return nil, &SyntaxError{pos, fmt.Sprintf("inverted port range %d-%d", lo, hi)}
	}
	return &PortNode{Dir: dir, Lo: uint16(lo), Hi: uint16(hi)}, nil
}

func (p *parser) parseCmpTail(f NumField) (Node, error) {
	op := CmpEq // "ttl 5" is sugar for "ttl == 5"
	if t := p.peek(); t.kind == tokOp {
		p.next()
		switch t.text {
		case "!=":
			op = CmpNe
		case "<":
			op = CmpLt
		case "<=":
			op = CmpLe
		case ">":
			op = CmpGt
		case ">=":
			op = CmpGe
		}
	} else if t.kind != tokNum {
		return nil, &SyntaxError{t.pos, fmt.Sprintf("expected comparison after %s", f)}
	}
	v, err := p.parseNum()
	if err != nil {
		return nil, err
	}
	return &CmpNode{Field: f, Op: op, Val: v}, nil
}

func (p *parser) parseNum() (int, error) {
	t := p.next()
	if t.kind != tokNum {
		return 0, &SyntaxError{t.pos, fmt.Sprintf("expected number, got %q", t.text)}
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, &SyntaxError{t.pos, fmt.Sprintf("bad number %q", t.text)}
	}
	return n, nil
}
