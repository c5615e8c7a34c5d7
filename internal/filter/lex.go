// Package filter implements the packet-filter specification language used
// by the Router CF's IClassifier interface (§5: "register_filter() ... the
// component must honour the semantics of installed filter specifications").
//
// The language is a tcpdump-flavoured boolean expression grammar:
//
//	expr    = or
//	or      = and { "or" and }
//	and     = unary { "and" unary }
//	unary   = "not" unary | "(" expr ")" | test
//	test    = "ip" | "ip6" | "tcp" | "udp" | "icmp"
//	        | ("src"|"dst") "host" ADDR
//	        | ("src"|"dst") "net" CIDR
//	        | ["src"|"dst"] "port" NUM [ "-" NUM ]
//	        | "proto" NUM
//	        | ("ttl"|"len"|"tos") [ CMP ] NUM
//	CMP     = "==" | "!=" | "<" | "<=" | ">" | ">="
//
// Specifications compile to one evaluator: a postfix instruction program
// executed by a small stack VM (analogous to the paper's concern that
// in-band functions must count machine instructions with care). A Table
// indexes its rules' programs with a tuple-space compiler (tss.go) so that
// lookup cost stays flat in the rule count (experiments E5, E15).
package filter

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF  tokenKind = iota + 1
	tokWord           // identifiers/keywords: ip, tcp, src, host, ...
	tokNum            // decimal number
	tokAddr           // something address-like: 10.0.0.1, 2001:db8::1, 10.0.0.0/8
	tokLParen
	tokRParen
	tokOp // comparison operator
	tokDash
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// SyntaxError describes a lexical or grammatical error with its position.
type SyntaxError struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("filter: syntax error at %d: %s", e.Pos, e.Msg)
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '-':
			toks = append(toks, token{tokDash, "-", i})
			i++
		case c == '=' || c == '!' || c == '<' || c == '>':
			start := i
			i++
			if i < len(src) && src[i] == '=' {
				i++
			}
			op := src[start:i]
			switch op {
			case "==", "!=", "<", "<=", ">", ">=":
				toks = append(toks, token{tokOp, op, start})
			default:
				return nil, &SyntaxError{start, fmt.Sprintf("bad operator %q", op)}
			}
		case isAddrByte(c):
			start := i
			for i < len(src) && isAddrByte(src[i]) {
				i++
			}
			text := src[start:i]
			switch {
			case isNumber(text):
				toks = append(toks, token{tokNum, text, start})
			case strings.ContainsAny(text, ".:/"):
				toks = append(toks, token{tokAddr, text, start})
			case isWord(text):
				toks = append(toks, token{tokWord, strings.ToLower(text), start})
			default:
				return nil, &SyntaxError{start, fmt.Sprintf("bad token %q", text)}
			}
		default:
			return nil, &SyntaxError{i, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isAddrByte(c byte) bool {
	return c == '.' || c == ':' || c == '/' ||
		('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c == '_'
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

func isWord(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			return false
		}
	}
	return unicode.IsLetter(rune(s[0]))
}
