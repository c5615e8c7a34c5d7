package filter

import (
	"errors"
	"net/netip"
	"testing"

	"netkit/packet"
)

var (
	srcA = netip.MustParseAddr("10.1.2.3")
	dstA = netip.MustParseAddr("192.168.0.9")
	src6 = netip.MustParseAddr("2001:db8::1")
	dst6 = netip.MustParseAddr("2001:db8::2")
)

func udp4(t *testing.T, sp, dp uint16, ttl uint8) []byte {
	t.Helper()
	b, err := packet.BuildUDP4(srcA, dstA, sp, dp, ttl, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func tcp4(t *testing.T, sp, dp uint16) []byte {
	t.Helper()
	b, err := packet.BuildTCP4(srcA, dstA, sp, dp, 64, packet.TCPSyn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func udp6(t *testing.T, sp, dp uint16) []byte {
	t.Helper()
	b, err := packet.BuildUDP6(src6, dst6, sp, dp, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// match compiles spec with BOTH compilers and asserts they agree before
// returning the verdict; every test therefore doubles as an equivalence
// check between the closure and VM matchers.
func match(t *testing.T, spec string, raw []byte) bool {
	t.Helper()
	c, err := Compile(spec)
	if err != nil {
		t.Fatalf("Compile(%q): %v", spec, err)
	}
	p, err := CompileToProgram(spec)
	if err != nil {
		t.Fatalf("CompileToProgram(%q): %v", spec, err)
	}
	v := Extract(raw)
	got, gotVM := c.Match(&v), p.Match(&v)
	if got != gotVM {
		t.Fatalf("spec %q: closure=%v vm=%v", spec, got, gotVM)
	}
	return got
}

func TestBasicMatches(t *testing.T) {
	u := udp4(t, 5000, 53, 64)
	cases := []struct {
		spec string
		want bool
	}{
		{"ip", true},
		{"ip6", false},
		{"udp", true},
		{"tcp", false},
		{"icmp", false},
		{"proto 17", true},
		{"proto 6", false},
		{"src host 10.1.2.3", true},
		{"src host 10.1.2.4", false},
		{"dst host 192.168.0.9", true},
		{"dst host 10.1.2.3", false},
		{"src net 10.0.0.0/8", true},
		{"src net 11.0.0.0/8", false},
		{"dst net 192.168.0.0/16", true},
		{"src port 5000", true},
		{"dst port 53", true},
		{"dst port 54", false},
		{"port 53", true},
		{"port 5000", true},
		{"port 54", false},
		{"dst port 50-60", true},
		{"dst port 54-60", false},
		{"ttl == 64", true},
		{"ttl 64", true},
		{"ttl != 64", false},
		{"ttl < 65", true},
		{"ttl <= 64", true},
		{"ttl > 64", false},
		{"ttl >= 65", false},
		{"len > 10", true},
		{"tos == 0", true},
	}
	for _, tc := range cases {
		if got := match(t, tc.spec, u); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestBooleanCombinators(t *testing.T) {
	u := udp4(t, 5000, 53, 64)
	tc6 := udp6(t, 1, 2)
	cases := []struct {
		spec string
		raw  []byte
		want bool
	}{
		{"ip and udp", u, true},
		{"ip and tcp", u, false},
		{"tcp or udp", u, true},
		{"tcp or icmp", u, false},
		{"not tcp", u, true},
		{"not udp", u, false},
		{"not not udp", u, true},
		{"ip and (dst port 53 or dst port 80)", u, true},
		{"ip and (dst port 81 or dst port 80)", u, false},
		{"ip6 and udp", tc6, true},
		{"ip6 and udp and src host 2001:db8::1", tc6, true},
		{"ip6 and src net 2001:db8::/32", tc6, true},
		{"ip or ip6", tc6, true},
		{"not (tcp or icmp)", u, true},
	}
	for _, tc := range cases {
		if got := match(t, tc.spec, tc.raw); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestTCPMatch(t *testing.T) {
	p := tcp4(t, 443, 55000)
	if !match(t, "tcp and src port 443", p) {
		t.Fatal("tcp match failed")
	}
	if match(t, "udp and src port 443", p) {
		t.Fatal("udp should not match tcp packet")
	}
}

func TestUnparseablePacketFailsClosed(t *testing.T) {
	junk := []byte{0xff, 0x01, 0x02}
	for _, spec := range []string{"ip", "udp", "not udp", "ttl < 200", "port 1"} {
		if match(t, spec, junk) {
			t.Errorf("%q matched junk packet", spec)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"and",
		"ip and",
		"ip banana",
		"(ip",
		"ip)",
		"src",
		"src host",
		"src host notanaddr",
		"src net 10.0.0.1", // not a CIDR
		"port",
		"port 70000",      // out of range
		"dst port 100-50", // inverted
		"proto 300",       // out of range
		"ttl ^ 5",         // bad operator
		"ttl <",
		"ip ip",        // trailing
		"src port 1 2", // trailing
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) error %v is not *SyntaxError", spec, err)
			}
		}
	}
}

func TestASTStringRoundTrip(t *testing.T) {
	specs := []string{
		"ip and udp",
		"(tcp or udp) and dst port 53",
		"not icmp",
		"src net 10.0.0.0/8 and ttl < 5",
		"dst port 1000-2000",
		"ip6 and src host 2001:db8::1",
		"tos >= 46",
		"proto 47",
	}
	for _, spec := range specs {
		n, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", spec, n.String(), err)
		}
		if n.String() != n2.String() {
			t.Errorf("unstable render: %q -> %q -> %q", spec, n.String(), n2.String())
		}
	}
}

func TestProgramLenAndString(t *testing.T) {
	p, err := CompileToProgram("ip and udp and dst port 53")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 { // 3 tests + 2 ands
		t.Fatalf("program length = %d, want 5", p.Len())
	}
	if p.String() == "" {
		t.Fatal("empty program string")
	}
}

func TestDeepExpressionStack(t *testing.T) {
	// Build an expression deeper than the VM's fixed stack (16) to exercise
	// the allocating path: right-leaning ors need one stack slot per level.
	spec := "dst port 1"
	for i := 2; i <= 40; i++ {
		spec = "dst port " + itoa(i) + " or (" + spec + ")"
	}
	u := udp4(t, 9, 1, 64)
	if !match(t, spec, u) {
		t.Fatal("deep expression failed to match")
	}
	u2 := udp4(t, 9, 500, 64)
	if match(t, spec, u2) {
		t.Fatal("deep expression false positive")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestProtoConstantsAgreeWithPacket(t *testing.T) {
	if protoTCP != packet.ProtoTCP || protoUDP != packet.ProtoUDP || protoICMP != packet.ProtoICMP {
		t.Fatal("filter proto constants diverge from packet package")
	}
}

// ---- table -----------------------------------------------------------------

func TestTableFirstMatchWins(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Add("udp and dst port 53", 10, "dns"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add("udp", 20, "udp-any"); err != nil {
		t.Fatal(err)
	}
	out, ok := tbl.Lookup(udp4(t, 1, 53, 64))
	if !ok || out != "dns" {
		t.Fatalf("lookup = %q %v", out, ok)
	}
	out, ok = tbl.Lookup(udp4(t, 1, 80, 64))
	if !ok || out != "udp-any" {
		t.Fatalf("lookup = %q %v", out, ok)
	}
}

func TestTablePriorityOrdering(t *testing.T) {
	tbl := NewTable()
	// Insert the broad rule first but with a later priority.
	if _, err := tbl.Add("udp", 20, "broad"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add("udp and dst port 53", 10, "specific"); err != nil {
		t.Fatal(err)
	}
	out, _ := tbl.Lookup(udp4(t, 1, 53, 64))
	if out != "specific" {
		t.Fatalf("priority not honoured: got %q", out)
	}
	rules := tbl.Rules()
	if len(rules) != 2 || rules[0].Output != "specific" {
		t.Fatalf("rules order = %+v", rules)
	}
}

func TestTableTieBreakByInsertion(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Add("udp", 10, "first"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add("udp", 10, "second"); err != nil {
		t.Fatal(err)
	}
	out, _ := tbl.Lookup(udp4(t, 1, 1, 64))
	if out != "first" {
		t.Fatalf("tie break = %q", out)
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable()
	id, err := tbl.Add("udp", 10, "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove(id); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if err := tbl.Remove(id); !errors.Is(err, ErrRuleNotFound) {
		t.Fatalf("want ErrRuleNotFound, got %v", err)
	}
	if _, ok := tbl.Lookup(udp4(t, 1, 1, 64)); ok {
		t.Fatal("matched after removal")
	}
}

func TestTableBadSpecRejected(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Add("not a valid ((", 1, "x"); err == nil {
		t.Fatal("want error")
	}
	if tbl.Len() != 0 {
		t.Fatal("bad rule installed")
	}
}

func TestTableConcurrentLookupDuringMutation(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Add("udp", 100, "base"); err != nil {
		t.Fatal(err)
	}
	pkt := udp4(t, 1, 53, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if _, ok := tbl.Lookup(pkt); !ok {
				t.Error("base rule vanished")
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		id, err := tbl.Add("udp and dst port 53", 10, "dns")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
