package filter

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzCompiledEquivalence pins the tuple-space compiled backend to the VM
// interpreter: for ANY rule set (derived from the fuzzed seed through the
// same AST generator the quick tests use) and ANY packet bytes, the
// compiled verdict must equal the linear VM walk — same output name, same
// match/miss. The rule-set size straddles the linear cutoff so the fuzzer
// exercises both the ordered-walk and hashed modes, and every table also
// gets probed with generator-built Views to cover field combinations raw
// bytes rarely hit.
func FuzzCompiledEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(1), []byte{})
	f.Add(uint64(2), uint8(3), []byte{0x45, 0x00, 0x00, 0x1c})
	f.Add(uint64(3), uint8(7), mustUDPBytes(1234, 53))
	f.Add(uint64(4), uint8(12), mustUDPBytes(8080, 20000))
	f.Add(uint64(5), uint8(24), mustUDPBytes(1, 65535))
	f.Fuzz(func(t *testing.T, seed uint64, nRules uint8, raw []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + int(nRules)%32
		tbl := NewTable()
		for i := 0; i < n; i++ {
			node := genNode(rng, 3)
			if _, err := tbl.Add(node.String(), rng.Intn(6), fmt.Sprintf("o%d", i)); err != nil {
				t.Fatalf("add %q: %v", node.String(), err)
			}
		}
		snap := tbl.Snapshot()
		check := func(v *View, what string) {
			gotOut, gotOk := snap.Lookup(v)
			wantOut, wantOk := tbl.LookupViewVM(v)
			if gotOut != wantOut || gotOk != wantOk {
				t.Fatalf("%s view %+v: compiled (%q,%v) vs vm (%q,%v); rules %v",
					what, *v, gotOut, gotOk, wantOut, wantOk, tbl.Rules())
			}
			if idx := snap.LookupIndex(v); (idx >= 0) != wantOk ||
				(idx < 0 && idx != -1) || (idx >= 0 && snap.Outputs()[idx] != wantOut) {
				t.Fatalf("%s view %+v: index %d into %v vs vm (%q,%v)",
					what, *v, idx, snap.Outputs(), wantOut, wantOk)
			}
		}
		v := Extract(raw)
		check(&v, "raw")
		for i := 0; i < 16; i++ {
			rv := randView(rng)
			check(&rv, "generated")
		}
	})
}

// mustUDPBytes builds a valid UDP/IPv4 packet for the seed corpus.
func mustUDPBytes(srcPort, dstPort uint16) []byte {
	rng := rand.New(rand.NewSource(int64(srcPort)*65536 + int64(dstPort)))
	_ = rng
	// Hand-rolled minimal IPv4+UDP header (20+8 bytes), proto 17.
	b := make([]byte, 28)
	b[0] = 0x45
	b[2], b[3] = 0, 28
	b[8] = 64
	b[9] = 17
	copy(b[12:16], []byte{10, 0, 0, 1})
	copy(b[16:20], []byte{10, 0, 0, 2})
	b[20], b[21] = byte(srcPort>>8), byte(srcPort)
	b[22], b[23] = byte(dstPort>>8), byte(dstPort)
	b[25] = 8
	return b
}

// FuzzParse feeds the parser arbitrary specs, as `nkctl filter` and
// nkconfig do. Any spec it accepts must render to syntax that reparses to
// the same rendering, compile to a program, and have that program agree
// with the closure oracle on generated views.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"ip and udp and dst port 53",
		"(tcp or udp) and not src net 10.0.0.0/8",
		"ip6 and src host 2001:db8::1 or dst port 1000-2000",
		"ttl 5 or len >= 1500 or tos != 0",
		"not not proto 47",
		"port 70000",
		"ttl 99999999999999999999",
		"udp and",
	} {
		f.Add(spec, int64(len(spec)))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		n, err := Parse(spec)
		if err != nil {
			return
		}
		text := n.String()
		n2, err := Parse(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not reparse: %v", spec, text, err)
		}
		if again := n2.String(); again != text {
			t.Fatalf("%q renders as %q, then as %q", spec, text, again)
		}
		p, err := CompileProgram(n)
		if err != nil {
			t.Fatalf("%q parses but does not compile: %v", spec, err)
		}
		c, err := closure(n)
		if err != nil {
			t.Fatalf("%q: closure oracle: %v", spec, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			v := randView(rng)
			if got, want := p.Match(&v), c(&v); got != want {
				t.Fatalf("%q on view %+v: vm %v, closure %v", spec, v, got, want)
			}
		}
	})
}
