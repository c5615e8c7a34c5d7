package filter

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"netkit/packet"
)

// mkTable installs the given (spec, priority, output) triples.
func mkTable(t *testing.T, rules [][3]string) *Table {
	t.Helper()
	tbl := NewTable()
	for _, r := range rules {
		var prio int
		fmt.Sscanf(r[1], "%d", &prio)
		if _, err := tbl.Add(r[0], prio, r[2]); err != nil {
			t.Fatalf("add %q: %v", r[0], err)
		}
	}
	return tbl
}

func udpView(t *testing.T, srcPort, dstPort uint16) View {
	t.Helper()
	raw, err := packet.BuildUDP4(
		netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		srcPort, dstPort, 64, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	return Extract(raw)
}

// TestCompiledHomogeneousCollapsesToOneSpace: an ACL built from one
// syntactic family compiles into a single tuple space with no residual —
// the shape that makes lookup cost flat in the rule count.
func TestCompiledHomogeneousCollapsesToOneSpace(t *testing.T) {
	tbl := NewTable()
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := tbl.Add(fmt.Sprintf("udp and dst port %d", 20000+i), i, fmt.Sprintf("out%d", i%4)); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	if len(snap.spaces) != 1 {
		t.Fatalf("expected 1 tuple space, got %d", len(snap.spaces))
	}
	if len(snap.residual) != 0 {
		t.Fatalf("expected empty residual, got %d", len(snap.residual))
	}
	if !snap.FlowSafe() || !snap.CacheWorthwhile() {
		t.Fatalf("port/proto rules should be flow-safe and cache-worthy")
	}
	for _, port := range []uint16{20000, 20999, 20500} {
		v := udpView(t, 1234, port)
		out, ok := snap.Lookup(&v)
		wantOut, wantOk := tbl.LookupViewVM(&v)
		if out != wantOut || ok != wantOk {
			t.Fatalf("port %d: compiled (%q,%v) vs vm (%q,%v)", port, out, ok, wantOut, wantOk)
		}
		if !ok {
			t.Fatalf("port %d should match", port)
		}
	}
	v := udpView(t, 1234, 53)
	if _, ok := snap.Lookup(&v); ok {
		t.Fatal("port 53 should miss")
	}
}

// TestCompiledFirstMatchOrder: overlapping rules resolve by (priority,
// insertion) order even when the candidates come from different tuple
// spaces and the residual list.
func TestCompiledFirstMatchOrder(t *testing.T) {
	tbl := NewTable()
	// Force tuple-space mode with filler beyond linearCutoff.
	for i := 0; i < linearCutoff+1; i++ {
		if _, err := tbl.Add(fmt.Sprintf("tcp and dst port %d", 40000+i), 90, "filler"); err != nil {
			t.Fatal(err)
		}
	}
	// Three overlapping matches for a udp dst-port-53 packet:
	//  - priority 10, hashed (proto+dstport space)
	//  - priority 5, residual (port range)
	//  - priority 7, different space (proto only)
	if _, err := tbl.Add("udp and dst port 53", 10, "hashed"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add("udp and dst port 50-60", 5, "residual"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add("udp", 7, "space2"); err != nil {
		t.Fatal(err)
	}
	v := udpView(t, 1111, 53)
	assertBoth := func(want string) {
		t.Helper()
		out, ok := tbl.Snapshot().Lookup(&v)
		if !ok || out != want {
			t.Fatalf("compiled gave (%q,%v), want %q", out, ok, want)
		}
		out, ok = tbl.LookupViewVM(&v)
		if !ok || out != want {
			t.Fatalf("vm gave (%q,%v), want %q", out, ok, want)
		}
	}
	assertBoth("residual")

	// Remove the best; the next by priority wins — and the compiled
	// snapshot rebuilds on the new generation.
	var residualID uint64
	for _, r := range tbl.Rules() {
		if r.Output == "residual" {
			residualID = r.ID
		}
	}
	if err := tbl.Remove(residualID); err != nil {
		t.Fatal(err)
	}
	assertBoth("space2")

	// A rule matched only through its second DNF clause is found through
	// that clause's bucket, verified by its whole program, and still wins
	// in priority order.
	if _, err := tbl.Add("dst port 53 or src host 10.0.0.1", 6, "second-clause"); err != nil {
		t.Fatal(err)
	}
	v = udpView(t, 1111, 9)
	assertBoth("second-clause")
}

// TestCompiledSmallTableStaysLinear: tables at or under the cutoff build
// no spaces, keep the ordered VM walk and are never cache-worthy; one rule
// over the cutoff makes a flow-safe table cache-worthy even when no clause
// is keyed, so the verdict depends on the table's size, not its spaces.
func TestCompiledSmallTableStaysLinear(t *testing.T) {
	tbl := mkTable(t, [][3]string{
		{"udp and dst port 53", "1", "dns"},
		{"tcp", "2", "tcp"},
	})
	snap := tbl.Snapshot()
	if len(snap.spaces) != 0 {
		t.Fatalf("small table should be linear, got %d spaces", len(snap.spaces))
	}
	if snap.CacheWorthwhile() {
		t.Fatal("small table should not be cache-worthy")
	}
	v := udpView(t, 9, 53)
	if out, ok := snap.Lookup(&v); !ok || out != "dns" {
		t.Fatalf("got (%q,%v)", out, ok)
	}

	nets := func(n int) *Table {
		tbl := NewTable()
		for i := 0; i < n; i++ {
			if _, err := tbl.Add(fmt.Sprintf("dst net 10.%d.0.0/16", i), i, "net"); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	if snap := nets(linearCutoff).Snapshot(); snap.CacheWorthwhile() {
		t.Fatalf("%d-rule table should not be cache-worthy", linearCutoff)
	}
	snap = nets(linearCutoff + 1).Snapshot()
	if len(snap.spaces) != 0 {
		t.Fatalf("keyless rules should build no spaces, got %d", len(snap.spaces))
	}
	if !snap.CacheWorthwhile() {
		t.Fatalf("%d-rule flow-safe table should be cache-worthy", linearCutoff+1)
	}
}

// TestCompiledFlowSafety: any ttl/len/tos comparison anywhere in the
// table (including under NOT) must mark the whole snapshot unsafe for
// per-flow caching; removing it restores safety.
func TestCompiledFlowSafety(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < linearCutoff+2; i++ {
		if _, err := tbl.Add(fmt.Sprintf("udp and dst port %d", 100+i), i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if !tbl.Snapshot().FlowSafe() {
		t.Fatal("pure 5-tuple table should be flow-safe")
	}
	id, err := tbl.Add("not (ttl > 3)", 50, "lowttl")
	if err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	if snap.FlowSafe() || snap.CacheWorthwhile() {
		t.Fatal("ttl comparison must disable flow-caching")
	}
	if err := tbl.Remove(id); err != nil {
		t.Fatal(err)
	}
	if !tbl.Snapshot().FlowSafe() {
		t.Fatal("flow safety should return once the cmp rule is gone")
	}
}

// TestCompiledDNFCapFallsBack: a rule whose DNF expansion exceeds the cap
// still matches, via the residual VM program.
func TestCompiledDNFCapFallsBack(t *testing.T) {
	// (a or b) and (c or d) and ... beyond maxClauses clauses.
	spec := "(dst port 1 or dst port 2) and (src port 1 or src port 2) and " +
		"(ttl > 0 or ttl < 5) and (len > 0 or len < 5) and (tos == 0 or tos != 1)"
	tbl := NewTable()
	for i := 0; i < linearCutoff+1; i++ {
		if _, err := tbl.Add(fmt.Sprintf("tcp and dst port %d", 300+i), 1, "filler"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Add(spec, 0, "big"); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	if len(snap.residual) == 0 {
		t.Fatal("exploding rule should land in the residual list")
	}
	v := udpView(t, 1, 2)
	out, ok := snap.Lookup(&v)
	wantOut, wantOk := tbl.LookupViewVM(&v)
	if out != wantOut || ok != wantOk {
		t.Fatalf("compiled (%q,%v) vs vm (%q,%v)", out, ok, wantOut, wantOk)
	}
}

// TestSnapshotGenerationFreeze: a snapshot taken before a mutation keeps
// answering from its own generation, while the table moves on — the
// contract batch classification relies on.
func TestSnapshotGenerationFreeze(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < linearCutoff+3; i++ {
		if _, err := tbl.Add(fmt.Sprintf("udp and dst port %d", 7000+i), i, "old"); err != nil {
			t.Fatal(err)
		}
	}
	before := tbl.Snapshot()
	g := before.Gen()
	if tbl.Gen() != g {
		t.Fatalf("table gen %d, snapshot gen %d", tbl.Gen(), g)
	}
	if _, err := tbl.Add("udp and dst port 7000", -1, "new"); err != nil {
		t.Fatal(err)
	}
	if tbl.Gen() == g {
		t.Fatal("mutation must advance the generation")
	}
	v := udpView(t, 1, 7000)
	if out, _ := before.Lookup(&v); out != "old" {
		t.Fatalf("frozen snapshot gave %q", out)
	}
	if out, _ := tbl.Snapshot().Lookup(&v); out != "new" {
		t.Fatalf("fresh snapshot gave %q", out)
	}
}

// TestCompiledRandomisedEquivalence is the in-process cousin of
// FuzzCompiledEquivalence: random rule sets (sizes straddling the linear
// cutoff) against random views, compiled verdict == VM verdict.
func TestCompiledRandomisedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 150; round++ {
		nRules := 1 + rng.Intn(24)
		tbl := NewTable()
		for i := 0; i < nRules; i++ {
			n := genNode(rng, 3)
			if _, err := tbl.Add(n.String(), rng.Intn(5), fmt.Sprintf("o%d", rng.Intn(3))); err != nil {
				t.Fatalf("add %q: %v", n.String(), err)
			}
		}
		snap := tbl.Snapshot()
		for i := 0; i < 48; i++ {
			v := randView(rng)
			gotOut, gotOk := snap.Lookup(&v)
			wantOut, wantOk := tbl.LookupViewVM(&v)
			if gotOut != wantOut || gotOk != wantOk {
				t.Fatalf("round %d view %+v: compiled (%q,%v) vs vm (%q,%v); rules %v",
					round, v, gotOut, gotOk, wantOut, wantOk, tbl.Rules())
			}
		}
	}
}
