package filter

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"netkit/packet"
)

// extractOracle is the by-value extraction the in-place parser replaced,
// kept as the reference FuzzExtractInto checks it against: each header is
// parsed into packet's header struct and the View built from its fields.
func extractOracle(raw []byte) View {
	v := View{Len: len(raw)}
	switch packet.Version(raw) {
	case 4:
		h, err := packet.ParseIPv4(raw)
		if err != nil {
			return v
		}
		v.Version = 4
		v.Src, v.Dst = h.Src, h.Dst
		v.Proto = h.Protocol
		v.TTL = h.TTL
		v.TOS = h.TOS
		fillViewPorts(&v, raw[h.IHL:h.TotalLen])
	case 6:
		h, err := packet.ParseIPv6(raw)
		if err != nil {
			return v
		}
		v.Version = 6
		v.Src, v.Dst = h.Src, h.Dst
		v.Proto = h.NextHeader
		v.TTL = h.HopLimit
		v.TOS = h.TrafficClass
		fillViewPorts(&v, raw[packet.IPv6HeaderLen:])
	}
	return v
}

// FuzzExtractInto: for arbitrary bytes, parsing in place yields the
// oracle's view, also into a View that held another packet's fields, so
// no stale field survives; Extract agrees too.
func FuzzExtractInto(f *testing.F) {
	a4 := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	b4 := netip.AddrFrom4([4]byte{192, 168, 7, 9})
	a6 := netip.MustParseAddr("2001:db8::1")
	b6 := netip.MustParseAddr("2001:db8::2")
	u4, _ := packet.BuildUDP4(a4, b4, 1234, 53, 64, []byte("payload"))
	t4, _ := packet.BuildTCP4(b4, a4, 80, 40000, 3, 0x12, nil)
	u6, _ := packet.BuildUDP6(a6, b6, 5353, 5353, 255, []byte("x"))
	opts := append([]byte{0x46}, u4[1:]...) // IHL 24: the ports move
	for _, seed := range [][]byte{nil, {0x45}, u4, t4, u6, opts, u4[:20], u6[:41], {0x60, 0, 0, 0}} {
		f.Add(seed, u6)
		f.Add(seed, u4)
	}
	f.Fuzz(func(t *testing.T, raw, prev []byte) {
		want := extractOracle(raw)
		var v View
		ExtractInto(&v, prev)
		ExtractInto(&v, raw)
		if v != want {
			t.Fatalf("in place after %x: %+v, oracle %+v", prev, v, want)
		}
		if got := Extract(raw); got != want {
			t.Fatalf("Extract: %+v, oracle %+v", got, want)
		}
	})
}

// TestAppendedRulesLeaveHeldStateAlone: a rule that sorts last is appended
// to the shared rule array, so a Snapshot and a Rules() result taken
// earlier must not change across later appends, removes and appends.
func TestAppendedRulesLeaveHeldStateAlone(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 8; i++ {
		if _, err := tbl.Add(fmt.Sprintf("udp and dst port %d", 100+i), i, fmt.Sprintf("o%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	rules := tbl.Rules()
	held := append([]Rule(nil), rules...)
	list := tbl.rules.Load().rules // the published array later appends share
	heldCopy := append([]*Rule(nil), list...)
	outputs := append([]string(nil), snap.Outputs()...)
	probe := func(port uint16) View {
		return View{Version: 4, Proto: packet.ProtoUDP, DstPort: port, HasPorts: true}
	}
	var wantIdx []int32
	for port := uint16(99); port < 110; port++ {
		v := probe(port)
		wantIdx = append(wantIdx, snap.LookupIndex(&v))
	}
	var ids []uint64
	type heldList struct{ live, copied []*Rule }
	var lists []heldList
	for i := 0; i < 1000; i++ {
		if i >= 400 && i < 600 { // the middle phase removes
			k := len(ids) / 2
			if err := tbl.Remove(ids[k]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:k], ids[k+1:]...)
			continue
		}
		prio := 8 + i
		if i%10 == 9 {
			prio = 8 // a mid-list insert
		}
		id, err := tbl.Add(fmt.Sprintf("udp and dst port %d", 100+i%12), prio, fmt.Sprintf("late%d", i%5))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i%7 == 0 {
			live := tbl.rules.Load().rules
			lists = append(lists, heldList{live, append([]*Rule(nil), live...)})
		}
	}
	if !reflect.DeepEqual(rules, held) {
		t.Fatal("a held Rules() result changed under later appends")
	}
	lists = append(lists, heldList{list, heldCopy})
	for _, l := range lists {
		if !reflect.DeepEqual(l.live, l.copied) {
			t.Fatal("a published rule list changed under later appends")
		}
	}
	if !reflect.DeepEqual(snap.Outputs(), outputs) || snap.rules != 8 {
		t.Fatalf("a held Snapshot changed: %d rules, outputs %v", snap.rules, snap.Outputs())
	}
	for i, port := 0, uint16(99); port < 110; i, port = i+1, port+1 {
		v := probe(port)
		if got := snap.LookupIndex(&v); got != wantIdx[i] {
			t.Fatalf("held snapshot, port %d: index %d, was %d", port, got, wantIdx[i])
		}
	}
	if n := tbl.Len(); n != 8+len(ids) {
		t.Fatalf("table holds %d rules, want %d", n, 8+len(ids))
	}
}

// TestConcurrentMutationIndexAgrees: while writers add and remove rules,
// readers' compiled index lookups agree with the VM walk whenever both
// ran against one generation.
func TestConcurrentMutationIndexAgrees(t *testing.T) {
	tbl := NewTable()
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var ids []uint64
			for i := 0; i < 400; i++ {
				spec := fmt.Sprintf("udp and dst port %d", rng.Intn(8))
				prio := i // mostly appends
				if rng.Intn(4) == 0 {
					prio = rng.Intn(10) // a mid-list insert
				}
				id, err := tbl.Add(spec, prio, fmt.Sprintf("o%d", rng.Intn(4)))
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, id)
				if len(ids) > 12 {
					k := rng.Intn(len(ids))
					if err := tbl.Remove(ids[k]); err != nil {
						t.Error(err)
						return
					}
					ids = append(ids[:k], ids[k+1:]...)
				}
			}
		}(w)
	}
	var agreed atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for port := uint16(0); port < 9; port++ {
					v := View{Version: 4, Proto: packet.ProtoUDP, DstPort: port, HasPorts: true}
					gen := tbl.Gen()
					snap := tbl.Snapshot()
					wantOut, wantOK := tbl.LookupViewVM(&v)
					if tbl.Gen() != gen || snap.Gen() != gen {
						continue // a mutation landed between the two lookups
					}
					idx := snap.LookupIndex(&v)
					if (idx >= 0) != wantOK || (wantOK && snap.Outputs()[idx] != wantOut) {
						t.Errorf("gen %d port %d: index %d (outputs %v), vm (%q,%v)",
							gen, port, idx, snap.Outputs(), wantOut, wantOK)
						return
					}
					agreed.Add(1)
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if agreed.Load() == 0 {
		t.Fatal("no lookup ran against a stable generation")
	}
}
