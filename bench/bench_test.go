package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"netkit/router"
)

// The generator must not allocate: alloc_b_per_pkt is then the program's
// own. (nkload's stream driver built a fresh [][]byte per batch, which was
// 24 of the 28.4 B/op its documents reported on the fused path.)
func TestGeneratorAllocatesNothing(t *testing.T) {
	tp, err := newTape("alloc", 1, traffic{flows: 64, tapeLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	null := newNullSink()
	allocs := testing.AllocsPerRun(500, func() {
		tp.next(router.Nanotime())
		_ = null.PushBatch(tp.batch)
	})
	if allocs != 0 {
		t.Fatalf("generator into a null target allocates %v times per batch, want 0", allocs)
	}
}

func TestSeedNamesTheFrames(t *testing.T) {
	tr := traffic{flows: 4096, tapeLen: 2048, imix: true, zipf: true, routed: true}
	hash := func(seed uint64) string {
		tp, err := newTape("router_imix_sat", seed, tr)
		if err != nil {
			t.Fatal(err)
		}
		return tp.hash()
	}
	if a, b := hash(7), hash(7); a != b {
		t.Fatalf("seed 7 gave two frame sets: %s and %s", a, b)
	}
	if a, b := hash(7), hash(8); a == b {
		t.Fatalf("seeds 7 and 8 gave the same frame set %s", a)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// a [0,100] holds b [10,40] and c [50,90]; b holds d [20,30].
	spans := []Span{
		{Parent: -1, Start: 0, End: 100},
		{Parent: 0, Start: 10, End: 40},
		{Parent: 0, Start: 50, End: 90},
		{Parent: 1, Start: 20, End: 30},
	}
	want := []int64{30, 20, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
}

// A sampled root records everything under it, an unsampled one nothing,
// and a span's parent is the span open on its track when it started.
func TestTracerParentsAndSampling(t *testing.T) {
	tr := newTracer([]string{"a", "b"}, 16)
	tr.every = 1
	outer, inner := tr.point("outer"), tr.point("inner")
	o := tr.open(0, outer, 32, nil)
	other := tr.open(1, inner, 16, nil) // another track: no parent
	i := tr.open(0, inner, 32, nil)
	tr.shut(0, i)
	tr.shut(1, other)
	tr.shut(0, o)
	sp := tr.recorded()
	if len(sp) != 3 || sp[i].Parent != int(o) || sp[other].Parent != -1 || sp[o].Parent != -1 {
		t.Fatalf("parents wrong: %+v", sp)
	}
	points, tracks := tr.reduce()
	if p := findPoint(points, "inner"); p.Calls != 2 || p.CallPkts != 48 {
		t.Fatalf("inner counted %d calls, %d packets; want 2 and 48", p.Calls, p.CallPkts)
	}
	if findTrack(tracks, "a").Roots != 1 || findTrack(tracks, "b").Roots != 1 {
		t.Fatalf("roots per track wrong: %+v", tracks)
	}
}

// The oracle must reject a reordered and a short-counted delivery, and
// accept a clean one; main exits non-zero on a rejected run.
func TestOracleRejectsWrongDeliveries(t *testing.T) {
	tp, err := newTape("oracle", 1, traffic{flows: 1, tapeLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(order ...int) *Sink {
		s := newSink(1)
		batches := make([][]*router.Packet, 3)
		for i := range batches {
			tp.next(router.Nanotime())
			batches[i] = append([]*router.Packet(nil), tp.batch...)
		}
		for _, i := range order {
			_ = s.PushBatch(batches[i])
		}
		return s
	}
	log := func(s *Sink, offered uint64) delivery {
		return delivery{offered: offered, delivered: s.packets.Load(), reordered: s.reordered.Load(),
			badCsum: s.badCsum.Load(), foreign: s.foreign.Load()}
	}
	if bad := log(feed(0, 1, 2), 3*batchSize).verdict(); len(bad) != 0 {
		t.Fatalf("clean delivery rejected: %v", bad)
	}
	if bad := log(feed(0, 2, 1), 3*batchSize).verdict(); len(bad) != 1 || !strings.HasPrefix(bad[0], "order:") {
		t.Fatalf("reordered delivery: verdict %v, want one order problem", bad)
	}
	if bad := log(feed(0, 1), 3*batchSize).verdict(); len(bad) != 1 || !strings.HasPrefix(bad[0], "conservation:") {
		t.Fatalf("short-counted delivery: verdict %v, want one conservation problem", bad)
	}
	wrongClass := delivery{classWant: []uint64{5, 5}, classGot: []uint64{6, 4}}
	if bad := wrongClass.verdict(); len(bad) != 2 {
		t.Fatalf("misclassified delivery: verdict %v, want two class problems", bad)
	}
	fresh, err := newTape("oracle", 2, traffic{flows: 1, tapeLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	fresh.next(router.Nanotime())
	fresh.frames[0][10] ^= 0xff // stream position 0 is one of the sampled ones
	s := newSink(1)
	_ = s.PushBatch(fresh.batch[:1])
	if s.badCsum.Load() != 1 {
		t.Fatalf("corrupt header passed the sampled checksum")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 100000; v++ {
		h.record(v)
	}
	c := h.counts()
	for _, q := range []float64{0.5, 0.99} {
		got, want := c.quantile(q), q*100000
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1 %%", q, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345} {
		lo, w := histBounds(histIndex(v))
		if v < lo || v >= lo+w {
			t.Errorf("value %d lands in bucket [%d,%d)", v, lo, lo+w)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, program has %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if e := bf.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end metric %d: file has %+v, program has %+v", i, e, d)
		}
	}
	if len(bf.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(bf.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if e := bf.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d: file has %+v, program has %+v", i, e, d)
		}
	}
}

// One short run of the simplest and of the fullest topology, untraced and
// traced: every metric the file names comes out, and the run is correct.
// No sockets, a second of traffic each.
func TestShortRuns(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"fwd64_sat", false}, {"fwd64_sat", true}, {"router_imix_sat", false}} {
		res, err := runWorkload(findWorkload(tc.workload), options{seed: 1, seconds: 1, trace: tc.trace})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: incorrect: %v, %d failed", tc.workload, res.Problems, res.Failed)
		}
		defs := endToEndDefs
		if tc.trace {
			defs = layerDefs
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", tc.workload, tc.trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s trace=%v: no metric %s", tc.workload, tc.trace, d.name)
			}
		}
	}
}
