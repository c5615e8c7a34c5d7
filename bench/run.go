package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netkit"
	"netkit/core"
	"netkit/internal/filter"
	"netkit/router"
)

// options is what one run of one workload is asked to do.
type options struct {
	seed    uint64
	seconds float64 // measuring time: warm-up plus the windows
	trace   bool
}

const (
	// windowNs is the length of one measured window. A run has many short
	// ones rather than a few long ones because of where it runs: on a
	// shared host the neighbours slow stretches of a second or so down by
	// up to a third, and the median of many windows moves less with that
	// than the median of four. (A best-of estimate was tried and dropped:
	// some ten-second runs contain no undisturbed stretch at all.)
	windowNs = 250_000_000
	// stallNs is how long a closed loop waits for a full window to move
	// before it writes the frames in flight off as lost.
	stallNs = 200_000_000
)

// snapshot is the state read at a window boundary, on the generator's own
// goroutine between two batches.
type snapshot struct {
	t         int64
	offered   uint64
	delivered uint64
	bytes     uint64
	lat, late histCounts
	cpu       time.Duration
	mem       runtime.MemStats
}

type window struct{ from, to snapshot }

func (w window) secs() float64     { return float64(w.to.t-w.from.t) / 1e9 }
func (w window) delivered() uint64 { return w.to.delivered - w.from.delivered }
func (w window) offered() uint64   { return w.to.offered - w.from.offered }

// runner drives one workload through set-up, warm-up, the windows and the
// drain.
type runner struct {
	w    *workload
	o    options
	tape *tape
	tgt  *target
	late hist // open loop: how far behind its schedule the generator sent

	offered, refused, writtenOff uint64

	// hold parks the generator between two batches while a meta-operation
	// that needs the ingress quiet runs: 0 running, 1 asked to park, 2
	// parked, 3 the generator has finished.
	hold atomic.Int32

	// windows are the measured ones; a traced run keeps those from before
	// the tracer went in apart, as its base.
	windows, base []window
	// traced run: the program's own counters at the two ends of base
	statsA, statsB layerStats

	tr                *tracer
	ptBatch, ptInject int
	occSum, occN      float64 // traced run: sampled queue occupancy
	churn             *churner
	installNs         int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *runner) snap() snapshot {
	s := snapshot{
		t:         router.Nanotime(),
		offered:   r.offered,
		delivered: r.tgt.sink.packets.Load(),
		bytes:     r.tgt.sink.bytes.Load(),
		lat:       r.tgt.sink.lat.counts(),
		cpu:       cpuTime(),
	}
	if r.w.intervalNs > 0 {
		s.late = r.late.counts()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func (r *runner) inFlight() uint64 {
	return r.offered - r.refused - r.writtenOff - r.tgt.sink.packets.Load()
}

// awaitWindow spins until fewer than limit frames are in flight. Frames
// that stay in flight for stallNs are written off: a lost frame must cost
// the run its result, not hang it.
func (r *runner) awaitWindow(limit uint64) {
	if r.inFlight() <= limit {
		return
	}
	last, since := r.inFlight(), router.Nanotime()
	for spins := 1; ; spins++ {
		runtime.Gosched()
		cur := r.inFlight()
		if cur <= limit {
			return
		}
		if spins&1023 != 0 {
			continue
		}
		now := router.Nanotime()
		if cur != last {
			last, since = cur, now
		} else if now-since > stallNs {
			r.writtenOff += cur
			return
		}
	}
}

// drive is the generator: one goroutine, one batch per iteration, nothing
// allocated. ends are the boundary times; boundary is called at each with
// its index, and drive returns after the last.
func (r *runner) drive(ends []int64, boundary func(i int)) {
	tp, tgt := r.tape, r.tgt
	limit := uint64(len(tp.frames) - 2*batchSize)
	if r.w.window > 0 && uint64(r.w.window) < limit {
		limit = uint64(r.w.window)
	}
	limit -= batchSize
	interval := r.w.intervalNs
	nextDue := router.Nanotime() + interval
	phase := 0
	defer r.hold.Store(3)
	for {
		if r.hold.Load() == 1 {
			r.hold.Store(2)
			for r.hold.Load() == 2 {
				runtime.Gosched()
			}
		}
		var due int64
		if interval > 0 {
			due = nextDue
			nextDue += interval
			for router.Nanotime() < due {
				runtime.Gosched()
			}
			r.late.record(uint64(router.Nanotime() - due))
		} else {
			r.awaitWindow(limit)
			due = router.Nanotime()
		}
		if due >= ends[phase] {
			boundary(phase)
			phase++
			if phase == len(ends) {
				return
			}
			if interval > 0 {
				// The boundary's own work is not the generator running late.
				due = router.Nanotime() + interval
				nextDue = due + interval
				for router.Nanotime() < due {
					runtime.Gosched()
				}
			} else {
				due = router.Nanotime()
			}
		}
		if r.tr == nil {
			tp.next(due)
			r.refused += uint64(tgt.inject(tp))
		} else {
			r.tracedBatch(due)
		}
		r.offered += batchSize
	}
}

// tracedBatch is one generator iteration under the tracer: the batch span
// covers stamping and the inject call, the inject span the call alone.
func (r *runner) tracedBatch(due int64) {
	tp := r.tape
	f := tp.frames[tp.pos]
	outer := r.tr.open(0, r.ptBatch, batchSize, nil)
	tp.next(due)
	inner := r.tr.open(0, r.ptInject, batchSize, f)
	r.refused += uint64(r.tgt.inject(tp))
	r.tr.shut(0, inner)
	r.tr.shut(0, outer)
	if outer >= 0 && inner >= 0 {
		r.tr.spans[outer].Batch, r.tr.spans[outer].Due = r.tr.spans[inner].Batch, due
		if len(r.tgt.queues) > 0 {
			r.sampleOccupancy()
		}
	}
}

// sampleOccupancy reads the router queues' fill once per sampled batch.
func (r *runner) sampleOccupancy() {
	n := 0
	for _, name := range r.tgt.queues {
		if comp, ok := r.tgt.sys.Capsule().Component(name); ok {
			if q, ok := comp.(interface{ Len() int }); ok {
				n += q.Len()
			}
		}
	}
	r.occSum += float64(n) / float64(len(r.tgt.queues)*queueCap)
	r.occN++
}

// measure runs warm-up and the windows and leaves them in r. A traced run
// keeps the first fifth of its windows untraced (its own baseline for the
// tracing overhead, and the interval the program's counters are read
// over), installs the tracer, and measures the rest with it in.
func (r *runner) measure() {
	warm := r.o.seconds / 10
	if warm > 1 {
		warm = 1
	}
	n := int((r.o.seconds - warm) * 1e9 / windowNs)
	if n < 5 {
		n = 5
	}
	nBase := 0
	if r.o.trace {
		nBase = n / 5
	}
	start := router.Nanotime()
	ends := make([]int64, n+1)
	for i := range ends {
		ends[i] = start + int64(warm*1e9) + int64(i)*windowNs
	}
	if r.w.churn {
		r.churn = startChurn(r)
	}
	var open snapshot
	r.drive(ends, func(i int) {
		s := r.snap()
		if i > 0 && i <= nBase {
			r.base = append(r.base, window{open, s})
		} else if i > 0 {
			r.windows = append(r.windows, window{open, s})
		}
		switch {
		case r.o.trace && i == 0:
			r.statsA = r.layerStats()
			s = r.snap()
		case r.o.trace && i == nBase:
			r.statsB = r.layerStats()
			t0 := router.Nanotime()
			if err := r.installTrace(); err != nil {
				fatal("installing the tracer: %v", err)
			}
			r.installNs = router.Nanotime() - t0
			s = r.snap()
		}
		open = s
	})
	if r.churn != nil {
		r.churn.stop()
	}
}

// drain waits for what was offered to finish, then reads the final state.
func (r *runner) drain() (delivered uint64, tree core.StatNode) {
	last, since := r.inFlight(), time.Now()
	for last > 0 && time.Since(since) < 2*time.Second {
		if r.tgt.remote != nil {
			_ = r.tgt.remote.Flush()
		}
		time.Sleep(time.Millisecond)
		if cur := r.inFlight(); cur != last {
			last, since = cur, time.Now()
		}
	}
	return r.tgt.sink.packets.Load(), netkit.Meta(r.tgt.sys.Capsule()).Stats().Tree()
}

// dropNames are the stats the conservation check adds up: every way the
// program admits to having let go of a packet.
var dropNames = map[string]bool{
	"packets_dropped": true, "udp_tx_drops": true, "udp_sock_drops": true,
	"ipc_dropped": true, "ipc_lost": true, "ipc_remote_failed": true,
}

// sumStats adds the named stats over the tree. A ShardedCF's lane nodes
// (named shard<i>, no type) repeat what its root and its inner components
// already report, so they are skipped.
func sumStats(n core.StatNode, names map[string]bool) float64 {
	var v float64
	if !(n.Type == "" && len(n.Name) > 5 && n.Name[:5] == "shard") {
		for _, s := range n.Stats {
			if names[s.Name] {
				v += s.Value
			}
		}
	}
	for _, ch := range n.Children {
		v += sumStats(ch, names)
	}
	return v
}

func statAt(tree core.StatNode, path, name string) float64 {
	n, ok := tree.Find(path)
	if !ok {
		return 0
	}
	s, _ := n.Stat(name)
	return s.Value
}

// classOracle predicts, from the VM walk over the harness's copy of the
// rules, how many frames of the stream interval [from,to) each classifier
// output must take.
type classOracle struct {
	prefix [][numClasses]uint64 // per batch boundary, over one tape pass
}

func newClassOracle(tp *tape) (*classOracle, error) {
	tb, err := ruleTable()
	if err != nil {
		return nil, err
	}
	classOf := make(map[uint32]int)
	o := &classOracle{prefix: make([][numClasses]uint64, len(tp.frames)/batchSize+1)}
	var run [numClasses]uint64
	for i, f := range tp.frames {
		if i%batchSize == 0 {
			o.prefix[i/batchSize] = run
		}
		k, ok := classOf[tp.flow[i]]
		if !ok {
			v := filter.Extract(f)
			out, matched := tb.LookupViewVM(&v)
			if !matched || len(out) != 4 {
				return nil, fmt.Errorf("flow %d matches no rule", tp.flow[i])
			}
			k = int(out[3] - '0')
			classOf[tp.flow[i]] = k
		}
		run[k]++
	}
	o.prefix[len(o.prefix)-1] = run
	return o, nil
}

func (o *classOracle) upTo(seq uint64) (c [numClasses]uint64) {
	per := uint64(len(o.prefix)-1) * batchSize
	total := o.prefix[len(o.prefix)-1]
	part := o.prefix[seq%per/batchSize]
	for k := range c {
		c[k] = seq/per*total[k] + part[k]
	}
	return c
}

func (o *classOracle) between(from, to uint64) []uint64 {
	a, b := o.upTo(from), o.upTo(to)
	out := make([]uint64, numClasses)
	for k := range out {
		out[k] = b[k] - a[k]
	}
	return out
}

// ---------------------------------------------------------------------------
// Meta-operations beside the traffic

// metaOp is one timed reconfiguration call.
type metaOp struct {
	kind string
	dur  int64
}

const (
	churnPeriodNs = 20_000_000 // 50 operations a second
	opInstall     = "intercept_install"
	opRemove      = "intercept_remove"
	opRegister    = "register_filter"
	opUnregister  = "unregister_filter"
	opSwapRED     = "hotswap_fifo_red"
	opSwapFIFO    = "hotswap_red_fifo"
)

// quiet runs fn with the generator parked between two batches, so nothing
// is being pushed into the topology's head while fn runs; the rest of the
// data path (scheduler, queues) keeps going.
func (r *runner) quiet(fn func() error) error {
	if r.hold.CompareAndSwap(0, 1) {
		for r.hold.Load() == 1 {
			runtime.Gosched()
		}
		defer r.hold.CompareAndSwap(2, 0)
	}
	return fn()
}

// churner runs the fixed six-operation cycle on its own goroutine.
type churner struct {
	r       *runner
	tgt     *target
	sample  bool
	quit    chan struct{}
	done    sync.WaitGroup
	ops     []metaOp
	errs    []string
	refills []float64 // ms until the flow cache hit ratio recovered
	steady  float64   // hit ratio over the 40 ms before the last bump
}

func startChurn(r *runner) *churner {
	c := &churner{r: r, tgt: r.tgt, sample: r.o.trace, quit: make(chan struct{})}
	c.done.Add(1)
	go c.loop()
	return c
}

func (c *churner) stop() {
	close(c.quit)
	c.done.Wait()
}

func passThrough(op string, args []any, invoke func([]any) []any) []any { return invoke(args) }

func (c *churner) loop() {
	defer c.done.Done()
	caps := c.tgt.sys.Capsule()
	ic := netkit.Meta(caps).Interception()
	var filterID uint64
	steps := []struct {
		kind string
		do   func() error
	}{
		{opInstall, func() error { return ic.Install("fp", "out", "bench-noop", passThrough) }},
		{opRemove, func() error { return ic.Remove("fp", "out", "bench-noop") }},
		{opRegister, func() (err error) {
			filterID, err = c.tgt.cls.RegisterFilter("udp and dst port 7", 0, "out0")
			return err
		}},
		{opUnregister, func() error { return c.tgt.cls.UnregisterFilter(filterID) }},
		// The two swaps run with the generator parked. router.HotSwap
		// retargets the inbound bindings before it moves the old queue's
		// backlog across: a push racing the swap lands behind newer
		// packets (a reorder) or in the old queue after it was drained (a
		// loss). See README.md, "What the benchmark found".
		{opSwapRED, func() error {
			// Thresholds above the frames in flight: RED never drops on
			// its own account, so a loss here is the swap's.
			red, err := router.NewREDQueue(router.REDConfig{
				Capacity: queueCap, MinTh: routerWindow + 256, MaxTh: queueCap - 64, MaxP: 0.1,
			})
			if err != nil {
				return err
			}
			return c.r.quiet(func() error { return router.HotSwap(caps, "q0", "q0-red", red) })
		}},
		{opSwapFIFO, func() error {
			q, err := router.NewFIFOQueue(queueCap)
			if err != nil {
				return err
			}
			return c.r.quiet(func() error { return router.HotSwap(caps, "q0-red", "q0", q) })
		}},
	}
	next := router.Nanotime() + churnPeriodNs
	var h0, m0 uint64
	for i := 0; ; i++ {
		step := steps[i%len(steps)]
		if i%len(steps) == 0 {
			// Stop only between cycles, so the topology is left as built.
			select {
			case <-c.quit:
				return
			default:
			}
		}
		for router.Nanotime() < next {
			time.Sleep(time.Duration(next - router.Nanotime()))
		}
		if fc := c.tgt.cls.FlowCache(); fc != nil && c.sample {
			switch h, m, _ := fc.Counters(); step.kind {
			case opInstall:
				h0, m0 = h, m
			case opRegister:
				if dh, dm := h-h0, m-m0; dh+dm > 0 {
					c.steady = float64(dh) / float64(dh+dm)
				}
			}
		}
		t0 := router.Nanotime()
		err := step.do()
		dur := router.Nanotime() - t0
		c.ops = append(c.ops, metaOp{kind: step.kind, dur: dur})
		if err != nil {
			c.errs = append(c.errs, fmt.Sprintf("%s: %v", step.kind, err))
		}
		if c.sample && step.kind == opUnregister {
			c.sampleRefill(next + churnPeriodNs)
		}
		next += churnPeriodNs
	}
}

// sampleRefill watches the flow cache after a rule-generation bump emptied
// it: the time until a 1 ms slice's hit ratio is back within 5 % of the
// ratio just before the bump cycle.
func (c *churner) sampleRefill(until int64) {
	fc := c.tgt.cls.FlowCache()
	if fc == nil {
		return
	}
	start := router.Nanotime()
	h0, m0, _ := fc.Counters()
	for router.Nanotime() < until-2_000_000 {
		time.Sleep(time.Millisecond)
		h1, m1, _ := fc.Counters()
		if dh, dm := h1-h0, m1-m0; dh+dm > 0 && c.steady > 0 &&
			float64(dh)/float64(dh+dm) >= 0.95*c.steady {
			c.refills = append(c.refills, float64(router.Nanotime()-start)/1e6)
			return
		}
		h0, m0 = h1, m1
	}
}

// durations returns, in µs, how long the operations of one kind ("" for
// all) took.
func (c *churner) durations(kind string) []float64 {
	var out []float64
	for _, op := range c.ops {
		if kind == "" || op.kind == kind {
			out = append(out, float64(op.dur)/1e3)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Set-up

// setupTimes is the program's set-up cost, measured several times over.
type setupTimes struct {
	setupS, buildMs, closeMs float64
	reps                     int
}

// measureSetup builds the workload's topology, offers one batch, waits for
// the first frame to reach the sink and tears it down — at least 5 times,
// and again until 1 s has gone — and reports medians. Rule loading, the first
// compile, sockets and the IPC host pair all fall inside.
func measureSetup(w *workload, tp *tape) (setupTimes, error) {
	var setup, build, closeT []float64
	begin := time.Now()
	for len(setup) < 5 || (time.Since(begin) < time.Second && len(setup) < 2000) {
		t0 := time.Now()
		tgt, err := w.build(w)
		if err != nil {
			return setupTimes{}, err
		}
		t1 := time.Now()
		tp.next(router.Nanotime())
		tgt.inject(tp)
		for dl := time.Now().Add(2 * time.Second); tgt.sink.packets.Load() == 0; {
			if time.Now().After(dl) {
				tgt.close()
				return setupTimes{}, fmt.Errorf("%s: no frame reached the sink after set-up", w.name)
			}
			runtime.Gosched()
		}
		t2 := time.Now()
		// Let the rest of the batch land before the teardown is timed.
		for dl := time.Now().Add(time.Second); tgt.sink.packets.Load() < batchSize && time.Now().Before(dl); {
			runtime.Gosched()
		}
		t3 := time.Now()
		tgt.close()
		closeT = append(closeT, float64(time.Since(t3))/1e6)
		build = append(build, float64(t1.Sub(t0))/1e6)
		setup = append(setup, t2.Sub(t0).Seconds())
	}
	return setupTimes{median(setup), median(build), median(closeT), len(setup)}, nil
}

// ---------------------------------------------------------------------------
// One run

// result is everything one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Loop      string             `json:"loop"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Spread    map[string]float64 `json:"window_spread,omitempty"`
	// Windows holds every window's value of each windowed metric.
	Windows map[string][]float64 `json:"windows,omitempty"`
	Notes   map[string]string    `json:"notes,omitempty"`

	points []pointSummary
	tracks []trackSummary
	tr     *tracer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(w *workload, o options) (*result, error) {
	tp, err := newTape(w.name, o.seed, w.traffic)
	if err != nil {
		return nil, err
	}
	frames := tp.hash()
	tgt, err := w.build(w)
	if err != nil {
		return nil, err
	}
	defer tgt.close()

	var oracle *classOracle
	if tgt.cls != nil {
		if oracle, err = newClassOracle(tp); err != nil {
			return nil, err
		}
	}
	r := &runner{w: w, o: o, tape: tp, tgt: tgt}
	seq0 := tp.seq
	r.measure()
	delivered, tree := r.drain()
	// Memory is read here, with the topology still up and nothing in
	// flight, after a collection: what the program holds on to. The
	// runtime's own total (MemStats.Sys) grows 4 MiB at a time and never
	// shrinks, so on a 24 MB process one chunk more or less, which the
	// collector's timing decides, is a sixth of the reading.
	runtime.GC()
	var held runtime.MemStats
	runtime.ReadMemStats(&held)

	d := delivery{
		offered:   r.offered,
		delivered: delivered,
		dropped:   uint64(sumStats(tree, dropNames)),
		reordered: tgt.sink.reordered.Load(),
		badCsum:   tgt.sink.badCsum.Load(),
		foreign:   tgt.sink.foreign.Load(),
	}
	if tgt.tx != nil {
		d.dropped += tgt.tx.Stats().TxDrops
	}
	if oracle != nil {
		d.classWant = oracle.between(seq0, tp.seq)
		d.classGot = classCounts(tree, w.churn)
	}
	if r.churn != nil {
		d.opErrs = r.churn.errs
	}
	res := &result{
		Workload: w.name, Loop: w.loop, Traced: o.trace,
		Problems:  d.verdict(),
		Attempted: r.offered,
		Failed:    r.offered - delivered,
		Metrics:   map[string]metric{},
		Spread:    map[string]float64{},
		Notes: map[string]string{
			"frames_sha256":  frames,
			"distinct_flows": fmt.Sprint(tp.distinctFlows()),
		},
	}
	res.Correct = len(res.Problems) == 0
	// Set-up is timed after the measured part, so the garbage of its many
	// builds is not in the heap the run's memory is read from.
	st, err := measureSetup(w, tp)
	if err != nil {
		return nil, err
	}
	res.Notes["setup_reps"] = fmt.Sprint(st.reps)
	if o.trace {
		r.perLayer(res, st, tree)
	} else {
		r.endToEnd(res, st, &held)
	}
	return res, nil
}

// classCounts reads, per classifier output, the packets its queue took.
// Under churn queue 0 is replaced again and again, and a replacement
// counts the packets it inherits a second time, so output 0 is taken as
// what the classifier forwarded and the other seven did not take.
func classCounts(tree core.StatNode, churn bool) []uint64 {
	got := make([]uint64, numClasses)
	var rest uint64
	for k := 1; k < numClasses; k++ {
		got[k] = uint64(statAt(tree, queueName(k), "packets_in"))
		rest += got[k]
	}
	if churn {
		got[0] = uint64(statAt(tree, "cls", "packets_out")) - rest
	} else {
		got[0] = uint64(statAt(tree, queueName(0), "packets_in"))
	}
	return got
}

// over evaluates f on each window.
func over(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// whole is the one window that spans ws.
func whole(ws []window) window { return window{from: ws[0].from, to: ws[len(ws)-1].to} }

func kpps(w window) float64    { return float64(w.delivered()) / w.secs() / 1e3 }
func goodput(w window) float64 { return float64(w.to.bytes-w.from.bytes) * 8 / w.secs() / 1e6 }
func latQ(q float64) func(window) float64 {
	return func(w window) float64 { return w.to.lat.sub(w.from.lat).quantile(q) / 1e3 }
}
func cpuPerMpkt(w window) float64 {
	if w.delivered() == 0 {
		return 0
	}
	return (w.to.cpu - w.from.cpu).Seconds() / float64(w.delivered()) * 1e6
}
func allocPerPkt(w window) float64 {
	if w.offered() == 0 {
		return 0
	}
	return float64(w.to.mem.TotalAlloc-w.from.mem.TotalAlloc) / float64(w.offered())
}

// endToEndDefs are the end-to-end metrics, in BENCHMARK.json's order. Every
// workload reports every one of them.
var endToEndDefs = []metricDef{
	{"kpps", "kpkt/s", "higher"},
	{"goodput_mbps", "Mbit/s", "higher"},
	{"p50_us", "us", "lower"},
	{"delivered_frac", "ratio", "higher"},
	{"cpu_s_per_mpkt", "s/Mpkt", "lower"},
	{"mem_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// endToEnd fills the metrics of an untraced run: each windowed one is the
// median of the windows, with the windows' own spread beside it.
func (r *runner) endToEnd(res *result, st setupTimes, held *runtime.MemStats) {
	m := map[string]float64{
		"delivered_frac": float64(res.Attempted-res.Failed) / float64(res.Attempted),
		// heap spans in use, stacks and the runtime's own tables
		"mem_mb":  float64(held.Sys-held.HeapIdle) / 1e6,
		"setup_s": st.setupS,
	}
	windowed := map[string]func(window) float64{
		"kpps": kpps, "goodput_mbps": goodput, "p50_us": latQ(0.50), "cpu_s_per_mpkt": cpuPerMpkt,
	}
	raw := map[string][]float64{}
	for _, d := range endToEndDefs {
		if f, ok := windowed[d.name]; ok {
			raw[d.name] = over(r.windows, f)
			m[d.name], res.Spread[d.name] = median(raw[d.name]), spread(raw[d.name])
		}
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	res.Windows = raw
	stamps := over(r.windows, func(w window) float64 { return float64(w.to.lat.sub(w.from.lat).total()) })
	res.Notes["windows"] = fmt.Sprintf("%d of %d ms", len(r.windows), windowNs/1_000_000)
	res.Notes["latency_stamps_per_window"] = fmt.Sprintf("%.0f", median(stamps))
	res.Notes["alloc_b_per_pkt"] = fmt.Sprintf("%.4f", allocPerPkt(whole(r.windows)))
	res.Notes["sys_mb"] = fmt.Sprintf("%.4f", float64(r.windows[len(r.windows)-1].to.mem.Sys)/1e6)
	p99 := over(r.windows, latQ(0.99))
	res.Notes["p99_us"] = fmt.Sprintf("%.6g (window spread %.3f)", median(p99), spread(p99))
}
