// Command bench is the repository's benchmark: seven named workloads
// driven through whole NETKIT capsules, seven end-to-end quantities measured
// with tracing off, and a separate traced pass that says which layer the
// time went to. It imports the product packages and nothing of nkload, so
// the load harness can keep changing while the benchmark stays put. See
// README.md beside this file.
//
// Two ways to run it:
//
//	bench -workload NAME -seed N -seconds S -trace 0|1
//
// runs one workload once and prints one JSON object as its last line: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// This is the form BENCHMARK.json's command takes.
//
//	bench [-workloads a,b] [-seed N] [-seconds S] [-notrace] [-out DIR] [-agree]
//
// runs every (or the named) workload untraced, printing each metric as
// "workload metric value unit", then runs the traced pass and writes the
// result document and one span file per workload under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"netkit/internal/osabs"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runContext is the hardware and build context every output document
// carries, so a number can be told from machine noise.
type runContext struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	UDPBackend string  `json:"udp_backend"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func cstr(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

func newContext(seed uint64, seconds float64) runContext {
	c := runContext{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Kernel: "unknown",
		UDPBackend: "portable", Seed: seed, Seconds: seconds,
	}
	if osabs.MmsgSupported() {
		c.UDPBackend = "mmsg"
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		c.Kernel = cstr(u.Sysname[:]) + " " + cstr(u.Release[:])
	}
	// Outside a git checkout (the benchmark driver's copy) there is no
	// commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		c.Commit = strings.TrimSpace(string(out))
	}
	return c
}

// document is the result file of a full run.
type document struct {
	Context  runContext `json:"context"`
	Untraced []*result  `json:"untraced"`
	Traced   []*result  `json:"traced,omitempty"`
}

// spanFile is what one workload's traced pass writes.
type spanFile struct {
	Context  runContext     `json:"context"`
	Workload string         `json:"workload"`
	Sampling string         `json:"sampling"`
	Names    []string       `json:"names"`
	Tracks   []string       `json:"tracks"`
	Points   []pointSummary `json:"points"`
	ByTrack  []trackSummary `json:"by_track"`
	Spans    []Span         `json:"spans"`
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func printResult(res *result) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(res.Notes) {
		fmt.Printf("# %s %s %s\n", res.Workload, name, res.Notes[name])
	}
	for _, p := range res.Problems {
		fmt.Printf("%s INCORRECT %s\n", res.Workload, p)
	}
}

// driverLine is the one JSON object the benchmark contract asks for.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		one       = flag.String("workload", "", "run this one workload and print one JSON result line")
		many      = flag.String("workloads", "", "comma-separated workloads for a full run (default all)")
		seed      = flag.Uint64("seed", 1, "seed of the generated frames")
		seconds   = flag.Float64("seconds", 15, "measuring time per run: warm-up plus the windows")
		trace     = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		resultTo  = flag.String("result", "", "with -workload: also write the whole result (notes, window values) to this file")
		list      = flag.Bool("list", false, "list the workloads and exit")
		notrace   = flag.Bool("notrace", false, "full run: skip the traced pass")
		out       = flag.String("out", filepath.Join("bench", "out"), "full run: directory for results.json and the span files")
		agree     = flag.Bool("agree", false, "run the untraced set twice and fail if the two disagree by more than a metric's bound")
		benchJSON = flag.String("benchmark-json", "BENCHMARK.json", "-agree: where the bounds are read from")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %-34s %s\n", w.name, w.loop, w.why)
		}
		return
	}
	if *seconds < 1 {
		fatal("-seconds %g: need at least 1", *seconds)
	}
	ctx := newContext(*seed, *seconds)

	if *one != "" {
		w := findWorkload(*one)
		if w == nil {
			fatal("unknown workload %q (see -list)", *one)
		}
		res, err := runWorkload(w, options{seed: *seed, seconds: *seconds, trace: *trace != 0})
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		printResult(res)
		if *resultTo != "" {
			if err := writeJSON(*resultTo, res); err != nil {
				fatal("%v", err)
			}
		}
		line, _ := json.Marshal(driverLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	set := workloads
	if *many != "" {
		set = nil
		for _, name := range strings.Split(*many, ",") {
			w := findWorkload(strings.TrimSpace(name))
			if w == nil {
				fatal("unknown workload %q (see -list)", name)
			}
			set = append(set, w)
		}
	}
	fmt.Printf("# cpus=%d gomaxprocs=%d go=%s commit=%s kernel=%q udp=%s seed=%d seconds=%g\n",
		ctx.CPUs, ctx.GOMAXPROCS, ctx.GoVersion, ctx.Commit, ctx.Kernel, ctx.UDPBackend, ctx.Seed, ctx.Seconds)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("%v", err)
	}
	ok := true
	// An untraced workload gets a process of its own, as it has under the
	// benchmark's driver: what an earlier workload left behind (stacks and
	// runtime tables never shrink, the heap stays fragmented) would be in
	// the mem_mb of a later one. The traced pass reports no memory
	// and needs its spans in hand, so it stays in this process.
	pass := func(traced bool) []*result {
		var rs []*result
		for _, w := range set {
			var res *result
			var err error
			if traced {
				res, err = runWorkload(w, options{seed: *seed, seconds: *seconds, trace: true})
				if err == nil {
					printResult(res)
				}
			} else {
				res, err = runInChild(w, *seed, *seconds, filepath.Join(*out, "untraced-"+w.name+".json"))
			}
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			ok = ok && res.Correct
			rs = append(rs, res)
		}
		return rs
	}
	if *agree {
		a, b := pass(false), pass(false)
		bad, err := disagreements(*benchJSON, a, b)
		if err != nil {
			fatal("%v", err)
		}
		for _, line := range bad {
			fmt.Println("DISAGREE", line)
		}
		if len(bad) > 0 || !ok {
			os.Exit(1)
		}
		return
	}

	doc := document{Context: ctx, Untraced: pass(false)}
	if !*notrace {
		doc.Traced = pass(true)
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), doc); err != nil {
		fatal("%v", err)
	}
	for _, res := range doc.Traced {
		sf := spanFile{
			Context: ctx, Workload: res.Workload,
			Sampling: fmt.Sprintf("one root crossing in %d per track, with everything under it", sampleEvery),
			Names:    res.tr.names, Tracks: res.tr.tracks,
			Points: res.points, ByTrack: res.tracks, Spans: res.tr.recorded(),
		}
		if err := writeJSON(filepath.Join(*out, "spans-"+res.Workload+".json"), sf); err != nil {
			fatal("%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runInChild runs one untraced workload in a process of its own and reads
// its result back from resultFile. The child's metric and note lines pass
// through; its JSON line does not.
func runInChild(w *workload, seed uint64, seconds float64, resultFile string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0", "-result", resultFile)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n") {
		if !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	raw, err := os.ReadFile(resultFile)
	if err != nil {
		if runErr != nil {
			return nil, runErr // the child failed before it had a result
		}
		return nil, err
	}
	res := new(result)
	return res, json.Unmarshal(raw, res)
}

// benchmarkFile is the part of BENCHMARK.json -agree reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// disagreements compares two untraced sets metric by metric and workload
// by workload: the second may not be worse than the first by more than the
// metric's own bound, which is the rule the benchmark is judged by (there
// over medians of ten runs, here over one run each, so this is the
// stricter reading).
func disagreements(path string, a, b []*result) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var bad []string
	for i := range a {
		for _, e := range bf.EndToEnd {
			x, y := a[i].Metrics[e.Name].Value, b[i].Metrics[e.Name].Value
			if x == 0 {
				bad = append(bad, fmt.Sprintf("%s %s: first set reads 0", a[i].Workload, e.Name))
				continue
			}
			worse := (y - x) / x
			if e.Better == "higher" {
				worse = -worse
			}
			if worse > e.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: %.6g then %.6g (%.1f%% worse, bound %.1f%%)",
					a[i].Workload, e.Name, x, y, worse*100, e.Bound*100))
			}
		}
	}
	return bad, nil
}
