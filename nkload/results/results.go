// Package results is the uniform result-document layer of the nkload
// harness: every scenario — whatever driver produced it — reduces to one
// Result carrying named metrics, documents serialise to one JSON schema,
// and a tolerance-gated Compare turns two documents into a pass/fail
// regression verdict (the k8s-netperf --tcp-tolerance idea: a CI gate
// that exits non-zero when a KPI moves the wrong way by more than the
// metric's tolerance).
//
// The schema is deliberately small and flat so baselines stay reviewable
// in a diff: a Document is a suite name, a config echo, and a list of
// Results; a Result is a scenario name and a list of Metrics; a Metric is
// a value plus the two fields the gate needs — which direction is better,
// and how much movement is tolerated.
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Better directions. A metric that improves when it grows (throughput) is
// BetterHigher; one that improves when it shrinks (latency, allocations)
// is BetterLower. An empty direction means the metric is informational:
// recorded, compared, never gated.
const (
	BetterHigher = "higher"
	BetterLower  = "lower"
)

// Metric is one KPI of one scenario.
type Metric struct {
	// Name identifies the metric within its scenario ("kpps", "p99_ns").
	Name string `json:"name"`
	// Unit is the human unit ("kpps", "ns", "B/op", "packets").
	Unit string `json:"unit,omitempty"`
	// Value is the measured value.
	Value float64 `json:"value"`
	// Better is BetterHigher, BetterLower, or "" (informational).
	Better string `json:"better,omitempty"`
	// Tolerance is the allowed adverse movement in percent before the
	// gate fails this metric; 0 means "use the comparison's default".
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Result is one scenario's outcome.
type Result struct {
	// Scenario names the run ("stream/fused", "rr/sharded-4").
	Scenario string `json:"scenario"`
	// Driver is the driver kind that produced it ("stream", "rr", ...).
	Driver string `json:"driver,omitempty"`
	// Config echoes scenario parameters worth keeping with the numbers.
	Config map[string]string `json:"config,omitempty"`
	// Metrics are the scenario's KPIs.
	Metrics []Metric `json:"metrics"`
}

// Metric returns the named metric of this result.
func (r *Result) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Document is one suite run: nkload's on-disk baseline format and its
// -json output format.
type Document struct {
	// Suite names the producer ("nkload").
	Suite string `json:"suite"`
	// Config echoes run-wide parameters (duration, batch, shards, seed).
	Config map[string]string `json:"config,omitempty"`
	// Results are the scenarios, in run order.
	Results []Result `json:"results"`
}

// Result returns the named scenario's result.
func (d *Document) Result(scenario string) (*Result, bool) {
	for i := range d.Results {
		if d.Results[i].Scenario == scenario {
			return &d.Results[i], true
		}
	}
	return nil, false
}

// Encode writes the document as indented JSON.
func (d *Document) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteFile writes the document to path.
func (d *Document) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a document from path.
func Load(path string) (*Document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("results: %s: %w", path, err)
	}
	return &d, nil
}

// Comparison is the gate's verdict on one metric of one scenario.
type Comparison struct {
	Scenario  string  `json:"scenario"`
	Metric    string  `json:"metric"`
	Unit      string  `json:"unit,omitempty"`
	Baseline  float64 `json:"baseline"`
	Current   float64 `json:"current"`
	DeltaPct  float64 `json:"delta_pct"` // signed; positive = current larger
	Tolerance float64 `json:"tolerance"` // percent applied (0 = ungated)
	Pass      bool    `json:"pass"`
	Note      string  `json:"note,omitempty"`
}

// Report is the outcome of comparing a current document to a baseline.
type Report struct {
	Comparisons []Comparison `json:"comparisons"`
	Failures    int          `json:"failures"`
}

// Failed reports whether any gated metric regressed beyond tolerance (the
// exit-1 condition).
func (r *Report) Failed() bool { return r.Failures > 0 }

// Compare gates current against baseline. Rules:
//
//   - Metrics match by (scenario, metric name). A baseline metric missing
//     from current FAILS (a silently vanished KPI must not pass a gate);
//     a current metric or scenario absent from the baseline is noted and
//     passes (new coverage is not a regression).
//   - Only adverse movement gates: a BetterHigher metric fails when it
//     falls more than tolerance percent below baseline; a BetterLower
//     metric fails when it rises more than tolerance percent above.
//     Improvement and in-tolerance noise pass. Metrics without a Better
//     direction are compared but never fail.
//   - Tolerance is the metric's own Tolerance from the BASELINE document
//     (the committed baseline is the contract), falling back to
//     defaultTol when zero.
//   - A zero baseline value cannot anchor a percentage: the metric is
//     noted and passes, unless it is BetterHigher and current is also
//     zero or less — a dead scenario stays dead silently otherwise.
func Compare(baseline, current *Document, defaultTol float64) *Report {
	rep := &Report{}
	seen := make(map[string]bool)
	for _, br := range baseline.Results {
		cr, ok := current.Result(br.Scenario)
		if !ok {
			rep.Comparisons = append(rep.Comparisons, Comparison{
				Scenario: br.Scenario, Metric: "*", Pass: false,
				Note: "scenario missing from current run",
			})
			rep.Failures++
			continue
		}
		for _, bm := range br.Metrics {
			seen[br.Scenario+"\x00"+bm.Name] = true
			rep.add(compareMetric(br.Scenario, bm, cr, defaultTol))
		}
	}
	for _, cr := range current.Results {
		for _, cm := range cr.Metrics {
			if seen[cr.Scenario+"\x00"+cm.Name] {
				continue
			}
			rep.Comparisons = append(rep.Comparisons, Comparison{
				Scenario: cr.Scenario, Metric: cm.Name, Unit: cm.Unit,
				Current: cm.Value, Pass: true, Note: "not in baseline",
			})
		}
	}
	return rep
}

func (r *Report) add(c Comparison) {
	r.Comparisons = append(r.Comparisons, c)
	if !c.Pass {
		r.Failures++
	}
}

func compareMetric(scenario string, bm Metric, cr *Result, defaultTol float64) Comparison {
	c := Comparison{
		Scenario: scenario, Metric: bm.Name, Unit: bm.Unit, Baseline: bm.Value,
	}
	cm, ok := cr.Metric(bm.Name)
	if !ok {
		c.Note = "metric missing from current run"
		return c // Pass=false
	}
	c.Current = cm.Value
	tol := bm.Tolerance
	if tol == 0 {
		tol = defaultTol
	}
	if bm.Value == 0 {
		if bm.Better == BetterHigher && cm.Value <= 0 {
			c.Note = "baseline and current both zero"
			return c // Pass=false: the scenario produced nothing, twice
		}
		c.Pass = true
		c.Note = "zero baseline, not gated"
		return c
	}
	c.DeltaPct = (cm.Value - bm.Value) / math.Abs(bm.Value) * 100
	switch bm.Better {
	case BetterHigher:
		c.Tolerance = tol
		c.Pass = c.DeltaPct >= -tol
	case BetterLower:
		c.Tolerance = tol
		c.Pass = c.DeltaPct <= tol
	default:
		c.Pass = true
		c.Note = "informational"
	}
	return c
}

// String renders the report as the table the CI log shows: one line per
// comparison, failures marked, sorted failures-first then by scenario.
func (r *Report) String() string {
	rows := append([]Comparison(nil), r.Comparisons...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Pass != rows[j].Pass {
			return !rows[i].Pass
		}
		if rows[i].Scenario != rows[j].Scenario {
			return rows[i].Scenario < rows[j].Scenario
		}
		return rows[i].Metric < rows[j].Metric
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s  %-24s %-12s %14s %14s %9s %8s  %s\n",
		"", "SCENARIO", "METRIC", "BASELINE", "CURRENT", "DELTA%", "TOL%", "NOTE")
	for _, c := range rows {
		mark := "ok"
		if !c.Pass {
			mark = "FAIL"
		}
		tol := "-"
		if c.Tolerance > 0 {
			tol = fmt.Sprintf("%.1f", c.Tolerance)
		}
		fmt.Fprintf(&b, "%-4s  %-24s %-12s %14.2f %14.2f %+9.2f %8s  %s\n",
			mark, c.Scenario, c.Metric, c.Baseline, c.Current, c.DeltaPct, tol, c.Note)
	}
	fmt.Fprintf(&b, "%d compared, %d failed\n", len(r.Comparisons), r.Failures)
	return b.String()
}
