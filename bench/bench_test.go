package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"

	"gpulp/internal/gpusim"
	"gpulp/internal/harness"
	"gpulp/internal/memsim"
)

// smokeRuns caches one traced smoke-size run per workload at seed 1; a
// traced run measures both metric sets, so every test below shares it.
var smokeRuns = map[string]*outcome{}

func smoke(t *testing.T, w workload) *outcome {
	t.Helper()
	if o, ok := smokeRuns[w.name]; ok {
		return o
	}
	o := runWorkload(w, config{seed: 1, trace: true, smoke: true})
	smokeRuns[w.name] = o
	return o
}

func TestSmokeWorkloadsPassChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := smoke(t, w)
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.problems)
			}
			for _, d := range e2eDefs {
				if v := o.e2e.value(d.name); v <= 0 {
					t.Errorf("end-to-end metric %s = %g; every end-to-end metric must be positive", d.name, v)
				}
			}
		})
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		o := smoke(t, w)
		for _, set := range []struct {
			ms   *metricSet
			spec []struct{ Name, Unit string }
		}{{o.e2e, spec.EndToEnd}, {o.layer, spec.PerLayer}} {
			emitted := o.result(set.ms).Metrics
			declared := map[string]string{}
			for _, m := range set.spec {
				declared[m.Name] = m.Unit
				got, ok := emitted[m.Name]
				if !ok {
					t.Errorf("%s: BENCHMARK.json metric %s is not emitted", w.name, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s emitted in %s, BENCHMARK.json says %s", w.name, m.Name, got.Unit, m.Unit)
				}
			}
			for name := range emitted {
				if _, ok := declared[name]; !ok {
					t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", w.name, name)
				}
				if !valid.MatchString(name) {
					t.Errorf("metric name %q does not match %s", name, valid)
				}
			}
		}
	}
}

// TestSimulatedValuesPinned pins the simulated end-to-end metrics at
// smoke size for seed 1, so simulated drift fails the test. (The
// tolerance only absorbs floating-point contraction differences between
// architectures in the overhead's geometric mean.)
func TestSimulatedValuesPinned(t *testing.T) {
	want := map[string][2]float64{ // sim_kcycles, sim_overhead_pct
		"paper-lp":       {53.458, 0.5846925997605279},
		"kv-serve":       {184.037, 44.425435739678406},
		"crash-campaign": {243.393, 72.4681565643032},
	}
	for _, w := range workloads {
		o := smoke(t, w)
		got := [2]float64{o.e2e.value("sim_kcycles"), o.e2e.value("sim_overhead_pct")}
		for i := range got {
			if math.Abs(got[i]-want[w.name][i]) > 1e-12*math.Abs(want[w.name][i]) {
				t.Errorf("%s: sim_kcycles, sim_overhead_pct = %v, want %v", w.name, got, want[w.name])
				break
			}
		}
	}
}

// TestPaperLPMatchesHarness checks that the benchmark's own call
// sequence reproduces the artifact: every kernel's LP overhead equals the
// harness's §VII-4 MEGA-KV cells and, without -short, its Table V cells.
func TestPaperLPMatchesHarness(t *testing.T) {
	const seed = 1
	r := harness.NewRunner(harness.Options{Scale: 1, Dev: gpusim.DefaultConfig(), Mem: memsim.DefaultConfig(), Seed: seed})
	type source struct {
		table  func() (*harness.Table, error)
		prefix string // MEGA-KV rows drop the "megakv-" of the kernel name
	}
	sources := []source{{r.MegaKV, "megakv-"}}
	names := []string{"megakv-search", "megakv-insert", "megakv-delete"}
	if !testing.Short() {
		sources = append(sources, source{r.Table5, ""})
		names = paperLPKernels
	}
	cells := map[string]string{}
	for _, tb := range sources {
		tab, err := tb.table()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			cells[tb.prefix+row[0]] = row[1]
		}
	}
	for _, k := range names {
		bare, _, err := execPaperLP(plUnit{k, false}, paperLPScale, seed, nil)
		if err != nil {
			t.Fatalf("%s bare: %v", k, err)
		}
		lp, _, err := execPaperLP(plUnit{k, true}, paperLPScale, seed, nil)
		if err != nil {
			t.Fatalf("%s lp: %v", k, err)
		}
		got := fmt.Sprintf("%.2f%%", 100*(float64(lp.cycles)/float64(bare.cycles)-1))
		if want, ok := cells[k]; !ok || got != want {
			t.Errorf("%s: LP overhead %s, harness cell %q", k, got, want)
		}
	}
}

// TestTraceClosesAndExports checks a traced run: every unit's layer self
// times sum to its span within 1%, and the export is trace-event JSON
// with one complete event per span.
func TestTraceClosesAndExports(t *testing.T) {
	for _, w := range workloads {
		o := smoke(t, w)
		if gap := o.tr.unitClosure(); gap > 0.01 {
			t.Errorf("%s: self times miss a unit span by %.3f%%", w.name, 100*gap)
		}
		var buf bytes.Buffer
		if err := o.tr.writeChrome(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Ts   float64
				Dur  float64
				Args map[string]int
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", w.name, err)
		}
		if len(doc.TraceEvents) != len(o.tr.spans) || len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: %d events for %d spans", w.name, len(doc.TraceEvents), len(o.tr.spans))
		}
		for _, e := range doc.TraceEvents {
			if e.Ph != "X" || e.Dur < 0 || e.Name == "" {
				t.Fatalf("%s: malformed event %+v", w.name, e)
			}
		}
		if v, ok := o.layer.values["trace_overhead_pct"]; !ok || math.IsNaN(v) {
			t.Errorf("%s: trace_overhead_pct not reported", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3, _ := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label := tail(xs); v != 990 || label != "p99 n=1000" {
		t.Fatalf("tail of 1..1000 = %v %q, want 990 p99", v, label)
	}
	if v, label := tail(xs[:15]); v != 15 || label != "max n=15" {
		t.Fatalf("tail of 1..15 = %v %q, want the max", v, label)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		base, cur   []float64
		lowerBetter bool
		want        string
	}{
		{"unchanged", base, shift(0), true, "ok"},
		{"slower past bound", base, shift(20), true, "REGRESSED"},
		{"slower within bound", base, shift(5), true, "ok"},
		{"throughput dropped", base, shift(-20), false, "REGRESSED"},
		{"throughput rose", base, shift(20), false, "ok"},
		{"spread wider than bound", wide, wide, true, "UNRESOLVED"},
		{"noisy but every run better", wide, shift(-50), true, "ok"},
		{"single run", base[:1], base[:1], true, "UNRESOLVED"},
	} {
		if _, _, got := verdict(tc.base, tc.cur, tc.lowerBetter, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
