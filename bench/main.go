// Command bench is the repository benchmark. It runs one workload for a
// fixed host-time budget in a single process and a single goroutine,
// checks every output it produces, and prints each metric as
// "name value unit" followed by one JSON line:
//
//	bash bench/run.sh --workload paper-lp --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a run that records a span around every call the
// benchmark makes into a layer (see README.md). --compare base new
// compares two sets of runs recorded with --json against the bounds in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	smoke   bool // test-sized inputs; never set from the command line
}

// outcome is what a workload run produces: both metric sets (the
// per-layer set is complete only in a traced run), the checked-operation
// counts, and the tracer when tracing.
type outcome struct {
	e2e, layer *metricSet
	attempted  int
	failed     int
	problems   []string
	tr         *tracer
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(cfg config, o *outcome)
}

var workloads = []workload{
	{"paper-lp", runPaperLP},
	{"kv-serve", runKVServe},
	{"crash-campaign", runCrashCampaign},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs w and fills in the metrics every workload shares.
func runWorkload(w workload, cfg config) *outcome {
	o := &outcome{e2e: newMetricSet(e2eDefs), layer: newMetricSet(layerDefs)}
	if cfg.trace {
		o.tr = newTracer()
	}
	w.run(cfg, o)
	o.e2e.set("peak_rss_mb", peakRSSMB())
	if cfg.trace {
		runProbes(o.layer)
	}
	return o
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// allocMeter measures heap bytes and objects allocated between start and
// stop.
type allocMeter struct{ bytes, objects uint64 }

func (a *allocMeter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.bytes, a.objects = ms.TotalAlloc, ms.Mallocs
}

func (a *allocMeter) stop() (bytes, objects float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc - a.bytes), float64(ms.Mallocs - a.objects)
}

// schedule runs units 0..n-1 in order, pass after pass, until the budget
// is spent; the first pass always completes. Every execution starts from
// a freshly collected heap, so no unit pays for another's garbage. When
// tracing, each unit runs untraced and then traced, back to back, so the
// two compare like for like.
func schedule(n int, budget time.Duration, trace bool, do func(i, pass int, traced bool)) {
	start := time.Now()
	for k := 0; ; k++ {
		i, pass := k%n, k/n
		if pass > 0 && time.Since(start) >= budget {
			return
		}
		runtime.GC()
		do(i, pass, false)
		if trace {
			runtime.GC()
			do(i, pass, true)
		}
	}
}

// traceOverhead is traced over untraced host time, minus one, in percent.
func traceOverhead(traced, untraced series) float64 {
	return 100 * (traced.sumMed()/untraced.sumMed() - 1)
}

// record is one run as written by --json and read by --compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-lp, kv-serve or crash-campaign")
	seed := fs.Uint64("seed", 1, "workload seed (the same seed gives the same inputs)")
	seconds := fs.Float64("seconds", 30, "host seconds to keep measuring; the first pass always completes")
	trace := fs.Int("trace", 0, "0: report end-to-end metrics; 1: traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the spans as Chrome trace-event JSON to this file")
	jsonOut := fs.String("json", "", "append this run's result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two --json files: --compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs two files: base.jsonl new.jsonl")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown workload %q (paper-lp, kv-serve, crash-campaign)\n", *name)
		return 2
	case *seconds < 0 || *seconds > 3600:
		fmt.Fprintf(stderr, "bench: --seconds %g out of range [0, 3600]\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *traceOut != "" && *trace != 1:
		fmt.Fprintln(stderr, "bench: --trace-out needs --trace 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	o := runWorkload(w, cfg)

	ms := o.e2e
	if cfg.trace {
		ms = o.layer
		o.tr.writeSelfTable(stdout)
		if *traceOut != "" {
			if err := writeFile(*traceOut, o.tr.writeChrome); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "bench: CHECK FAILED: %s\n", p)
	}
	for _, d := range ms.defs {
		fmt.Fprintf(stdout, "%s %s %s%s\n", d.name, strconv.FormatFloat(ms.value(d.name), 'g', -1, 64), d.unit, prefixSpace(ms.notes[d.name]))
	}
	res := o.result(ms)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *jsonOut != "" {
		rec := record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, result: res}
		if err := appendRecord(*jsonOut, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the run's JSON line over the metric set ms.
func (o *outcome) result(ms *metricSet) result {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range ms.defs {
		res.Metrics[d.name] = jsonMetric{Value: ms.value(d.name), Unit: d.unit}
	}
	return res
}

func prefixSpace(s string) string {
	if s == "" {
		return ""
	}
	return " " + s
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
