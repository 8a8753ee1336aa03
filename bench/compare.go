package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compare.go is the regression check: given the runs of a base and a new
// commit (files of --json lines), it compares, per workload and
// end-to-end metric, the new median with the base median against the
// bound BENCHMARK.json fixes.

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRuns loads the untraced runs of a --json file, grouped by workload.
func readRuns(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// verdict compares one metric's base and new runs. worse is the new
// median's change in the bad direction, as a share of the base median.
// A change within the bound is UNRESOLVED, not ok, when either side's
// quartile spread exceeds the bound, unless every new run beats every
// base run.
func verdict(base, cur []float64, lowerBetter bool, bound float64) (worse, spr float64, v string) {
	bm, cm := median(base), median(cur)
	worse = (cm - bm) / math.Abs(bm)
	if !lowerBetter {
		worse = -worse
	}
	if bm == 0 {
		worse = 0
		if cm != bm {
			worse = math.Inf(1)
		}
	}
	sb, okb := spread(base)
	sc, okc := spread(cur)
	spr = math.Max(sb, sc)
	switch {
	case worse > bound:
		return worse, spr, "REGRESSED"
	case !okb || !okc || spr > bound:
		if allBetter(base, cur, lowerBetter) {
			return worse, spr, "ok"
		}
		return worse, spr, "UNRESOLVED"
	}
	return worse, spr, "ok"
}

// allBetter reports whether every new value beats every base value.
func allBetter(base, cur []float64, lowerBetter bool) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	b, c := sortedCopy(base), sortedCopy(cur)
	if lowerBetter {
		return c[len(c)-1] < b[0]
	}
	return c[0] > b[len(b)-1]
}

// runCompare prints one verdict line per workload and metric and returns
// 1 when any metric regressed.
func runCompare(specPath, basePath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err == nil && len(spec.EndToEnd) == 0 {
		err = fmt.Errorf("%s lists no end_to_end metrics", specPath)
	}
	var base, cur map[string][]record
	if err == nil {
		base, err = readRuns(basePath)
	}
	if err == nil {
		cur, err = readRuns(newPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: compare: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(base))
	for w := range base {
		names = append(names, w)
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(stdout, "%-15s %-17s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "base median", "new median", "worse", "bound", "spread", "verdict")
	for _, w := range names {
		if len(cur[w]) == 0 {
			fmt.Fprintf(stdout, "%-15s %-17s %s\n", w, "-", "UNRESOLVED (no new runs)")
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, cv := metricValues(base[w], m.Name), metricValues(cur[w], m.Name)
			worse, spr, v := verdict(bv, cv, m.Better == "lower", m.Bound)
			if v == "REGRESSED" {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-15s %-17s %14.6g %14.6g %8.2f%% %6.1f%% %6.2f%%  %s\n",
				w, m.Name, median(bv), median(cv), 100*worse, 100*m.Bound, 100*spr, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func metricValues(runs []record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
