package gpulp_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (IISWC 2020, "Scalable and Fast Lazy Persistency on GPUs"). Each
// benchmark regenerates its artifact through the experiment harness and
// reports the headline series as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The per-iteration work is a full
// simulated experiment, so iteration counts stay at 1 under the default
// -benchtime. cmd/lpbench renders the same artifacts as tables.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpulp/internal/faultsim"
	"gpulp/internal/harness"
)

func newRunner() *harness.Runner {
	return harness.NewRunner(harness.DefaultOptions())
}

// reportPct parses a "12.34%" cell and reports it as a metric.
func reportPct(b *testing.B, name, cell string) {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		b.Fatalf("cannot parse %q: %v", cell, err)
	}
	b.ReportMetric(v, name)
}

// reportTimes parses a "12.34x" cell and reports it as a metric.
func reportTimes(b *testing.B, name, cell string) {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		b.Fatalf("cannot parse %q: %v", cell, err)
	}
	b.ReportMetric(v, name)
}

// lastRow returns the final (geomean/summary) row of a table.
func lastRow(t *harness.Table) []string { return t.Rows[len(t.Rows)-1] }

// BenchmarkFig5NaiveLP regenerates Fig. 5: execution-time overhead of the
// naive LP designs (lock-free hash tables with shuffle reduction).
func BenchmarkFig5NaiveLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		row := lastRow(tbl)
		reportPct(b, "quad-geomean-%", row[1])
		reportPct(b, "cuckoo-geomean-%", row[2])
	}
}

// BenchmarkTable2Collisions regenerates Table II: hash-table collision
// counts during checksum insertion.
func BenchmarkTable2Collisions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		var quad, cuckoo float64
		for _, row := range tbl.Rows {
			q, _ := strconv.ParseFloat(row[1], 64)
			c, _ := strconv.ParseFloat(row[2], 64)
			quad += q
			cuckoo += c
		}
		b.ReportMetric(quad, "quad-collisions-total")
		b.ReportMetric(cuckoo, "cuckoo-collisions-total")
	}
}

// BenchmarkTable3Locking regenerates Table III: lock-based vs lock-free
// slowdowns.
func BenchmarkTable3Locking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		row := lastRow(tbl)
		reportTimes(b, "quad-lockfree-geomean-x", row[1])
		reportTimes(b, "quad-lockbased-geomean-x", row[2])
		reportTimes(b, "cuckoo-lockfree-geomean-x", row[3])
		reportTimes(b, "cuckoo-lockbased-geomean-x", row[4])
	}
}

// BenchmarkTable4Reduction regenerates Table IV: parallel (shuffle) vs
// sequential (through-memory) checksum reduction.
func BenchmarkTable4Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Table4()
		if err != nil {
			b.Fatal(err)
		}
		row := lastRow(tbl)
		reportPct(b, "quad-shfl-geomean-%", row[1])
		reportPct(b, "quad-noshfl-geomean-%", row[2])
		reportPct(b, "cuckoo-shfl-geomean-%", row[3])
		reportPct(b, "cuckoo-noshfl-geomean-%", row[4])
	}
}

// BenchmarkTable5GlobalArray regenerates Table V: the paper's final
// design (checksum global array + shuffle), time and space overheads.
func BenchmarkTable5GlobalArray(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Table5()
		if err != nil {
			b.Fatal(err)
		}
		row := lastRow(tbl)
		reportPct(b, "time-geomean-%", row[1])
		reportPct(b, "space-geomean-%", row[2])
	}
}

// BenchmarkNoCollision regenerates the §IV-D.2 experiment: MRI-GRIDDING
// with hash collisions artificially removed.
func BenchmarkNoCollision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.NoCollision()
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "quad-collisionfree-%", tbl.Rows[0][2])
		reportPct(b, "cuckoo-collisionfree-%", tbl.Rows[1][2])
	}
}

// BenchmarkNoAtomic regenerates the §IV-D.3 experiment: insertion with
// the atomic instructions removed.
func BenchmarkNoAtomic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.NoAtomic()
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "quad-noatomic-geomean-%", tbl.Rows[0][2])
		reportPct(b, "cuckoo-noatomic-geomean-%", tbl.Rows[1][2])
	}
}

// BenchmarkMultiChecksum regenerates §VII-2: single vs dual checksums.
func BenchmarkMultiChecksum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.MultiChecksum()
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "parity-%", tbl.Rows[0][1])
		reportPct(b, "modular-%", tbl.Rows[1][1])
		reportPct(b, "dual-%", tbl.Rows[2][1])
	}
}

// BenchmarkWriteAmplification regenerates §VII-3: the NVM write increase
// caused by LP's checksum stores.
func BenchmarkWriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.WriteAmp()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tbl.Rows {
			reportPct(b, row[0]+"-extra-writes-%", strings.TrimPrefix(row[3], "+"))
		}
	}
}

// BenchmarkMegaKV regenerates §VII-4: LP overhead on the MEGA-KV
// key-value store's search/delete/insert batches.
func BenchmarkMegaKV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.MegaKV()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tbl.Rows {
			reportPct(b, row[0]+"-%", row[1])
		}
	}
}

// BenchmarkFalseNegatives regenerates the §IV-B checksum error-injection
// study.
func BenchmarkFalseNegatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.FalseNeg()
		if err != nil {
			b.Fatal(err)
		}
		// Report the dual-checksum lost-store rate (the paper's design
		// point for LP's own failure mode).
		for _, row := range tbl.Rows {
			if row[0] == "modular+parity" && strings.HasPrefix(row[1], "lost-store") {
				v, _ := strconv.ParseFloat(row[4], 64)
				b.ReportMetric(v, "dual-loststore-fn-rate")
			}
		}
	}
}

// BenchmarkRecovery regenerates the crash/validate/recover flow and
// reports the recovery cost of the first workload.
func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Recovery()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tbl.Rows {
			if row[5] != "verified" {
				b.Fatalf("recovery left %s unverified: %s", row[0], row[5])
			}
			cycles, _ := strconv.ParseFloat(row[4], 64)
			b.ReportMetric(cycles, fmt.Sprintf("%s-recovery-cycles", row[0]))
		}
	}
}

// BenchmarkTable1Inventory exercises the registry (Table I is static but
// keeping one benchmark per artifact makes -bench=. exhaustive).
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScaling sweeps thread-block count — the paper's title
// claim: the global array scales, hash tables do not, locks are fatal.
func BenchmarkAblationScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Scaling()
		if err != nil {
			b.Fatal(err)
		}
		big := lastRow(tbl) // the largest block count
		reportPct(b, "globalarray-at-32768-blocks-%", big[1])
		reportPct(b, "quad-lockfree-at-32768-blocks-%", big[2])
	}
}

// BenchmarkAblationFusion sweeps the §IV-A region fusion factor.
func BenchmarkAblationFusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Fusion()
		if err != nil {
			b.Fatal(err)
		}
		bytes1, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
		bytes64, _ := strconv.ParseFloat(lastRow(tbl)[2], 64)
		b.ReportMetric(bytes1/bytes64, "table-shrink-at-fusion-64")
	}
}

// BenchmarkAblationCheckpoint sweeps the §IV-A whole-cache-flush interval.
func BenchmarkAblationCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		noCkpt, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
		dense, _ := strconv.ParseFloat(lastRow(tbl)[3], 64)
		b.ReportMetric(noCkpt, "failed-blocks-no-checkpoint")
		b.ReportMetric(dense, "failed-blocks-64-interval")
	}
}

// BenchmarkCPULP contrasts the original CPU LP recipe with the paper's
// GPU design across concurrency levels (§II-A).
func BenchmarkCPULP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.CPULP()
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "cpu-design-at-16-%", tbl.Rows[0][1])
		reportPct(b, "cpu-design-at-1024-%", lastRow(tbl)[1])
		reportPct(b, "gpu-design-at-1024-%", lastRow(tbl)[2])
	}
}

// BenchmarkMTBFPlan derives §IV-A's checkpoint interval from measured
// costs and a failure-rate sweep.
func BenchmarkMTBFPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.MTBFPlan()
		if err != nil {
			b.Fatal(err)
		}
		iv, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
		b.ReportMetric(iv, "optimal-interval-at-1e9-mtbf")
	}
}

// BenchmarkAblationLoadFactor sweeps the quadratic-probing fill level.
func BenchmarkAblationLoadFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tbl, err := r.LoadFactor()
		if err != nil {
			b.Fatal(err)
		}
		c70, _ := strconv.ParseFloat(tbl.Rows[2][2], 64)
		c95, _ := strconv.ParseFloat(lastRow(tbl)[2], 64)
		b.ReportMetric(c70, "collisions-at-70pct")
		b.ReportMetric(c95, "collisions-at-95pct")
	}
}

// ---------------------------------------------------------------------
// Serial vs parallel wall-clock (the host-parallel execution paths:
// harness Options.Parallel and faultsim Campaign.Parallel). Both paths
// are bit-deterministic at any width — see determinism_test.go — so
// these benchmarks measure time only. `make bench` also runs
// TestWriteBenchParallelJSON, which records the comparison to
// BENCH_parallel.json.

// benchParallel matches the `-parallel 8` invocations the README
// documents for cmd/lpbench and cmd/lpfault.
const benchParallel = 8

func runScalingOnce(tb testing.TB, parallel int) time.Duration {
	tb.Helper()
	opt := harness.DefaultOptions()
	opt.Parallel = parallel
	r := harness.NewRunner(opt)
	start := time.Now()
	if _, err := r.Scaling(); err != nil {
		tb.Fatalf("scaling (parallel=%d): %v", parallel, err)
	}
	return time.Since(start)
}

func runCampaignOnce(tb testing.TB, parallel int) time.Duration {
	tb.Helper()
	c := faultsim.DefaultCampaign(2)
	c.Minimize = false
	c.Parallel = parallel
	start := time.Now()
	rep, err := c.Run()
	if err != nil {
		tb.Fatalf("campaign (parallel=%d): %v", parallel, err)
	}
	if rep.Failed() {
		tb.Fatalf("campaign (parallel=%d) reported failures", parallel)
	}
	return time.Since(start)
}

func BenchmarkScalingSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runScalingOnce(b, 1)
	}
}

func BenchmarkScalingParallel8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runScalingOnce(b, benchParallel)
	}
}

func BenchmarkCampaignSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCampaignOnce(b, 1)
	}
}

func BenchmarkCampaignParallel8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCampaignOnce(b, benchParallel)
	}
}

// benchEntry is one serial-vs-parallel comparison in BENCH_parallel.json.
type benchEntry struct {
	Name       string  `json:"name"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

type benchReport struct {
	GeneratedBy string       `json:"generated_by"`
	HostCPUs    int          `json:"host_cpus"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Parallel    int          `json:"parallel"`
	Entries     []benchEntry `json:"entries"`
	Note        string       `json:"note"`
}

// TestWriteBenchParallelJSON measures the serial and parallel wall-clock
// of the scaling experiment and a small fault campaign and writes the
// comparison to the file named by BENCH_JSON (skipped when unset; wired
// up by `make bench`). Wall-clock speedup tracks min(host_cpus,
// gomaxprocs, parallel): on a single-CPU host the fan-out cannot reduce
// wall-clock and the recorded speedup is ~1.0x, which is why the host
// CPU count is part of the report.
func TestWriteBenchParallelJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> (or run `make bench`) to record serial-vs-parallel timings")
	}
	entry := func(name string, run func(tb testing.TB, parallel int) time.Duration) benchEntry {
		serial := run(t, 1)
		par := run(t, benchParallel)
		return benchEntry{
			Name:       name,
			SerialMS:   float64(serial.Microseconds()) / 1e3,
			ParallelMS: float64(par.Microseconds()) / 1e3,
			Speedup:    float64(serial) / float64(par),
		}
	}
	rep := benchReport{
		GeneratedBy: "make bench (bench_test.go TestWriteBenchParallelJSON)",
		HostCPUs:    runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallel:    benchParallel,
		Entries: []benchEntry{
			entry("lpbench -exp scaling -parallel 8", runScalingOnce),
			entry("lpfault -seeds 2 -minimize=false -parallel 8", runCampaignOnce),
		},
		Note: "results are bit-identical at any parallel width; wall-clock speedup is bounded by min(host_cpus, gomaxprocs, parallel) and by the longest single job",
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Entries {
		t.Logf("%s: serial %.0fms, parallel %.0fms, speedup %.2fx", e.Name, e.SerialMS, e.ParallelMS, e.Speedup)
	}
}
