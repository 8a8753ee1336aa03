// Package harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each experiment
// measures simulated-cycle overheads of Lazy Persistency configurations
// against no-persistency baselines over the Table I workload suite and
// renders a text table shaped like the paper's artifact, with the paper's
// published numbers alongside for comparison.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/parwork"
)

// Options configures a harness run.
type Options struct {
	// Scale is the workload input scale (1 = default).
	Scale int
	// Dev and Mem are the simulated device and memory configurations.
	Dev gpusim.Config
	Mem memsim.Config
	// Verify re-checks every run's output against the host golden
	// reference (slower; on by default in tests).
	Verify bool
	// Seed perturbs the LP hash functions.
	Seed uint64
	// Models restricts the modelcompare sweep to these registered
	// persistency models (empty = all of them).
	Models []string
	// Parallel is the number of host goroutines used to fan out
	// independent simulator runs — across experiments in RunAll and
	// across the per-configuration runs inside an experiment. Every run
	// owns a fresh simulated system and results are aggregated in a
	// fixed order, so any value (including 1, the default) produces
	// byte-identical tables.
	Parallel int
}

// DefaultOptions returns the V100-like configuration used for the
// experiment suite.
func DefaultOptions() Options {
	return Options{
		Scale:  1,
		Dev:    gpusim.DefaultConfig(),
		Mem:    memsim.DefaultConfig(),
		Verify: false,
		Seed:   0x1157c,
	}
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "fig5", "table3").
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Columns are the header cells; Rows the data cells.
	Columns []string
	Rows    [][]string
	// Notes carry caveats and observations.
	Notes []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderMarkdown writes the table as GitHub-flavored markdown (used to
// regenerate the EXPERIMENTS.md tables).
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(seps, "|"))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one regenerable artifact.
type Experiment struct {
	// ID is the lookup key; Title the paper artifact it reproduces.
	ID    string
	Title string
	// Run executes the experiment.
	Run func(r *Runner) (*Table, error)
}

// Experiments lists every experiment in paper order.
var Experiments = []Experiment{
	{"table1", "Table I: benchmark inventory", (*Runner).Table1},
	{"fig5", "Fig. 5: naive LP overhead, Quad vs Cuckoo (lock-free, shuffle)", (*Runner).Fig5},
	{"table2", "Table II: hash table collision counts", (*Runner).Table2},
	{"table3", "Table III: lock-based vs lock-free slowdown", (*Runner).Table3},
	{"table4", "Table IV: reduction with vs without shuffle", (*Runner).Table4},
	{"table5", "Table V: global-array overheads (time and space)", (*Runner).Table5},
	{"nocollision", "§IV-D.2: MRI-GRIDDING with collisions removed", (*Runner).NoCollision},
	{"noatomic", "§IV-D.3: insertion without atomic instructions", (*Runner).NoAtomic},
	{"multichecksum", "§VII-2: single vs dual checksum on TMM", (*Runner).MultiChecksum},
	{"writeamp", "§VII-3: NVM write amplification", (*Runner).WriteAmp},
	{"megakv", "§VII-4: MEGA-KV operation overheads", (*Runner).MegaKV},
	{"falseneg", "§IV-B: checksum false-negative rates under error injection", (*Runner).FalseNeg},
	{"recovery", "§II-A/§IV-A: crash, validation and recovery", (*Runner).Recovery},
	{"faultcampaign", "robustness: seeded fault-injection campaign vs hardened recovery", (*Runner).FaultCampaign},
	{"scrubcampaign", "robustness: media-error rate sweep vs self-healing recovery", (*Runner).ScrubCampaign},
	{"clustercampaign", "robustness: multi-device failover sweep vs sharded cross-device recovery", (*Runner).ClusterCampaign},
	{"replicacompare", "robustness: availability, goodput and NVM write amplification vs replication factor", (*Runner).ReplicaCompare},
	{"modelcompare", "persistency model zoo: LP vs EP vs SBRP vs strict", (*Runner).ModelCompare},
	{"serve", "serving: MEGA-KV latency under load, admission and persistency models (§VII-4 online)", (*Runner).Serve},
	{"scaling", "ablation: LP overhead vs thread-block count", (*Runner).Scaling},
	{"fusion", "ablation: region fusion factor (§IV-A enlargement)", (*Runner).Fusion},
	{"checkpoint", "ablation: checkpoint interval (§IV-A whole-cache flush)", (*Runner).Checkpoint},
	{"loadfactor", "ablation: quadratic-probing load factor (§IV-C)", (*Runner).LoadFactor},
	{"cpulp", "§II-A: the CPU LP design vs the GPU design across concurrency", (*Runner).CPULP},
	{"recoverycost", "ablation: LP recovery cost vs crash damage (§I trade-off)", (*Runner).RecoveryCost},
	{"mtbf", "§IV-A: checkpoint interval planning from failure rate", (*Runner).MTBFPlan},
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Runner executes experiments, caching measurements across them.
type Runner struct {
	Opt Options

	mu    sync.Mutex // guards cache; experiments may run concurrently
	cache map[measureKey]measurement
}

// measureKey identifies one measurement: a workload run bare (lp false)
// or under one LP configuration, with the Runner's seed applied.
type measureKey struct {
	name string
	lp   bool
	cfg  core.Config
}

// NewRunner creates a Runner with the given options.
func NewRunner(opt Options) *Runner {
	if opt.Scale < 1 {
		opt.Scale = 1
	}
	return &Runner{Opt: opt, cache: map[measureKey]measurement{}}
}

// workers returns the configured fan-out width (>= 1).
func (r *Runner) workers() int {
	if r.Opt.Parallel > 1 {
		return r.Opt.Parallel
	}
	return 1
}

// RunAll executes every experiment, rendering with the given renderer
// (Table.Render or Table.RenderMarkdown). With Options.Parallel > 1 the
// experiments run concurrently on a worker pool; tables are still
// rendered in paper order and are byte-identical to a serial run.
func (r *Runner) RunAll(w io.Writer, render func(*Table, io.Writer)) error {
	if render == nil {
		render = (*Table).Render
	}
	tables := make([]*Table, len(Experiments))
	errs := make([]error, len(Experiments))
	parwork.Do(len(Experiments), r.workers(), func(i int) {
		tables[i], errs[i] = Experiments[i].Run(r)
	})
	for i, e := range Experiments {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", e.ID, errs[i])
		}
		render(tables[i], w)
	}
	return nil
}

// measurement captures one workload run.
type measurement struct {
	cycles     int64
	collisions int64
	tableBytes int64
	persist    int64
	nvmWrites  int64 // NVM line writes incl. a final drain flush
	blocks     int
}

// measure runs the named workload once, with lpCfg (nil = baseline), and
// returns the measurement. Every measurement is cached by workload and
// configuration. Two concurrent experiments may both miss on the same
// key and run it twice; the simulator is deterministic, so they store
// the same value.
func (r *Runner) measure(name string, lpCfg *core.Config) (measurement, error) {
	key := measureKey{name: name}
	if lpCfg != nil {
		key.lp, key.cfg = true, *lpCfg
		key.cfg.Seed = r.Opt.Seed
	}
	r.mu.Lock()
	m, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	mem := memsim.MustNew(r.Opt.Mem)
	dev := gpusim.MustNew(r.Opt.Dev, mem)
	w := kernels.New(name, r.Opt.Scale)
	w.Setup(dev)
	grid, blk := w.Geometry()

	var lp *core.LP
	if key.lp {
		lp = core.New(dev, key.cfg, grid, blk)
	}
	mem.ResetStats() // exclude setup traffic
	res := dev.Launch(w.Name(), grid, blk, w.Kernel(lp))
	m = measurement{cycles: res.Cycles, blocks: grid.Size(), persist: w.PersistBytes()}
	if f, ok := w.(kernels.Finalizer); ok {
		fname, fg, fb, k := f.FinalizeKernel()
		fres := dev.Launch(fname, fg, fb, k)
		m.cycles += fres.Cycles
	}
	if r.Opt.Verify {
		if err := w.Verify(); err != nil {
			return m, fmt.Errorf("%s output verification failed: %w", name, err)
		}
	}
	mem.FlushAll() // drain dirty data so write counts cover the full run
	m.nvmWrites = mem.Stats().NVMLineWrites
	if lp != nil {
		m.collisions = lp.Store().Stats().Collisions
		m.tableBytes = lp.TableBytes()
	}
	r.mu.Lock()
	r.cache[key] = m
	r.mu.Unlock()
	return m, nil
}

// overhead returns the fractional slowdown of an LP config vs baseline.
func (r *Runner) overhead(name string, lpCfg core.Config) (float64, measurement, error) {
	base, err := r.measure(name, nil)
	if err != nil {
		return 0, measurement{}, err
	}
	m, err := r.measure(name, &lpCfg)
	if err != nil {
		return 0, m, err
	}
	return float64(m.cycles)/float64(base.cycles) - 1, m, nil
}

// geomeanOverhead computes the geometric mean of (1+overhead) minus one.
func geomeanOverhead(overheads []float64) float64 {
	if len(overheads) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range overheads {
		sum += math.Log(1 + o)
	}
	return math.Exp(sum/float64(len(overheads))) - 1
}

// geomeanFactor computes the geometric mean of slowdown factors.
func geomeanFactor(factors []float64) float64 {
	if len(factors) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range factors {
		sum += math.Log(f)
	}
	return math.Exp(sum / float64(len(factors)))
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// times formats a slowdown factor.
func times(v float64) string { return fmt.Sprintf("%.2fx", v) }

// sortedKeys returns map keys in sorted order (deterministic rendering).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
