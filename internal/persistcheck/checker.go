// Checker orchestration: scenario generation, coverage accounting,
// failure shrinking, and the deterministic report.
package persistcheck

import (
	"fmt"

	"gpulp/internal/faultsim"
	"gpulp/internal/kernels"
)

// Config parameterizes a checking run.
type Config struct {
	// Seed makes the whole run reproducible: the same seed generates the
	// same scenarios in the same order.
	Seed uint64
	// N is the total scenario budget. The mandatory coverage sweep
	// (every kernel × backend, plus one differential of each kind)
	// always runs in full, even when it exceeds N.
	N int
	// MaxOps, when positive, stops random generation once the run's
	// estimated op budget (see opsOf) is spent — a deterministic budget:
	// the same (Seed, N, MaxOps) always runs exactly the same scenarios,
	// on any machine. The coverage sweep still completes in full.
	MaxOps int64
	// Stop, when set, is polled between random scenarios; returning true
	// stops generation (the coverage sweep still completes). The CLI
	// wires its wall-clock -duration flag through this hook, keeping the
	// checker itself free of wall-clock reads.
	Stop func() bool
	// Kernels overrides the workload list (default: the Table I suite).
	Kernels []string
	// Backends overrides the design-point list (default: all of
	// Backends — every LP store organization plus the non-LP models).
	// The CLI's -model flag maps registry models onto this.
	Backends []string
	// PlantDrop arms the planted persistency bug in every raw-memory
	// scenario: the nth write-back is silently dropped. A checker that
	// does not fail with this set is broken.
	PlantDrop int
	// Progress, when set, receives one line per scenario batch.
	Progress func(format string, args ...any)
}

// Failure records one contract violation with its (shrunk) reproducer.
type Failure struct {
	Scenario string `json:"scenario"`
	Err      string `json:"err"`
	Repro    Repro  `json:"repro"`
}

// Report is the outcome of a checking run.
type Report struct {
	Scenarios int `json:"scenarios"`
	MemOps    int `json:"memops"`
	Kernel    int `json:"kernel"`
	Diff      int `json:"diff"`
	Scrub     int `json:"scrub"`
	// Ops is the estimated op cost of everything that ran (the MaxOps
	// budget's unit; see opsOf).
	Ops int64 `json:"ops,omitempty"`
	// Coverage counts scenarios per "kernel/backend" pair.
	Coverage map[string]int `json:"coverage"`
	Failures []Failure      `json:"failures,omitempty"`
	// Fingerprint folds every scenario outcome: two runs with the same
	// seed and budget must report the same fingerprint.
	Fingerprint uint64 `json:"fingerprint"`
}

// Ok reports whether the run found no contract violations.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

func (r *Report) fold(s string, failed bool) {
	h := r.Fingerprint
	for _, b := range []byte(s) {
		h = splitmix(h ^ uint64(b))
	}
	if failed {
		h = splitmix(h ^ 0xdead)
	}
	r.Fingerprint = h
}

// Run executes the checking campaign: first the mandatory coverage sweep
// (every kernel × every backend at least once, one differential check of
// each kind), then seeded random scenarios — raw memory-operation
// fuzzing, kernel runs, and differentials — until the budget is spent.
// Failing scenarios are shrunk to minimal reproducers in the report.
func (c *Checker) Run(cfg Config) *Report {
	if len(cfg.Kernels) == 0 {
		cfg.Kernels = kernels.Names
	}
	if len(cfg.Backends) == 0 {
		cfg.Backends = Backends
	}
	rep := &Report{Coverage: map[string]int{}}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	seedAt := func(i int) uint64 { return splitmix(cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15) }
	expired := func() bool {
		if cfg.MaxOps > 0 && rep.Ops >= cfg.MaxOps {
			return true
		}
		return cfg.Stop != nil && cfg.Stop()
	}

	// Phase 1: mandatory kernel × backend sweep. Fault kinds rotate
	// deterministically so the sweep alone touches every shape at least
	// somewhere.
	ordinal := 0
	for ki, kernel := range cfg.Kernels {
		for bi, backend := range cfg.Backends {
			sc := KernelScenario{
				Kernel:  kernel,
				Backend: backend,
				Seed:    seedAt(ordinal),
			}
			sc.Fault = c.rotateFault(sc, ki+bi)
			c.check(rep, kernelRepro(sc), sc.String())
			ordinal++
		}
		progress("sweep %d/%d: %s ok (%d scenarios)", ki+1, len(cfg.Kernels), kernel, rep.Scenarios)
	}
	// One differential of each kind on cheap dense kernels.
	storesBase := KernelScenario{Kernel: "spmv",
		Fault: faultsim.PartialEviction, Seed: seedAt(ordinal)}
	c.check(rep, Repro{Family: FamilyDiffStores, Kernel: &storesBase}, "diff-stores "+storesBase.String())
	modelsBase := KernelScenario{Kernel: "tmm",
		Fault: faultsim.TornWriteback, Seed: seedAt(ordinal + 1)}
	c.check(rep, Repro{Family: FamilyDiffModels, Kernel: &modelsBase}, "diff-models "+modelsBase.String())
	ordinal += 2
	// Two mandatory self-healing scenarios: a transient-only run the
	// scrubber must heal bit-exactly, and a stuck-at run with spin locks
	// that exercises the watchdog and quarantine paths.
	transientSc := ScrubScenario{Seed: seedAt(ordinal), Transient: 0.02}
	c.check(rep, scrubRepro(transientSc), transientSc.String())
	stuckSc := ScrubScenario{Seed: seedAt(ordinal + 1), Transient: 0.1, StuckFrac: 0.3,
		ScrubEvery: 1, Locks: true}
	c.check(rep, scrubRepro(stuckSc), stuckSc.String())
	ordinal += 2
	progress("coverage sweep done: %d scenarios, %d failures", rep.Scenarios, len(rep.Failures))

	// Phase 2: seeded random scenarios up to the budget, weighted toward
	// the cheap raw-memory family.
	for rep.Scenarios < cfg.N && !expired() {
		seed := seedAt(ordinal)
		switch p := splitmix(seed) % 100; {
		case p < 65 || cfg.PlantDrop > 0:
			// With a planted bug armed, everything funnels into the
			// family that can catch it fastest.
			n := 24 + int(splitmix(seed^1)%96)
			sc := GenMemOps(seed, n)
			sc.PlantDrop = cfg.PlantDrop
			c.check(rep, memopsRepro(sc), fmt.Sprintf("memops seed=%#x n=%d", seed, n))
		case p < 84:
			sc := c.randomKernelScenario(cfg, seed)
			c.check(rep, kernelRepro(sc), sc.String())
		case p < 92:
			r, label := c.randomDiff(cfg, seed)
			c.check(rep, r, label)
		default:
			sc := GenScrub(seed)
			c.check(rep, scrubRepro(sc), sc.String())
		}
		ordinal++
		if rep.Scenarios%50 == 0 {
			progress("%d scenarios (%d memops, %d kernel, %d diff, %d scrub), %d failures",
				rep.Scenarios, rep.MemOps, rep.Kernel, rep.Diff, rep.Scrub, len(rep.Failures))
		}
	}
	return rep
}

// rotateFault picks a deterministic fault kind for the sweep, skipping
// kinds the (kernel, backend) pair cannot decide.
func (c *Checker) rotateFault(sc KernelScenario, i int) faultsim.Kind {
	kinds := faultsim.AllKinds()
	for off := 0; off < len(kinds); off++ {
		if k := kinds[(i+off)%len(kinds)]; faultsim.ModelApplicable(modelOf(sc.Backend), sc.Kernel, k) {
			return k
		}
	}
	return faultsim.CleanCrash
}

func (c *Checker) randomKernelScenario(cfg Config, seed uint64) KernelScenario {
	pick := func(n uint64, mod int) int { return int(splitmix(seed^n) % uint64(mod)) }
	sc := KernelScenario{
		Kernel:  cfg.Kernels[pick(2, len(cfg.Kernels))],
		Backend: cfg.Backends[pick(3, len(cfg.Backends))],
		Seed:    seed,
	}
	sc.Fault = c.rotateFault(sc, pick(5, 6))
	// Occasional two-epoch scenarios on idempotent kernels probe
	// mid-epoch crashes against stale prior-epoch checksums (an LP
	// notion: the non-LP models carry no epoch salt).
	if !isModelBackend(sc.Backend) && pick(6, 10) == 0 &&
		faultsim.Applicable(sc.Kernel, faultsim.DataBitFlips) {
		sc.Epochs = 2
	}
	return sc
}

func (c *Checker) randomDiff(cfg Config, seed uint64) (Repro, string) {
	pick := func(n uint64, mod int) int { return int(splitmix(seed^n) % uint64(mod)) }
	dense := denseOf(cfg.Kernels)
	if len(dense) == 0 {
		dense = []string{"tmm"}
	}
	sc := KernelScenario{
		Kernel: dense[pick(2, len(dense))],
		Fault:  diffFaults[pick(3, len(diffFaults))],
		Seed:   seed,
	}
	if pick(4, 2) == 0 {
		return Repro{Family: FamilyDiffStores, Kernel: &sc}, "diff-stores " + sc.String()
	}
	return Repro{Family: FamilyDiffModels, Kernel: &sc}, "diff-models " + sc.String()
}

func denseOf(names []string) []string {
	var out []string
	for _, n := range names {
		if faultsim.Applicable(n, faultsim.DataBitFlips) {
			out = append(out, n)
		}
	}
	return out
}

// opsOf estimates a reproducer's cost in op units — the currency of the
// deterministic MaxOps budget. Raw memory operations count one each;
// the heavier families carry flat weights roughly proportional to their
// simulated work: a kernel scenario runs a full launch plus recovery
// (~40), differentials multiply that by the number of variant runs, and
// a scrub scenario is a short kernel plus media sweeps (~30). The
// weights are part of the budget's definition: changing them changes
// which scenarios a given MaxOps runs.
func opsOf(r Repro) int64 {
	switch r.Family {
	case FamilyMemOps:
		if r.MemOps == nil {
			return 1
		}
		return int64(len(r.MemOps.Ops))
	case FamilyKernel:
		return 40
	case FamilyDiffStores, FamilyDiffModels:
		return 4 * 40
	case FamilyScrub:
		return 30
	}
	return 1
}

// check runs one reproducer, accounts it, and shrinks it on failure.
func (c *Checker) check(rep *Report, r Repro, label string) {
	err := c.RunRepro(r)
	rep.Scenarios++
	rep.Ops += opsOf(r)
	switch r.Family {
	case FamilyMemOps:
		rep.MemOps++
	case FamilyKernel:
		rep.Kernel++
		rep.Coverage[r.Kernel.Kernel+"/"+r.Kernel.Backend]++
	case FamilyScrub:
		rep.Scrub++
		rep.Coverage["selfheal/scrub"]++
	default:
		rep.Diff++
		if r.Kernel != nil {
			rep.Coverage[r.Kernel.Kernel+"/"+r.Family]++
		}
	}
	rep.fold(label, err != nil)
	if err == nil {
		return
	}
	rep.Failures = append(rep.Failures, Failure{
		Scenario: label,
		Err:      err.Error(),
		Repro:    c.Shrink(r),
	})
}

// Shrink minimizes a failing reproducer (returns it unchanged when it
// does not actually fail, or when its family has no shrinker).
func (c *Checker) Shrink(r Repro) Repro {
	switch r.Family {
	case FamilyMemOps:
		sc := ShrinkMemOps(*r.MemOps)
		return memopsRepro(sc)
	case FamilyKernel:
		sc := c.shrinkKernel(*r.Kernel)
		return kernelRepro(sc)
	case FamilyScrub:
		sc := c.shrinkScrub(*r.Scrub)
		return scrubRepro(sc)
	}
	return r
}

// shrinkKernel reduces a failing kernel scenario along its pinnable
// axes: a single epoch, the earliest reproducing crash point, the fewest
// reproducing bit flips.
func (c *Checker) shrinkKernel(sc KernelScenario) KernelScenario {
	fails := func(s KernelScenario) bool { return c.RunKernel(s) != nil }
	if !fails(sc) {
		return sc
	}
	if sc.Epochs > 1 {
		cand := sc
		cand.Epochs = 0
		if fails(cand) {
			sc = cand
		}
	}
	if sc.Fault == faultsim.MidKernelCrash {
		for _, after := range []int{1, 2, 4, 8, 16} {
			cand := sc
			cand.AfterBlocks = after
			if fails(cand) {
				sc = cand
				break
			}
		}
	}
	if sc.Fault == faultsim.DataBitFlips || sc.Fault == faultsim.StoreBitFlips {
		cand := sc
		cand.Flips = 1
		if fails(cand) {
			sc = cand
		}
	}
	return sc
}
