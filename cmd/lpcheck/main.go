// lpcheck is the crash-consistency model checker driver: it fuzzes the
// simulated persistency stack with seeded random scenarios and checks
// every run against an independent oracle of what must be durable.
//
// Usage:
//
//	lpcheck -seed 1 -n 500               # fixed-budget seeded run
//	lpcheck -ops 200000                  # deterministic op-budget soak
//	lpcheck -duration 10m                # time-boxed soak
//	lpcheck -model sbrp,strict -n 100    # scope the sweep to models
//	lpcheck -corpus internal/persistcheck/testdata/corpus
//	GPULP_PLANT_BUG=drop-writeback:1 lpcheck -n 50   # self-test: must fail
//
// Exit status is nonzero when any scenario violates the persistency
// contract; each failure is printed with its shrunk JSON reproducer,
// ready to be checked into the corpus.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpulp/internal/kernels"
	"gpulp/internal/persistcheck"
	"gpulp/internal/pmodel"
)

// cliFlags holds the parsed command line.
type cliFlags struct {
	seed                   uint64
	n                      int
	ops                    int64
	duration               time.Duration
	model, kernels, corpus string
	json, quiet            bool
}

// register defines lpcheck's flags on fs.
func register(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.Uint64Var(&f.seed, "seed", 1, "generator seed (same seed => same scenarios and fingerprint)")
	fs.IntVar(&f.n, "n", 200, "scenario budget (the kernel×backend coverage sweep always runs in full)")
	fs.Int64Var(&f.ops, "ops", 0, "optional deterministic op budget; same (seed, n, ops) always runs the same scenarios")
	fs.DurationVar(&f.duration, "duration", 0, "optional wall-clock budget; stops random generation when elapsed")
	fs.StringVar(&f.model, "model", "", "comma-separated persistency models to sweep: lp (all four checksum stores), ep, sbrp, strict, or \"all\"")
	fs.StringVar(&f.kernels, "kernels", "", "comma-separated workload subset (default: full Table I suite)")
	fs.StringVar(&f.corpus, "corpus", "", "replay every reproducer in this directory instead of fuzzing")
	fs.BoolVar(&f.json, "json", false, "emit the report as JSON")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress progress lines")
	return f
}

// validate rejects negative budgets, which would otherwise run as if
// unset; 0 keeps its documented meaning for each.
func (f *cliFlags) validate() error {
	switch {
	case f.n < 0:
		return fmt.Errorf("-n %d must be >= 0", f.n)
	case f.ops < 0:
		return fmt.Errorf("-ops %d must be >= 0", f.ops)
	case f.duration < 0:
		return fmt.Errorf("-duration %v must be >= 0", f.duration)
	}
	return nil
}

func main() {
	fl := register(flag.CommandLine)
	flag.Parse()
	if err := fl.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "lpcheck:", err)
		os.Exit(2)
	}

	c := persistcheck.NewChecker()

	if fl.corpus != "" {
		os.Exit(replayCorpus(c, fl.corpus))
	}

	cfg := persistcheck.Config{Seed: fl.seed, N: fl.n, MaxOps: fl.ops}
	if fl.duration > 0 {
		// The checker itself never reads the clock (its contract packages
		// are wall-clock-free); the CLI owns the deadline.
		deadline := time.Now().Add(fl.duration)
		cfg.Stop = func() bool { return time.Now().After(deadline) }
	}
	if fl.model != "" {
		specs, err := pmodel.Parse(fl.model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpcheck: %v\n", err)
			os.Exit(2)
		}
		for _, s := range specs {
			if s.Name == "lp" {
				// LP is four design points: every checksum store backend.
				cfg.Backends = append(cfg.Backends,
					persistcheck.BackendQuad, persistcheck.BackendCuckoo,
					persistcheck.BackendChained, persistcheck.BackendGlobalArray)
				continue
			}
			cfg.Backends = append(cfg.Backends, s.Name)
		}
	}
	if fl.kernels != "" {
		cfg.Kernels = strings.Split(fl.kernels, ",")
		for _, k := range cfg.Kernels {
			if !knownKernel(k) {
				fmt.Fprintf(os.Stderr, "lpcheck: unknown kernel %q (known: %s)\n",
					k, strings.Join(kernels.Names, ", "))
				os.Exit(2)
			}
		}
	}
	if spec := os.Getenv("GPULP_PLANT_BUG"); spec != "" {
		drop, err := parsePlantBug(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpcheck: %v\n", err)
			os.Exit(2)
		}
		cfg.PlantDrop = drop
		fmt.Fprintf(os.Stderr, "lpcheck: planted bug armed: dropping write-back %d in every raw-memory scenario\n", drop)
	}
	if !fl.quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lpcheck: "+format+"\n", args...)
		}
	}

	start := time.Now()
	rep := c.Run(cfg)
	elapsed := time.Since(start).Round(time.Millisecond)

	if fl.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "lpcheck: %v\n", err)
			os.Exit(2)
		}
	} else {
		printReport(rep, elapsed)
	}
	if !rep.Ok() {
		os.Exit(1)
	}
}

func printReport(rep *persistcheck.Report, elapsed time.Duration) {
	fmt.Printf("lpcheck: %d scenarios in %v (%d memops, %d kernel, %d diff, %d scrub), fingerprint %#x\n",
		rep.Scenarios, elapsed, rep.MemOps, rep.Kernel, rep.Diff, rep.Scrub, rep.Fingerprint)
	pairs := make([]string, 0, len(rep.Coverage))
	for k := range rep.Coverage {
		pairs = append(pairs, k)
	}
	sort.Strings(pairs)
	fmt.Printf("coverage: %d kernel/backend pairs\n", len(pairs))
	for _, k := range pairs {
		fmt.Printf("  %-28s %d\n", k, rep.Coverage[k])
	}
	if rep.Ok() {
		fmt.Println("PASS: no persistency contract violations")
		return
	}
	fmt.Printf("FAIL: %d violation(s)\n", len(rep.Failures))
	for i, f := range rep.Failures {
		fmt.Printf("--- failure %d: %s\n    %s\n", i+1, f.Scenario, f.Err)
		if data, err := json.MarshalIndent(f.Repro, "    ", "  "); err == nil {
			fmt.Printf("    shrunk reproducer:\n    %s\n", data)
		}
	}
}

func replayCorpus(c *persistcheck.Checker, dir string) int {
	names, repros, err := persistcheck.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpcheck: %v\n", err)
		return 2
	}
	if len(repros) == 0 {
		fmt.Fprintf(os.Stderr, "lpcheck: no reproducers in %s\n", dir)
		return 2
	}
	failed := 0
	for i, r := range repros {
		if err := c.RunRepro(r); err != nil {
			failed++
			fmt.Printf("FAIL %s: %v\n", names[i], err)
		} else {
			fmt.Printf("ok   %s\n", names[i])
		}
	}
	fmt.Printf("lpcheck: corpus replay: %d/%d pass\n", len(repros)-failed, len(repros))
	if failed > 0 {
		return 1
	}
	return 0
}

func knownKernel(name string) bool {
	for _, n := range kernels.Names {
		if n == name {
			return true
		}
	}
	return false
}

// parsePlantBug parses GPULP_PLANT_BUG ("drop-writeback" or
// "drop-writeback:N", N 1-based).
func parsePlantBug(spec string) (int, error) {
	kind, arg, hasArg := strings.Cut(spec, ":")
	if kind != "drop-writeback" {
		return 0, fmt.Errorf("unknown GPULP_PLANT_BUG %q (supported: drop-writeback[:N])", spec)
	}
	if !hasArg {
		return 1, nil
	}
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad GPULP_PLANT_BUG count %q: want a positive integer", arg)
	}
	return n, nil
}
