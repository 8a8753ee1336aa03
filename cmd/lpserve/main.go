// Command lpserve runs the MEGA-KV serving layer: seeded open/closed-
// loop load, admission control, batched kernel launches under a
// selectable persistency model, and a per-SLO-class latency report.
//
//	lpserve -model lp -policy token-bucket
//	lpserve -model ep -rate-scale 2 -json
//	lpserve -model sbrp -crash 5        # inject a mid-serving crash
//
// With -devices N it serves from an N-device cluster instead: every
// batch launches on every alive device (each device's store is a full
// replica), -fail-launch kills one device mid-batch — survivors adopt
// the batch with zero recovery stall and the run continues degraded,
// shedding bulk-class arrivals before interactive ones — and a
// single-device failure recovers in place under a bounded
// retry/backoff budget.
//
//	lpserve -devices 3 -fail-launch 2 -fail-device 1
//	lpserve -devices 2 -fail-launch 1 -keep-classes 1 -json
//
// Reports are deterministic: the same flags produce byte-identical
// output across reruns. See DESIGN.md §9-10 and EXPERIMENTS.md for the
// recorded sweeps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gpulp/internal/pmodel"
	"gpulp/internal/serve"
)

// cliFlags carries every parsed flag value through validation, so the
// contradictory-combination checks are table-testable without a real
// command line.
type cliFlags struct {
	model, policy        string
	seed                 uint64
	horizon, wait        int64
	rateScale, admitRate float64
	burst, batch         int
	crash                int
	baseline, list, json bool

	devices, failLaunch, failDevice int
	retries, keepClasses            int
	backoff                         int64
}

// bare reports whether the selected model means "no persistency".
func bare(model string) bool { return model == "" || model == "none" }

// validateFlags rejects contradictory or out-of-range flag combinations
// before any simulation spins up; set records which flags the user
// explicitly passed. Every error here exits with status 2 (usage), the
// same contract lpfault's validateFlags follows.
func validateFlags(set map[string]bool, f cliFlags) error {
	if f.list {
		for name := range set {
			if name != "list" {
				return fmt.Errorf("-list only lists models and policies and cannot combine with -%s", name)
			}
		}
		return nil
	}
	if f.rateScale <= 0 {
		return fmt.Errorf("-rate-scale %v must be positive", f.rateScale)
	}
	if f.horizon < 0 {
		return fmt.Errorf("-horizon %d must be non-negative", f.horizon)
	}
	if f.wait < 0 {
		return fmt.Errorf("-wait %d must be non-negative", f.wait)
	}
	if f.batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative", f.batch)
	}
	if f.batch > 0 && f.batch%serve.BlockThreads != 0 {
		return fmt.Errorf("-batch %d must be a multiple of %d", f.batch, serve.BlockThreads)
	}
	if f.admitRate < 0 {
		return fmt.Errorf("-admit-rate %v must be non-negative", f.admitRate)
	}
	if f.burst < 0 {
		return fmt.Errorf("-admit-burst %d must be non-negative", f.burst)
	}
	if f.crash < 0 {
		return fmt.Errorf("-crash %d must be non-negative", f.crash)
	}
	if f.crash > 0 && bare(f.model) {
		return fmt.Errorf("-crash %d needs a persistency model to recover with, got -model %q", f.crash, f.model)
	}
	// The token-bucket knobs silently do nothing under other policies —
	// reject the combination instead of running a different experiment
	// than the one asked for.
	if f.policy != "token-bucket" {
		if set["admit-rate"] {
			return fmt.Errorf("-admit-rate only applies to -policy token-bucket, got %q", f.policy)
		}
		if set["admit-burst"] {
			return fmt.Errorf("-admit-burst only applies to -policy token-bucket, got %q", f.policy)
		}
	}

	// Cluster serving: -devices switches modes, and the cluster-only
	// knobs demand it.
	clusterOnly := []string{"fail-launch", "fail-device", "retries", "backoff", "keep-classes"}
	if !set["devices"] {
		for _, name := range clusterOnly {
			if set[name] {
				return fmt.Errorf("-%s only applies to cluster serving (-devices)", name)
			}
		}
		return nil
	}
	if f.devices < 1 {
		return fmt.Errorf("-devices %d must be >= 1", f.devices)
	}
	if set["crash"] {
		return fmt.Errorf("cluster serving injects failures via -fail-launch, not -crash")
	}
	if f.failLaunch < 0 {
		return fmt.Errorf("-fail-launch %d must be non-negative", f.failLaunch)
	}
	if f.failLaunch > 0 && bare(f.model) {
		return fmt.Errorf("-fail-launch %d needs a persistency model, got -model %q", f.failLaunch, f.model)
	}
	if set["fail-device"] && !set["fail-launch"] {
		return fmt.Errorf("-fail-device selects which device -fail-launch kills; set -fail-launch too")
	}
	if f.failDevice < 0 || (f.failLaunch > 0 && f.failDevice >= f.devices) {
		return fmt.Errorf("-fail-device %d out of range [0, %d)", f.failDevice, f.devices)
	}
	if f.retries < 0 || (f.failLaunch > 0 && f.retries == 0 && set["retries"]) {
		return fmt.Errorf("-retries %d must be positive when -fail-launch is set", f.retries)
	}
	if f.backoff < 0 {
		return fmt.Errorf("-backoff %d must be non-negative", f.backoff)
	}
	if set["keep-classes"] && f.keepClasses < 0 {
		return fmt.Errorf("-keep-classes %d must be non-negative", f.keepClasses)
	}
	return nil
}

func main() {
	var f cliFlags
	flag.StringVar(&f.model, "model", "lp", "persistency model: "+strings.Join(pmodel.Names(), ", ")+", or none (bare launches)")
	flag.StringVar(&f.policy, "policy", "token-bucket", "admission policy: "+strings.Join(serve.PolicyNames(), ", "))
	flag.Uint64Var(&f.seed, "seed", 1, "seed for every random draw in the run")
	flag.Int64Var(&f.horizon, "horizon", 0, "arrival horizon in cycles (0 = default config)")
	flag.Float64Var(&f.rateScale, "rate-scale", 1, "multiply every open-loop client's arrival rate")
	flag.Float64Var(&f.admitRate, "admit-rate", 0, "token-bucket sustained admits per Mcycle (0 = default)")
	flag.IntVar(&f.burst, "admit-burst", 0, "token-bucket burst depth (0 = default)")
	flag.IntVar(&f.batch, "batch", 0, "max requests per kernel launch (0 = default; must be a multiple of 128)")
	flag.Int64Var(&f.wait, "wait", 0, "batching deadline in cycles (0 = default)")
	flag.IntVar(&f.crash, "crash", 0, "crash the memory system during the Nth launch and recover (requires a persistency model)")
	flag.BoolVar(&f.baseline, "baseline", true, "also run the bare (model none) config and report durability overhead")
	flag.BoolVar(&f.json, "json", false, "emit the report as JSON")
	flag.BoolVar(&f.list, "list", false, "list models and admission policies, then exit")
	flag.IntVar(&f.devices, "devices", 0, "serve from an N-device cluster (every batch launches on every alive device)")
	flag.IntVar(&f.failLaunch, "fail-launch", 0, "fail-stop one cluster device midway through the Nth launch")
	flag.IntVar(&f.failDevice, "fail-device", 0, "which cluster device -fail-launch kills")
	flag.IntVar(&f.retries, "retries", 0, "last-device recovery attempt budget (0 = default)")
	flag.Int64Var(&f.backoff, "backoff", 0, "base retry backoff in cycles, doubled per attempt (0 = default)")
	flag.IntVar(&f.keepClasses, "keep-classes", -1, "SLO classes (leading, most latency-sensitive) still admitted once degraded (-1 = default: interactive only)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lpserve: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if err := validateFlags(set, f); err != nil {
		fmt.Fprintln(os.Stderr, "lpserve:", err)
		flag.Usage()
		os.Exit(2)
	}

	if f.list {
		fmt.Println("persistency models:")
		fmt.Printf("  %-8s %s\n", "none", "no persistency: bare launches (the overhead baseline)")
		for _, s := range pmodel.Specs() {
			fmt.Printf("  %-8s %s\n", s.Name, s.Title)
		}
		fmt.Println("admission policies:")
		for _, p := range serve.Policies() {
			fmt.Printf("  %-13s %s\n", p.Name, p.Title)
		}
		return
	}

	cfg := serve.DefaultConfig()
	cfg.Model = strings.ToLower(strings.TrimSpace(f.model))
	cfg.Policy = f.policy
	cfg.Seed = f.seed
	if f.horizon > 0 {
		cfg.HorizonCycles = f.horizon
	}
	if f.rateScale != 1 {
		for i := range cfg.Clients {
			cfg.Clients[i].RatePerMCycle *= f.rateScale
			if cfg.Clients[i].Closed {
				cfg.Clients[i].ThinkCycles /= f.rateScale
			}
		}
	}
	if f.admitRate > 0 {
		cfg.AdmitRatePerMCycle = f.admitRate
	}
	if f.burst > 0 {
		cfg.AdmitBurst = f.burst
	}
	if f.batch > 0 {
		cfg.MaxBatch = f.batch
	}
	if f.wait > 0 {
		cfg.MaxWaitCycles = f.wait
	}

	if set["devices"] {
		runCluster(cfg, f)
		return
	}
	cfg.CrashAtLaunch = f.crash

	res, err := serve.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpserve:", err)
		os.Exit(1)
	}
	if err := res.VerifyLedger(); err != nil {
		fmt.Fprintln(os.Stderr, "lpserve: durable store contradicts the admission ledger:", err)
		os.Exit(1)
	}
	if f.baseline && !bare(cfg.Model) {
		base := cfg
		base.Model = "none"
		base.CrashAtLaunch = 0
		if bres, berr := serve.Run(base); berr == nil {
			res.Report.CompareBaseline(bres.Report)
		}
	}

	if f.json {
		emitJSON(res.Report)
		return
	}
	res.Report.Render(os.Stdout)
}

// runCluster executes the cluster-backed serving run.
func runCluster(cfg serve.Config, f cliFlags) {
	ccfg := serve.DefaultClusterConfig()
	ccfg.Config = cfg
	ccfg.Devices = f.devices
	ccfg.FailAtLaunch = f.failLaunch
	ccfg.FailDevice = f.failDevice
	if f.retries > 0 {
		ccfg.MaxRetries = f.retries
	}
	if f.backoff > 0 {
		ccfg.RetryBackoffCycles = f.backoff
	}
	if f.keepClasses >= 0 {
		ccfg.DegradedKeepClasses = f.keepClasses
	}

	res, err := serve.RunCluster(ccfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpserve:", err)
		os.Exit(1)
	}
	if err := res.VerifyLedger(); err != nil {
		fmt.Fprintln(os.Stderr, "lpserve: durable replicas contradict the admission ledger:", err)
		os.Exit(1)
	}
	if f.baseline && !bare(ccfg.Model) {
		base := ccfg
		base.Model = "none"
		base.FailAtLaunch = 0
		if bres, berr := serve.RunCluster(base); berr == nil {
			res.Report.CompareBaseline(&bres.Report.Report)
		}
	}

	if f.json {
		emitJSON(res.Report)
		return
	}
	fmt.Print(res.Report.String())
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "lpserve:", err)
		os.Exit(1)
	}
}
