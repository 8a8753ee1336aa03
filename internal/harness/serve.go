package harness

import (
	"fmt"

	"gpulp/internal/parwork"
	"gpulp/internal/serve"
)

// serveRateScales are the load multipliers applied to every client of
// the default serving mix (1x ≈ 100 requests/Mcycle offered).
var serveRateScales = []float64{1, 2}

// servePolicies are the admission policies the sweep crosses with model
// and load.
var servePolicies = []string{"always-admit", "token-bucket"}

// Serve sweeps persistency model × offered load × admission policy over
// full MEGA-KV serving runs (internal/serve): seeded open/closed-loop
// clients, batched kernel launches, epoch drains at every batch
// boundary. Each row reports admissions, drops, worst-class latency
// percentiles, goodput, and the busy-cycle durability overhead against
// the bare (model "none") run at the same load and policy.
func (r *Runner) Serve() (*Table, error) {
	specs, err := r.modelSpecs()
	if err != nil {
		return nil, err
	}
	models := []string{"none"}
	for _, s := range specs {
		models = append(models, s.Name)
	}

	t := &Table{ID: "serve", Title: "MEGA-KV serving: model x load x admission policy",
		Columns: []string{"model", "policy", "load", "offered", "admitted", "dropped",
			"p50", "p95", "p99", "goodput/Mcyc", "overhead"}}

	type job struct {
		model  string
		rate   float64
		policy string
	}
	var jobs []job
	for _, m := range models {
		for _, rate := range serveRateScales {
			for _, pol := range servePolicies {
				jobs = append(jobs, job{m, rate, pol})
			}
		}
	}
	reports := make([]*serve.Report, len(jobs))
	errs := make([]error, len(jobs))
	parwork.Do(len(jobs), r.workers(), func(i int) {
		reports[i], errs[i] = r.serveRun(jobs[i].model, jobs[i].rate, jobs[i].policy)
	})
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("serve %s/%s at %gx: %w", jobs[i].model, jobs[i].policy, jobs[i].rate, e)
		}
	}

	// Bare runs at each (load, policy) are the durability baselines.
	type cell struct {
		rate   float64
		policy string
	}
	base := map[cell]*serve.Report{}
	for i, j := range jobs {
		if j.model == "none" {
			base[cell{j.rate, j.policy}] = reports[i]
		}
	}
	for i, j := range jobs {
		rep := reports[i]
		rep.CompareBaseline(base[cell{j.rate, j.policy}])
		var offered, admitted, dropped int
		var goodput float64
		var p50, p95, p99 int64
		for _, c := range rep.Classes {
			offered += c.Offered
			admitted += c.Admitted
			dropped += c.Dropped
			goodput += c.GoodputPerMCycle
			p50 = max(p50, c.P50)
			p95 = max(p95, c.P95)
			p99 = max(p99, c.P99)
		}
		overhead := "—"
		if j.model != "none" {
			overhead = "+" + pct(rep.DurabilityOverhead)
		}
		t.AddRow(j.model, j.policy, fmt.Sprintf("%gx", j.rate),
			fmt.Sprintf("%d", offered), fmt.Sprintf("%d", admitted), fmt.Sprintf("%d", dropped),
			fmt.Sprintf("%d", p50), fmt.Sprintf("%d", p95), fmt.Sprintf("%d", p99),
			fmt.Sprintf("%.1f", goodput), overhead)
	}
	t.Notes = append(t.Notes,
		"percentiles are the worst (max) across SLO classes, in device cycles",
		"goodput counts completions within their class budget, per million cycles, summed over classes",
		"overhead = busy-cycle inflation vs the bare (model none) run at the same load and policy",
		"token-bucket admits 70 requests/Mcycle sustained (burst 32); drops shed load before the batcher")
	return t, nil
}

// serveRun executes one serving run of the sweep.
func (r *Runner) serveRun(model string, rateScale float64, policy string) (*serve.Report, error) {
	cfg := serve.DefaultConfig()
	cfg.HorizonCycles = 400_000
	cfg.Seed = r.Opt.Seed
	cfg.Model = model
	cfg.Policy = policy
	for i := range cfg.Clients {
		cfg.Clients[i].RatePerMCycle *= rateScale
		if cfg.Clients[i].Closed {
			cfg.Clients[i].ThinkCycles /= rateScale
		}
	}
	res, err := serve.Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := res.VerifyLedger(); err != nil {
		return nil, err
	}
	return res.Report, nil
}
