package main

import (
	"fmt"
	"reflect"

	"gpulp/internal/serve"
)

// kv-serve runs the MEGA-KV serving layer across an open-loop rate
// ladder. The batch-fill dimension is the reason for this workload: at x1
// nearly every launch carries a couple of requests, so per-launch fixed
// cost (launch set-up, the whole-cache epoch drain, per-launch
// allocation) dominates; from x300 up the launches are full and
// per-request work dominates. It exercises the memory hot path less than
// paper-lp does and the per-launch path much more.

// kvRungs multiply DefaultConfig's open-loop client rates.
var kvRungs = []float64{1, 30, 300, 1000, 1500, 2000}

// kvModels are the persistency models every rung runs under.
var kvModels = []string{"none", "lp", "ep"}

// kvSize is the input size: full for the benchmark, smoke for tests.
type kvSize struct {
	x1Horizon  int64   // arrival horizon of the x1 rung, cycles
	offered    float64 // open-loop requests offered on every other rung
	failLaunch int     // launch at which the cluster run loses device 1
}

func kvSizeFor(cfg config) kvSize {
	if cfg.smoke {
		return kvSize{x1Horizon: 20_000_000, offered: 2_500, failLaunch: 30}
	}
	return kvSize{x1Horizon: 200_000_000, offered: 25_000, failLaunch: 300}
}

// kvUnit is one serving run.
type kvUnit struct {
	mult    float64
	model   string
	policy  string // "" = always-admit
	cluster bool
}

func (u kvUnit) String() string {
	s := fmt.Sprintf("x%g/%s", u.mult, u.model)
	if u.policy != "" {
		s += "/" + u.policy
	}
	if u.cluster {
		s = "cluster/" + s
	}
	return s
}

// ladder reports whether u is one of the always-admit single-device rungs.
func (u kvUnit) ladder() bool { return u.policy == "" && !u.cluster }

func kvUnits() []kvUnit {
	var units []kvUnit
	for _, m := range kvRungs {
		for _, model := range kvModels {
			units = append(units, kvUnit{mult: m, model: model})
		}
	}
	return append(units,
		kvUnit{mult: 1000, model: "lp", policy: "token-bucket"},
		kvUnit{mult: 30, model: "lp", cluster: true})
}

// kvConfig is serve.DefaultConfig with u's rate multiplier, model and
// policy. The token bucket's sustained rate scales with the rung, so it
// sheds the same share of load at any rung.
func kvConfig(seed uint64, size kvSize, u kvUnit) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Seed = seed
	cfg.Model = u.model
	cfg.Clients = append([]serve.ClientSpec(nil), cfg.Clients...)
	open := 0.0
	for i := range cfg.Clients {
		if !cfg.Clients[i].Closed {
			cfg.Clients[i].RatePerMCycle *= u.mult
			open += cfg.Clients[i].RatePerMCycle
		}
	}
	cfg.HorizonCycles = size.x1Horizon
	if u.mult != 1 {
		cfg.HorizonCycles = int64(size.offered / open * 1e6)
	}
	if u.policy != "" {
		cfg.Policy = u.policy
		cfg.AdmitRatePerMCycle *= u.mult
	}
	return cfg
}

// openRate is a config's offered open-loop rate in requests per Mcycle.
func openRate(cfg serve.Config) float64 {
	r := 0.0
	for _, c := range cfg.Clients {
		if !c.Closed {
			r += c.RatePerMCycle
		}
	}
	return r
}

// clusterConfig serves u's config on three devices and fail-stops device
// 1 mid-run. Degraded mode keeps every class, so the cluster serves the
// same requests as the single-device run of the same config.
func clusterConfig(cfg serve.Config, size kvSize) serve.ClusterConfig {
	return serve.ClusterConfig{
		Config:              cfg,
		Devices:             3,
		FailAtLaunch:        size.failLaunch,
		FailDevice:          1,
		MaxRetries:          2,
		RetryBackoffCycles:  4096,
		DegradedKeepClasses: len(cfg.Classes),
	}
}

// kvRun is one unit execution's results.
type kvRun struct {
	rep       *serve.Report
	cluster   *serve.ClusterReport
	completed int
}

// execKV runs one unit and audits its durable store against the
// admission ledger.
func execKV(u kvUnit, cfg serve.Config, size kvSize, tr *tracer) (r kvRun, wall, allocB float64, err error) {
	root := tr.beginUnit("bench.kv-serve")
	defer tr.end(root)
	var am allocMeter
	am.start()
	if u.cluster {
		var res *serve.ClusterRunResult
		wall = tr.timed("serve.RunCluster", func() { res, err = serve.RunCluster(clusterConfig(cfg, size)) })
		allocB, _ = am.stop()
		if err != nil {
			return r, wall, allocB, err
		}
		r.cluster, r.rep = res.Report, &res.Report.Report
		tr.timed("serve.VerifyLedger", func() { err = res.VerifyLedger() })
		if err == nil && (!reflect.DeepEqual(res.AliveDevices(), []int{0, 2}) || res.Report.AdoptedBatches != 1) {
			err = fmt.Errorf("device 1 failure not absorbed: alive %v, adopted %d", res.AliveDevices(), res.Report.AdoptedBatches)
		}
	} else {
		var res *serve.RunResult
		wall = tr.timed("serve.Run", func() { res, err = serve.Run(cfg) })
		allocB, _ = am.stop()
		if err != nil {
			return r, wall, allocB, err
		}
		r.rep = res.Report
		tr.timed("serve.VerifyLedger", func() { err = res.VerifyLedger() })
	}
	for _, c := range r.rep.Classes {
		r.completed += c.Completed
	}
	return r, wall, allocB, err
}

// kvSetup times a serving run that serves exactly one request under each
// model, the fixed cost every run pays; it returns the sum over models of
// the median of reps runs.
func kvSetup(seed uint64, reps int) (float64, error) {
	total := 0.0
	for _, model := range kvModels {
		cfg := serve.DefaultConfig()
		cfg.Seed = seed
		cfg.Model = model
		cfg.Clients = cfg.Clients[:1] // one open-loop client
		first, _ := serve.NewGenerator(cfg).Next()
		cfg.HorizonCycles = max(first.Arrival, 1) // the next arrival lies past it
		var ts []float64
		for i := 0; i < reps; i++ {
			var res *serve.RunResult
			var err error
			ts = append(ts, collectedSeconds(func() { res, err = serve.Run(cfg) }))
			if err != nil {
				return 0, err
			}
			if n := res.Report.Classes[0].Completed; n != 1 {
				return 0, fmt.Errorf("set-up run under %s served %d requests, want 1", model, n)
			}
		}
		total += median(ts)
	}
	return total, nil
}

// maxRate is the highest rung rate (req/Mcycle) at which model meets the
// interactive budget at p99 with no drops and no backlog left past the
// horizon; 0 when no rung does.
func maxRate(units []kvUnit, runs []kvRun, cfgs []serve.Config, model string) float64 {
	best := 0.0
	for i, u := range units {
		if !u.ladder() || u.model != model {
			continue
		}
		rep, budget := runs[i].rep, cfgs[i].Classes[0].BudgetCycles
		if rep == nil {
			continue // failed; already reported
		}
		dropped := 0
		for _, c := range rep.Classes {
			dropped += c.Dropped
		}
		if rep.Classes[0].P99 <= budget && dropped == 0 && rep.EndCycle <= cfgs[i].HorizonCycles+budget {
			best = max(best, openRate(cfgs[i]))
		}
	}
	return best
}

func runKVServe(cfg config, o *outcome) {
	size := kvSizeFor(cfg)
	units := kvUnits()
	cfgs := make([]serve.Config, len(units))
	for i, u := range units {
		cfgs[i] = kvConfig(cfg.seed, size, u)
	}
	reps := 15
	if cfg.smoke {
		reps = 3
	}
	setup, err := kvSetup(cfg.seed, reps)
	if err != nil {
		o.fail("set-up: %v", err)
	}

	runs := make([]kvRun, len(units))
	wall, alloc, traced := series{}, series{}, series{}
	schedule(len(units), cfg.seconds, cfg.trace, func(i, pass int, isTraced bool) {
		u := units[i]
		var tr *tracer
		if isTraced {
			tr = o.tr
		}
		r, w, a, err := execKV(u, cfgs[i], size, tr)
		o.attempted++
		if err != nil {
			o.fail("%s: %v", u, err)
			return
		}
		if pass == 0 && !isTraced {
			runs[i] = r
		} else if !reflect.DeepEqual(r, runs[i]) {
			o.fail("%s: simulated report changed between executions", u)
		}
		if isTraced {
			traced.add(u.String(), w)
			return
		}
		wall.add(u.String(), w)
		alloc.add(u.String(), a)
	})
	l := o.layer
	busy := map[string]float64{}
	var ladderAlloc, launches, completed, completedAll float64
	var x1Wall, x1Done, x1000Wall, x1000Done float64
	var clusterWall, singleWall float64
	for i, u := range units {
		rep := runs[i].rep
		if rep == nil {
			continue // failed; already reported
		}
		key := u.String()
		completedAll += float64(runs[i].completed)
		switch {
		case u.cluster:
			clusterWall = wall.med(key)
			l.set("cluster.run_ms", clusterWall*1e3)
			l.set("cluster.adopted_batches", float64(runs[i].cluster.AdoptedBatches))
		case u.policy != "":
			offered, dropped := 0, 0
			for _, c := range rep.Classes {
				offered += c.Offered
				dropped += c.Dropped
			}
			l.set("serve.drop_frac", float64(dropped)/float64(offered))
		default:
			busy[u.model] += float64(rep.BusyCycles)
			ladderAlloc += alloc.med(key)
			launches += float64(rep.Launches)
			completed += float64(runs[i].completed)
			switch {
			case u.mult == 1:
				x1Wall += wall.med(key)
				x1Done += float64(runs[i].completed)
			case u.mult == 30 && u.model == "lp":
				singleWall = wall.med(key)
			case u.mult == 1000:
				x1000Wall += wall.med(key)
				x1000Done += float64(runs[i].completed)
				if u.model == "lp" {
					occupied := int64(rep.Launches)*cfgs[i].LaunchOverheadCycles + rep.BusyCycles + rep.DrainCycles + rep.RecoveryCycles
					l.set("serve.busy_frac", float64(occupied)/float64(rep.EndCycle))
					l.set("serve.p99_kcycles.x1000", float64(rep.Classes[0].P99)/1e3)
				}
			}
		}
	}

	e := o.e2e
	e.set("setup_s", setup)
	e.set("wall_s", wall.sumMed())
	e.set("units_per_s", completedAll/wall.sumMed())
	e.set("alloc_mb", alloc.sumMed()/1e6)
	e.set("sim_kcycles", busy["lp"]/1e3)
	e.set("sim_overhead_pct", 100*(busy["lp"]/busy["none"]-1))

	l.set("serve.us_per_req.x1", x1Wall/x1Done*1e6)
	l.set("serve.us_per_req.x1000", x1000Wall/x1000Done*1e6)
	l.set("serve.alloc_kb_per_launch", ladderAlloc/launches/1e3)
	l.set("serve.batch_fill", completed/(launches*float64(cfgs[0].MaxBatch)))
	l.set("serve.lp.max_rate", maxRate(units, runs, cfgs, "lp"))
	l.set("serve.ep.max_rate", maxRate(units, runs, cfgs, "ep"))
	l.set("serve.ep.overhead_pct", 100*(busy["ep"]/busy["none"]-1))
	l.set("cluster.host_ratio", clusterWall/singleWall)
	if cfg.trace {
		l.set("trace_overhead_pct", traceOverhead(traced, wall))
	}
}
