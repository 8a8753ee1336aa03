package main

import (
	"reflect"
	"time"

	"gpulp/internal/core"
	"gpulp/internal/faultsim"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
)

// crash-campaign is the recovery path: faultsim's standard campaign over
// tmm, spmv and megakv-insert under every persistency model, with crash,
// partial-eviction, torn-line and bit-flip injection, damage prediction
// and recovery on a 256 KiB cache, so eviction, write-back and flush
// carry the load. It is the writes-beside-reads counterpart of paper-lp.

// crashModels are the persistency models the campaign sweeps.
var crashModels = []string{"lp", "ep", "sbrp", "strict"}

// crashCampaign is faultsim.DefaultCampaign(2) over every model: 100
// cases. At smoke size it is one seed over spmv alone.
func crashCampaign(cfg config) *faultsim.Campaign {
	c := faultsim.DefaultCampaign(2)
	if cfg.smoke {
		c = faultsim.DefaultCampaign(1)
		c.Kernels = []string{"spmv"}
	}
	c.Models = crashModels
	c.Minimize = false
	c.BaseSeed = cfg.seed
	return c
}

// crashRun is one campaign execution's results.
type crashRun struct {
	rep     *faultsim.Report
	results []faultsim.Result // in completion order, which is sweep order
}

// execCrash runs the campaign once. gaps are the host seconds between
// consecutive completed cases, keyed by model; the first case is left
// out because its time also covers the campaign's golden runs.
func execCrash(c faultsim.Campaign, tr *tracer) (r crashRun, wall, allocB float64, gaps map[string][]float64, err error) {
	root := tr.beginUnit("bench.crash-campaign")
	defer tr.end(root)
	gaps = map[string][]float64{}
	var last time.Time
	c.Progress = func(done, total int, res faultsim.Result) {
		now := time.Now()
		tr.add("faultsim.case", last, now)
		if done > 1 {
			gaps[res.Case.Model] = append(gaps[res.Case.Model], now.Sub(last).Seconds())
		}
		last = now
		r.results = append(r.results, res)
	}
	var am allocMeter
	am.start()
	wall = tr.timed("faultsim.Campaign.Run", func() {
		last = time.Now()
		r.rep, err = c.Run()
	})
	allocB, _ = am.stop()
	return r, wall, allocB, gaps, err
}

// crashSetup times faultsim.GoldenRun for each campaign kernel (median of
// reps) and measures each kernel's bare launch cycles on the campaign's
// platform, the reference recovery cost is compared against.
func crashSetup(c *faultsim.Campaign, reps int) (setup float64, bareCycles map[string]int64, err error) {
	bareCycles = map[string]int64{}
	for _, k := range c.Kernels {
		var ts []float64
		for i := 0; i < reps; i++ {
			ts = append(ts, collectedSeconds(func() { _, err = faultsim.GoldenRun(c.Opt, k) }))
			if err != nil {
				return 0, nil, err
			}
		}
		setup += median(ts)
		mem := memsim.MustNew(c.Opt.Mem)
		dev := gpusim.MustNew(c.Opt.Dev, mem)
		w := kernels.New(k, c.Opt.Scale)
		w.Setup(dev)
		grid, blk := w.Geometry()
		bareCycles[k] = dev.Launch(k, grid, blk, w.Kernel(nil)).Cycles
		if fin, ok := w.(kernels.Finalizer); ok {
			name, fg, fb, kf := fin.FinalizeKernel()
			bareCycles[k] += dev.Launch(name, fg, fb, kf).Cycles
		}
	}
	return setup, bareCycles, nil
}

func runCrashCampaign(cfg config, o *outcome) {
	c := crashCampaign(cfg)
	reps := 3
	if cfg.smoke {
		reps = 1
	}
	setup, bareCycles, err := crashSetup(c, reps)
	if err != nil {
		o.fail("set-up: %v", err)
		return
	}

	var first crashRun
	wall, alloc, traced := series{}, series{}, series{}
	gaps := map[string][]float64{}
	schedule(1, cfg.seconds, cfg.trace, func(_, pass int, isTraced bool) {
		var tr *tracer
		if isTraced {
			tr = o.tr
		}
		r, w, a, g, err := execCrash(*c, tr)
		if err != nil {
			o.attempted++
			o.fail("campaign: %v", err)
			return
		}
		o.attempted += r.rep.Total
		if r.rep.Failed() {
			for _, f := range r.rep.Failures {
				o.fail("%v: %v: %s", f.Case, f.Outcome, f.Err)
			}
		}
		if pass == 0 && !isTraced {
			first = r
		} else if !reflect.DeepEqual(r, first) {
			o.fail("campaign results changed between executions")
		}
		for m, xs := range g { // a case span costs next to nothing, so both kinds count
			gaps[m] = append(gaps[m], xs...)
		}
		if isTraced {
			traced.add("campaign", w)
			return
		}
		wall.add("campaign", w)
		alloc.add("campaign", a)
	})
	if first.rep == nil {
		return
	}

	var cycles, bare float64
	var lpCases, lpRounds, lpSelective float64
	for _, res := range first.results {
		cycles += float64(res.Cycles)
		bare += float64(bareCycles[res.Case.Kernel])
		if res.Case.Model == "lp" {
			lpCases++
			lpRounds += float64(res.Rounds)
			if res.Outcome == faultsim.Recovered && res.Tier == core.TierSelective {
				lpSelective++
			}
		}
	}
	cases := float64(len(first.results))

	e := o.e2e
	e.set("setup_s", setup)
	e.set("wall_s", wall.sumMed())
	e.set("units_per_s", cases/wall.sumMed())
	e.set("alloc_mb", alloc.sumMed()/1e6)
	e.set("sim_kcycles", cycles/1e3)
	e.set("sim_overhead_pct", 100*cycles/bare)

	l := o.layer
	var all []float64
	for _, m := range crashModels {
		all = append(all, gaps[m]...)
		l.set("pmodel."+m+".case_ms_p50", median(gaps[m])*1e3)
	}
	l.set("faultsim.case_ms_p50", median(all)*1e3)
	l.setTail("faultsim.case_ms_tail", all, 1e3)
	l.set("faultsim.golden_ms", setup*1e3)
	l.set("faultsim.selective_frac", lpSelective/lpCases)
	l.set("faultsim.recovery_kcycles_mean", cycles/cases/1e3)
	l.set("faultsim.cases", cases)
	l.set("faultsim.failed", float64(first.rep.Mismatches+first.rep.Panics))
	l.set("core.recovery_rounds_mean", lpRounds/lpCases)
	if cfg.trace {
		l.set("trace_overhead_pct", traceOverhead(traced, wall))
	}
}
