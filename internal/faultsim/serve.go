// Serve campaign: fault injection against the MEGA-KV serving layer
// (internal/serve). Every case runs a full serving loop — seeded load,
// admission, batched launches — under one persistency model and crashes
// the memory system mid-way through a seed-derived kernel launch. The
// contract is the serving layer's own: the in-loop recovery must leave
// the durable image bit-exact against a crash-free run observed at the
// same launch (the instant both runs have served identical requests),
// the admission ledger must hold to the end of the run, and nothing may
// panic. Cases are seeded from their sweep position, so the report is
// bit-identical at any Parallel width.
package faultsim

import (
	"bytes"
	"fmt"
	"io"

	"gpulp/internal/parwork"
	"gpulp/internal/pmodel"
	"gpulp/internal/serve"
)

// ServeCase identifies one reproducible mid-serving crash run. The
// crashed launch and the block boundary inside it derive from Seed and
// the golden run's launch count.
type ServeCase struct {
	Model string `json:"model"`
	Seed  uint64 `json:"seed"`
}

// String implements fmt.Stringer.
func (c ServeCase) String() string {
	return fmt.Sprintf("serve/%s seed=%#x", c.Model, c.Seed)
}

// ServeResult reports one executed case.
type ServeResult struct {
	Case    ServeCase `json:"case"`
	Outcome Outcome   `json:"outcome"`
	// CrashLaunch and AfterBlocks are the seed-derived crash point.
	CrashLaunch int `json:"crash_launch"`
	AfterBlocks int `json:"after_blocks"`
	// Launches, Recoveries and RecoveryCycles summarize the crashed run.
	Launches       int   `json:"launches"`
	Recoveries     int   `json:"recoveries"`
	RecoveryCycles int64 `json:"recovery_cycles"`
	// Err carries the error or panic text for non-Recovered outcomes.
	Err string `json:"err,omitempty"`
}

// ServeCell aggregates every case of one model.
type ServeCell struct {
	Model        string  `json:"model"`
	Cases        int     `json:"cases"`
	Recovered    int     `json:"recovered"`
	TypedErrors  int     `json:"typed_errors"`
	Failures     int     `json:"failures"`
	MeanRecovery float64 `json:"mean_recovery_cycles"`
	MeanLaunches float64 `json:"mean_launches"`
}

// ServeReport is the structured result of a serve campaign.
type ServeReport struct {
	Total int         `json:"total"`
	Cells []ServeCell `json:"cells"`
	// Failures lists every contract-violating case, reproducible from
	// its (model, seed) tuple alone.
	Failures []ServeResult `json:"failures,omitempty"`
}

// Failed reports whether any case violated the serving contract.
func (r *ServeReport) Failed() bool { return len(r.Failures) > 0 }

// ServeCampaign sweeps persistency model × seed-derived crash time over
// full serving runs.
type ServeCampaign struct {
	// Base is the serving configuration every case perturbs (zero value:
	// serve.DefaultConfig with a shortened horizon). Crash and
	// observation knobs are overwritten per case.
	Base serve.Config
	// Models are the persistency models to sweep (default: every
	// registered model; bare "none" cannot host a crash case).
	Models []string
	// Seeds is the number of seeded cases per model (default 4).
	Seeds int
	// BaseSeed perturbs every derived case seed.
	BaseSeed uint64
	// Parallel is the number of host goroutines running cases
	// concurrently; the report is identical at any value.
	Parallel int
	// Progress, when non-nil, observes each completed case (completion
	// order is scheduling-dependent; the report is not).
	Progress func(done, total int, r ServeResult)
}

// DefaultServeCampaign returns the standard serve sweep: every
// registered persistency model, a shortened default serving run.
func DefaultServeCampaign(seeds int) *ServeCampaign {
	if seeds <= 0 {
		seeds = 4
	}
	base := serve.DefaultConfig()
	base.HorizonCycles = 400_000
	return &ServeCampaign{
		Base:     base,
		Seeds:    seeds,
		BaseSeed: 0x5e12_7e4d,
	}
}

// withDefaults fills unset sweep knobs.
func (c *ServeCampaign) withDefaults() {
	if c.Base.HorizonCycles == 0 {
		c.Base = serve.DefaultConfig()
		c.Base.HorizonCycles = 400_000
	}
	if len(c.Models) == 0 {
		c.Models = pmodel.Names()
	}
	if c.Seeds <= 0 {
		c.Seeds = 4
	}
}

// Run executes the campaign. Cases run concurrently when Parallel > 1;
// each owns a fresh simulated stack, and aggregation happens in sweep
// order.
func (c *ServeCampaign) Run() (*ServeReport, error) {
	c.withDefaults()
	for _, m := range c.Models {
		if _, ok := pmodel.Lookup(m); !ok {
			return nil, fmt.Errorf("faultsim: serve campaign model %q is not registered (bare runs cannot crash)", m)
		}
	}

	var cases []ServeCase
	for mi, m := range c.Models {
		for si := 0; si < c.Seeds; si++ {
			cases = append(cases, ServeCase{Model: m, Seed: seedAt(c.BaseSeed, uint64(mi)<<32|uint64(si))})
		}
	}
	results := parwork.Map(cases, c.Parallel, c.RunServeCase, c.Progress)

	// Every Seeds consecutive results form one model's cell.
	rep := &ServeReport{Total: len(results)}
	for i := 0; i < len(results); i += c.Seeds {
		cell := ServeCell{Model: results[i].Case.Model}
		var recovery, launches int64
		for _, res := range results[i : i+c.Seeds] {
			cell.Cases++
			recovery += res.RecoveryCycles
			launches += int64(res.Launches)
			switch res.Outcome {
			case Recovered:
				cell.Recovered++
			case TypedError:
				cell.TypedErrors++
			default:
				cell.Failures++
				rep.Failures = append(rep.Failures, res)
			}
		}
		cell.MeanRecovery = float64(recovery) / float64(cell.Cases)
		cell.MeanLaunches = float64(launches) / float64(cell.Cases)
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// RunServeCase executes one case end to end: a crash-free golden run to
// locate the launch schedule and snapshot the durable image at the
// seed-derived crash launch, then the crashed run, recovery audit, and
// ledger audit. It never panics.
func (c *ServeCampaign) RunServeCase(cs ServeCase) (res ServeResult) {
	c.withDefaults()
	res = ServeResult{Case: cs}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Panicked
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	cfg := c.Base
	cfg.Model = cs.Model
	cfg.Seed = cs.Seed
	cfg.CrashAtLaunch = 0
	cfg.CrashAfterBlocks = 0
	cfg.ObserveAtLaunch = 0

	// Probe the launch schedule, then pick a strictly interior crash
	// launch from the seed so early and late epochs both get coverage.
	probe, err := serve.Run(cfg)
	if err != nil {
		res.Outcome = TypedError
		res.Err = err.Error()
		return res
	}
	launches := probe.Report.Launches
	if launches < 2 {
		res.Outcome = TypedError
		res.Err = fmt.Sprintf("golden run made only %d launches; no interior crash point", launches)
		return res
	}
	res.CrashLaunch = 1 + int(splitmix(cs.Seed^0xc4a5)%uint64(launches-1))
	res.AfterBlocks = 1 + int(splitmix(cs.Seed^0xb10c)%uint64(c.Base.MaxBatch/serve.BlockThreads))

	cfg.ObserveAtLaunch = res.CrashLaunch
	golden, err := serve.Run(cfg)
	if err != nil {
		res.Outcome = TypedError
		res.Err = err.Error()
		return res
	}

	crash := cfg
	crash.CrashAtLaunch = res.CrashLaunch
	crash.CrashAfterBlocks = res.AfterBlocks
	r, err := serve.Run(crash)
	if err != nil {
		res.Outcome = TypedError
		res.Err = err.Error()
		return res
	}
	res.Launches = r.Report.Launches
	res.Recoveries = r.Report.Recoveries
	res.RecoveryCycles = r.Report.RecoveryCycles

	if r.Report.Recoveries != 1 {
		res.Outcome = Mismatch
		res.Err = fmt.Sprintf("crashed run reported %d recoveries, want 1", r.Report.Recoveries)
		return res
	}
	gObs, cObs := golden.Observed(), r.Observed()
	if len(gObs) == 0 || len(gObs) != len(cObs) {
		res.Outcome = Mismatch
		res.Err = fmt.Sprintf("observation snapshots missing or mismatched (%d vs %d)", len(gObs), len(cObs))
		return res
	}
	for i := range gObs {
		if !bytes.Equal(gObs[i], cObs[i]) {
			res.Outcome = Mismatch
			res.Err = fmt.Sprintf("durable output %d after recovery diverges from the crash-free image at launch %d", i, res.CrashLaunch)
			return res
		}
	}
	if err := r.VerifyLedger(); err != nil {
		res.Outcome = Mismatch
		res.Err = err.Error()
		return res
	}
	res.Outcome = Recovered
	return res
}

// Render writes the report as an aligned text table.
func (r *ServeReport) Render(w io.Writer) {
	fmt.Fprintf(w, "serve crash campaign: %d cases\n", r.Total)
	fmt.Fprintf(w, "%-8s %5s %9s %6s %5s %14s %9s\n",
		"model", "cases", "recovered", "typed", "fail", "recovery-cyc", "launches")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-8s %5d %9d %6d %5d %14.0f %9.1f\n",
			c.Model, c.Cases, c.Recovered, c.TypedErrors, c.Failures,
			c.MeanRecovery, c.MeanLaunches)
	}
	for i, f := range r.Failures {
		fmt.Fprintf(w, "FAILURE %d: %v -> %v (%s)\n", i+1, f.Case, f.Outcome, f.Err)
	}
}
