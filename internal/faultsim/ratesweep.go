// Rate sweep: the self-healing counterpart of the crash-shape campaign.
// Where Campaign injects one discrete fault per case and demands bit-exact
// hardened recovery, RateSweep arms memsim's online media-error process at
// a swept per-write fault rate and drives core.SelfHeal — per-rate it
// reports the recovery success rate, the scrub heal rate, quarantined
// bytes, and the degraded-coverage curve. Every case is seeded from its
// sweep position and owns a fresh simulated system, so the report is
// bit-identical at any Parallel width.
package faultsim

import (
	"errors"
	"fmt"
	"io"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/parwork"
)

// RateSweep sweeps the online media-error rate over kernels.Fill, the
// dense LP-protected fill (its data layout is known exactly, so the
// self-healer gets a precise line→region quarantine mapping).
type RateSweep struct {
	Opt Options
	// Rates are the TransientPerWrite probabilities to sweep.
	Rates []float64
	// StuckFrac scales each rate into the permanent-fault probability:
	// StuckPerWrite = rate * StuckFrac.
	StuckFrac float64
	// Seeds is the number of seeded cases per rate.
	Seeds int
	// BaseSeed perturbs every derived case seed.
	BaseSeed uint64
	// Blocks and BlockThreads fix the fill workload geometry
	// (default 32 × 64).
	Blocks, BlockThreads int
	// Locks guards each block behind a per-block spin lock, so a stuck-at
	// cell landing under a lock word can livelock re-execution — which the
	// kernel watchdog must convert into a typed abort and quarantine.
	Locks bool
	// WatchdogSteps arms the gpusim watchdog (default 2_000_000).
	WatchdogSteps int64
	// MaxAttempts bounds each case's SelfHeal loop (default 4; must leave
	// room for the scrub to sight a stuck line twice and quarantine it).
	MaxAttempts int
	// Parallel is the number of host goroutines running cases
	// concurrently; the report is identical at any value.
	Parallel int
	// Progress, when non-nil, observes each completed case (completion
	// order is scheduling-dependent; the report is not).
	Progress func(done, total int, r RateResult)
}

// DefaultRateSweep returns the standard scrub campaign: four rates
// spanning two orders of magnitude, 10% of faults permanent.
func DefaultRateSweep(seeds int) *RateSweep {
	if seeds <= 0 {
		seeds = 8
	}
	return &RateSweep{
		Opt:       DefaultOptions(),
		Rates:     []float64{0.002, 0.01, 0.05, 0.2},
		StuckFrac: 0.1,
		Seeds:     seeds,
		BaseSeed:  0x5ee5_cafe,
	}
}

// RateResult reports one executed case.
type RateResult struct {
	Rate    float64 `json:"rate"`
	Seed    uint64  `json:"seed"`
	Outcome Outcome `json:"outcome"`
	// Attempts, ScrubHealed, Uncorrectable, QuarantinedBytes, Coverage and
	// WatchdogAborts summarize the case's HealReport.
	Attempts         int     `json:"attempts"`
	ScrubHealed      int64   `json:"scrub_healed"`
	Uncorrectable    int     `json:"uncorrectable"`
	QuarantinedBytes int64   `json:"quarantined_bytes"`
	Coverage         float64 `json:"coverage"`
	WatchdogAborts   int     `json:"watchdog_aborts"`
	// Err carries the error or panic text for non-Healed outcomes.
	Err string `json:"err,omitempty"`
}

// RatePoint aggregates every case at one swept rate.
type RatePoint struct {
	TransientPerWrite float64 `json:"transient_per_write"`
	StuckPerWrite     float64 `json:"stuck_per_write"`
	Cases             int     `json:"cases"`
	Healed            int     `json:"healed"`
	Degraded          int     `json:"degraded"`
	Unrecoverable     int     `json:"unrecoverable"`
	Failures          int     `json:"failures"`
	// SuccessRate is (Healed + Degraded) / Cases: the fraction of cases
	// that completed honestly with their surviving data intact.
	SuccessRate float64 `json:"success_rate"`
	// ScrubHealRate is healed lines over corrupt-line encounters,
	// healed / (healed + final uncorrectable); 1.0 when nothing was ever
	// corrupt. MeanScrubHealed is the average healed-line count per case.
	ScrubHealRate   float64 `json:"scrub_heal_rate"`
	MeanScrubHealed float64 `json:"mean_scrub_healed"`
	// MeanCoverage averages the degraded-coverage ratio over all cases
	// (1.0 for fully healed ones) — the degraded-coverage curve point.
	MeanCoverage float64 `json:"mean_coverage"`
	// MeanQuarantinedBytes averages the durable footprint lost to
	// quarantined lines.
	MeanQuarantinedBytes float64 `json:"mean_quarantined_bytes"`
	WatchdogAborts       int     `json:"watchdog_aborts"`
	MeanAttempts         float64 `json:"mean_attempts"`
}

// RateReport is the structured result of a rate sweep.
type RateReport struct {
	StuckFrac float64     `json:"stuck_frac"`
	Total     int         `json:"total"`
	Points    []RatePoint `json:"points"`
	// Failures lists every contract-violating case, reproducible from its
	// (rate, seed) pair alone.
	Failures []RateResult `json:"failures,omitempty"`
}

// Failed reports whether any case violated the sweep contract.
func (r *RateReport) Failed() bool { return len(r.Failures) > 0 }

// withDefaults fills unset sweep knobs.
func (s *RateSweep) withDefaults() {
	if len(s.Rates) == 0 {
		s.Rates = []float64{0.002, 0.01, 0.05, 0.2}
	}
	if s.Seeds <= 0 {
		s.Seeds = 8
	}
	if s.Blocks <= 0 {
		s.Blocks = 32
	}
	if s.BlockThreads <= 0 {
		s.BlockThreads = 64
	}
	if s.WatchdogSteps <= 0 {
		s.WatchdogSteps = 2_000_000
	}
	if s.MaxAttempts <= 0 {
		s.MaxAttempts = 4
	}
	if s.Opt.Mem.LineSize == 0 {
		s.Opt = DefaultOptions()
	}
}

// Run executes the sweep. Cases run concurrently when Parallel > 1; each
// owns a fresh simulated system, and aggregation happens in sweep order.
func (s *RateSweep) Run() (*RateReport, error) {
	s.withDefaults()
	for _, rate := range s.Rates {
		if rate < 0 || rate > 1 || rate*s.StuckFrac > 1 {
			return nil, fmt.Errorf("faultsim: swept rate %v (stuck frac %v) out of [0,1]", rate, s.StuckFrac)
		}
	}

	type spec struct {
		rate float64
		seed uint64
	}
	var specs []spec
	for ri, rate := range s.Rates {
		for si := 0; si < s.Seeds; si++ {
			specs = append(specs, spec{rate, seedAt(s.BaseSeed, uint64(ri)<<32|uint64(si))})
		}
	}
	results := parwork.Map(specs, s.Parallel, func(sp spec) RateResult {
		return s.RunRateCase(sp.rate, sp.seed)
	}, s.Progress)

	rep := &RateReport{StuckFrac: s.StuckFrac, Total: len(results)}
	for ri, rate := range s.Rates {
		pt := RatePoint{TransientPerWrite: rate, StuckPerWrite: rate * s.StuckFrac}
		var healed, uncorrectable, quarantined, attempts int64
		var coverage float64
		for _, res := range results[ri*s.Seeds : (ri+1)*s.Seeds] {
			pt.Cases++
			healed += res.ScrubHealed
			uncorrectable += int64(res.Uncorrectable)
			quarantined += res.QuarantinedBytes
			attempts += int64(res.Attempts)
			coverage += res.Coverage
			pt.WatchdogAborts += res.WatchdogAborts
			switch res.Outcome {
			case Healed:
				pt.Healed++
			case Degraded:
				pt.Degraded++
			case Unrecoverable:
				pt.Unrecoverable++
			default:
				pt.Failures++
				rep.Failures = append(rep.Failures, res)
			}
		}
		pt.SuccessRate = float64(pt.Healed+pt.Degraded) / float64(pt.Cases)
		pt.ScrubHealRate = 1
		if healed+uncorrectable > 0 {
			pt.ScrubHealRate = float64(healed) / float64(healed+uncorrectable)
		}
		pt.MeanScrubHealed = float64(healed) / float64(pt.Cases)
		pt.MeanCoverage = coverage / float64(pt.Cases)
		pt.MeanQuarantinedBytes = float64(quarantined) / float64(pt.Cases)
		pt.MeanAttempts = float64(attempts) / float64(pt.Cases)
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// RunRateCase executes one (rate, seed) case end to end: run the fill
// workload under LP on a medium whose fault process is armed at the rate,
// crash, self-heal, and audit the durable image against the (computable)
// expected values — surviving regions must be bit-exact. It never panics.
func (s *RateSweep) RunRateCase(rate float64, seed uint64) (res RateResult) {
	s.withDefaults()
	res = RateResult{Rate: rate, Seed: seed, Coverage: 1}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Panicked
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	mcfg := s.Opt.Mem
	mcfg.Fault = memsim.FaultConfig{
		Enabled:           true,
		Seed:              seed,
		TransientPerWrite: rate,
		StuckPerWrite:     rate * s.StuckFrac,
	}
	dcfg := s.Opt.Dev
	dcfg.WatchdogSteps = s.WatchdogSteps
	mem := memsim.MustNew(mcfg)
	dev := gpusim.MustNew(dcfg, mem)

	fill := kernels.NewFill(dev, s.Blocks, s.BlockThreads, 12345, s.Locks)
	grid, blk := fill.Geometry()
	lp := core.New(dev, s.Opt.LP, grid, blk)
	ck := core.CaptureCheckpoint(mem)
	kernel := fill.Kernel(lp)

	lres := dev.Launch("rate-fill", grid, blk, kernel)
	if lres.Watchdog == nil {
		mem.Crash()
	}

	fusion := max(s.Opt.LP.Fusion, 1)
	rep, err := lp.SelfHeal(kernel, fill.Recompute(), core.HealOpts{
		MaxAttempts: s.MaxAttempts,
		Checkpoint:  ck,
		RegionOf:    func(line uint64) int { return fill.RegionOf(line, fusion) },
	})
	res.Attempts = rep.Attempts
	res.ScrubHealed = rep.ScrubHealed
	res.Uncorrectable = rep.FinalScrub.Uncorrectable
	res.QuarantinedBytes = rep.QuarantinedBytes
	res.Coverage = rep.Coverage
	res.WatchdogAborts = rep.WatchdogAborts

	// A clean or degraded claim must be backed by every surviving
	// region's durable words; any divergence is a Mismatch.
	audit := func(claimed Outcome, skip func(block int) bool) Outcome {
		if gid, _ := fill.Diverged(mem.NVMImage(), skip); gid >= 0 {
			return Mismatch
		}
		return claimed
	}
	var deg *core.DegradedError
	switch {
	case err == nil:
		res.Outcome = audit(Healed, nil)
	case errors.As(err, &deg):
		skip := map[int]bool{}
		for _, reg := range deg.Regions {
			skip[reg] = true
		}
		res.Err = err.Error()
		res.Outcome = audit(Degraded, func(block int) bool { return skip[block/fusion] })
	case core.IsTypedRecoveryError(err):
		res.Outcome = Unrecoverable
		res.Err = err.Error()
	default:
		res.Outcome = Mismatch
		res.Err = err.Error()
	}
	return res
}

// Render writes the report as an aligned text table.
func (r *RateReport) Render(w io.Writer) {
	fmt.Fprintf(w, "media-error rate sweep: %d cases, stuck fraction %.2g\n", r.Total, r.StuckFrac)
	fmt.Fprintf(w, "%-10s %-10s %5s %6s %8s %6s %5s %9s %9s %8s %10s %8s\n",
		"transient", "stuck", "cases", "healed", "degraded", "unrec", "fail",
		"success", "heal-rate", "coverage", "quar-bytes", "watchdog")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10.4g %-10.4g %5d %6d %8d %6d %5d %9.3f %9.3f %8.4f %10.1f %8d\n",
			p.TransientPerWrite, p.StuckPerWrite, p.Cases, p.Healed, p.Degraded,
			p.Unrecoverable, p.Failures, p.SuccessRate, p.ScrubHealRate,
			p.MeanCoverage, p.MeanQuarantinedBytes, p.WatchdogAborts)
	}
	for i, f := range r.Failures {
		fmt.Fprintf(w, "FAILURE %d: rate=%v seed=%#x -> %v (%s)\n", i+1, f.Rate, f.Seed, f.Outcome, f.Err)
	}
}
