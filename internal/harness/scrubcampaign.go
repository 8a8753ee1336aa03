package harness

import (
	"fmt"

	"gpulp/internal/faultsim"
)

// ScrubCampaign runs a reduced media-error rate sweep (see
// faultsim.RateSweep and cmd/lpfault -ratesweep for the full campaign):
// the online fault process is armed at each swept per-write rate, the
// workload is crashed, and core.SelfHeal must heal bit-exactly, degrade
// honestly with a coverage ratio, or report a typed error. The table is
// the degraded-coverage curve of the self-healing runtime.
func (r *Runner) ScrubCampaign() (*Table, error) {
	s := faultsim.DefaultRateSweep(4)
	s.Opt.Scale = r.Opt.Scale
	s.Opt.Dev = r.Opt.Dev
	s.Opt.LP.Seed = r.Opt.Seed
	s.Parallel = r.Opt.Parallel
	rep, err := s.Run()
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      "scrubcampaign",
		Title:   "media-error rate sweep: scrub heal rate and degraded coverage vs self-healing recovery",
		Columns: []string{"transient/write", "stuck/write", "cases", "healed", "degraded", "unrec", "success", "scrub heal rate", "mean coverage", "quar bytes", "watchdog"},
	}
	for _, p := range rep.Points {
		tbl.AddRow(fmt.Sprintf("%.4g", p.TransientPerWrite), fmt.Sprintf("%.4g", p.StuckPerWrite),
			fmt.Sprint(p.Cases), fmt.Sprint(p.Healed), fmt.Sprint(p.Degraded),
			fmt.Sprint(p.Unrecoverable), fmt.Sprintf("%.2f", p.SuccessRate),
			fmt.Sprintf("%.3f", p.ScrubHealRate), fmt.Sprintf("%.4f", p.MeanCoverage),
			fmt.Sprintf("%.0f", p.MeanQuarantinedBytes), fmt.Sprint(p.WatchdogAborts))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("%d cases total; stuck fraction %.2g of each rate is permanent (uncorrectable) faults", rep.Total, rep.StuckFrac),
		"transient faults are healed by the per-attempt ECC scrub; stuck-at lines are quarantined and the run completes degraded")
	for _, f := range rep.Failures {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("FAILURE: rate=%v seed=%#x -> %v (%s)", f.Rate, f.Seed, f.Outcome, f.Err))
	}
	return tbl, nil
}
