package harness

import (
	"fmt"

	"gpulp/internal/faultsim"
)

// FaultCampaign runs a reduced seeded fault-injection sweep (see
// internal/faultsim and cmd/lpfault for the full campaign): every
// (kernel, fault kind) cell gets a few seeded cases, and each must
// either recover to a bit-exact durable image or report a typed error.
// The table shows the recovery outcome mix and mean simulated recovery
// cost per cell — the robustness counterpart of the recovery experiment.
func (r *Runner) FaultCampaign() (*Table, error) {
	c := faultsim.DefaultCampaign(3)
	c.Opt.Scale = r.Opt.Scale
	c.Opt.Dev = r.Opt.Dev
	c.Opt.LP.Seed = r.Opt.Seed
	c.Parallel = r.Opt.Parallel
	rep, err := c.Run()
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      "faultcampaign",
		Title:   "fault-injection campaign: crash shapes, torn persists and bit flips vs hardened recovery",
		Columns: []string{"kernel", "fault", "cases", "recovered", "typed-err", "failed", "max tier", "mean recovery cycles"},
	}
	for _, s := range rep.Summaries {
		tbl.AddRow(s.Kernel, s.Kind, fmt.Sprint(s.Cases), fmt.Sprint(s.Recovered),
			fmt.Sprint(s.TypedErrors), fmt.Sprint(s.Mismatches+s.Panics),
			s.MaxTier, fmt.Sprint(s.MeanRecoveryCycles))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("%d cases total: %d recovered bit-exact, %d typed errors, %d contract violations",
			rep.Total, rep.Recovered, rep.TypedErrors, rep.Mismatches+rep.Panics),
		"data bit flips are probed only on dense kernels; flips in the MEGA-KV index are outside the block-checksum contract")
	for _, f := range rep.Failures {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("FAILURE: %v -> %v (%s)", f.Case, f.Outcome, f.Err))
	}
	return tbl, nil
}
