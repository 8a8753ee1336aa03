// Replica campaign: the replicated-placement counterpart of the cluster
// campaign, on the same failover engine (failover.go). Every case builds
// a fresh fixed-size cluster with R durable copies per shard, kills one
// device mid-launch at a seeded job and block boundary, and audits the
// failover path against the replication contract: with R >= 2 every
// single-device failure must be absorbed by adopting a consistent
// surviving replica — zero failover re-execution — while R = 1 must
// take the legacy re-execute path and never claim an adoption. Either
// way the shared durable pool must come out bit-exact. The sweep covers
// replication factor × failure kind × placer × model; every case is
// seeded from its sweep position, so the report is bit-identical at any
// Parallel width.
package faultsim

import (
	"fmt"
	"io"

	"gpulp/internal/cluster"
	"gpulp/internal/parwork"
)

// ReplicaCell aggregates every case of one (replicas, kind, placer,
// model) cell.
type ReplicaCell struct {
	Replicas    int                 `json:"replicas"`
	Kind        cluster.FailureKind `json:"kind"`
	Placer      cluster.PlacerKind  `json:"placer"`
	Model       string              `json:"model"`
	Cases       int                 `json:"cases"`
	Adopted     int                 `json:"adopted"`
	Recovered   int                 `json:"recovered"`
	Degraded    int                 `json:"degraded"`
	TypedErrors int                 `json:"typed_errors"`
	Failures    int                 `json:"failures"`
	// MeanReexec and MeanNVMWrites quantify the replication trade:
	// adopted cells re-execute nothing and pay write amplification.
	MeanReexec    float64 `json:"mean_reexecuted_blocks"`
	MeanNVMWrites float64 `json:"mean_nvm_line_writes"`
	MeanMakespan  float64 `json:"mean_makespan_cycles"`
	MeanCoverage  float64 `json:"mean_coverage"`
}

// ReplicaReport is the structured result of a replica campaign.
type ReplicaReport struct {
	Total int `json:"total"`
	// RecoveredWithoutReexec counts cases whose failure was absorbed
	// with zero re-executed blocks — the replication payoff headline.
	RecoveredWithoutReexec int           `json:"recovered_without_reexec"`
	Cells                  []ReplicaCell `json:"cells"`
	// Failures lists every contract-violating case, reproducible from
	// its (replicas, kind, placer, model, seed) tuple alone.
	Failures []FailoverResult `json:"failures,omitempty"`
}

// Failed reports whether any case violated the campaign contract.
func (r *ReplicaReport) Failed() bool { return len(r.Failures) > 0 }

// ReplicaCampaign sweeps replication factor × failure kind × placer ×
// persistency model over a fixed-size cluster.
type ReplicaCampaign struct {
	FailoverWorkload
	// Devices is the fixed cluster size every case runs on (default 4).
	Devices int
	// RFactors are the replication factors to sweep (default {1, 2}).
	RFactors []int
	// Kinds are the failure shapes (default all).
	Kinds []cluster.FailureKind
	// Placers are the replica placement policies (default all).
	Placers []cluster.PlacerKind
	// Models are the persistency models guarding the shards
	// (default {"lp", "sbrp"}).
	Models []string
	// Seeds is the number of seeded cases per cell (default 3).
	Seeds int
	// BaseSeed perturbs every derived case seed.
	BaseSeed uint64
	// Parallel is the number of host goroutines running cases
	// concurrently; the report is identical at any value.
	Parallel int
	// Progress, when non-nil, observes each completed case (completion
	// order is scheduling-dependent; the report is not).
	Progress func(done, total int, r FailoverResult)
}

// DefaultReplicaCampaign returns the standard replicated-failover
// sweep: a 4-device cluster, R in {1, 2}, every failure kind, every
// placer, the LP and SBRP models.
func DefaultReplicaCampaign(seeds int) *ReplicaCampaign {
	if seeds <= 0 {
		seeds = 3
	}
	return &ReplicaCampaign{
		FailoverWorkload: FailoverWorkload{Opt: DefaultOptions()},
		Seeds:            seeds,
		BaseSeed:         0x5e71_1ca5,
	}
}

// withDefaults fills unset sweep knobs.
func (c *ReplicaCampaign) withDefaults() {
	if c.Devices <= 0 {
		c.Devices = 4
	}
	if len(c.RFactors) == 0 {
		c.RFactors = []int{1, 2}
	}
	if len(c.Kinds) == 0 {
		c.Kinds = cluster.AllFailureKinds()
	}
	if len(c.Placers) == 0 {
		c.Placers = cluster.AllPlacers()
	}
	if len(c.Models) == 0 {
		c.Models = []string{"lp", "sbrp"}
	}
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	c.FailoverWorkload.withDefaults()
}

// Run executes the campaign. Cases run concurrently when Parallel > 1;
// each owns a fresh simulated cluster, and aggregation happens in sweep
// order.
func (c *ReplicaCampaign) Run() (*ReplicaReport, error) {
	c.withDefaults()
	for _, r := range c.RFactors {
		if r < 1 || r > c.Devices {
			return nil, fmt.Errorf("faultsim: swept replication factor %d must be in [1, %d]", r, c.Devices)
		}
	}

	var cases []FailoverCase
	for ri, r := range c.RFactors {
		for ki, k := range c.Kinds {
			for pi, p := range c.Placers {
				for mi, m := range c.Models {
					for si := 0; si < c.Seeds; si++ {
						pos := uint64(ri)<<48 | uint64(ki)<<36 | uint64(pi)<<24 | uint64(mi)<<12 | uint64(si)
						cases = append(cases, FailoverCase{
							Devices: c.Devices, Replicas: r, Kind: k, Placer: p, Model: m,
							Seed: seedAt(c.BaseSeed, pos),
						})
					}
				}
			}
		}
	}
	results := parwork.Map(cases, c.Parallel, c.RunFailoverCase, c.Progress)

	// Every Seeds consecutive results form one cell.
	rep := &ReplicaReport{Total: len(results)}
	for i := 0; i < len(results); i += c.Seeds {
		cs := results[i].Case
		cell := ReplicaCell{Replicas: cs.Replicas, Kind: cs.Kind, Placer: cs.Placer, Model: cs.Model}
		var reexec, nvm, makespan int64
		var coverage float64
		for _, res := range results[i : i+c.Seeds] {
			cell.Cases++
			reexec += int64(res.ReexecutedBlocks)
			nvm += res.NVMLineWrites
			makespan += res.MakespanCycles
			coverage += res.Coverage
			if !res.Outcome.Failed() && res.ReexecutedBlocks == 0 {
				rep.RecoveredWithoutReexec++
			}
			switch res.Outcome {
			case Adopted:
				cell.Adopted++
			case Recovered:
				cell.Recovered++
			case Degraded:
				cell.Degraded++
			case TypedError:
				cell.TypedErrors++
			default:
				cell.Failures++
				rep.Failures = append(rep.Failures, res)
			}
		}
		cell.MeanReexec = float64(reexec) / float64(cell.Cases)
		cell.MeanNVMWrites = float64(nvm) / float64(cell.Cases)
		cell.MeanMakespan = float64(makespan) / float64(cell.Cases)
		cell.MeanCoverage = coverage / float64(cell.Cases)
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// Render writes the report as an aligned text table.
func (r *ReplicaReport) Render(w io.Writer) {
	fmt.Fprintf(w, "replicated failover campaign: %d cases, %d recovered without re-execution\n",
		r.Total, r.RecoveredWithoutReexec)
	fmt.Fprintf(w, "%-4s %-16s %-10s %-7s %5s %7s %9s %8s %5s %4s %8s %10s %12s\n",
		"r", "kind", "placer", "model", "cases", "adopted", "recovered", "degraded", "typed", "fail",
		"reexec", "nvm-writes", "makespan")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-4d %-16s %-10s %-7s %5d %7d %9d %8d %5d %4d %8.1f %10.0f %12.0f\n",
			c.Replicas, c.Kind, c.Placer, c.Model, c.Cases, c.Adopted, c.Recovered,
			c.Degraded, c.TypedErrors, c.Failures, c.MeanReexec, c.MeanNVMWrites, c.MeanMakespan)
	}
	for i, f := range r.Failures {
		fmt.Fprintf(w, "FAILURE %d: %v -> %v (%s)\n", i+1, f.Case, f.Outcome, f.Err)
	}
}
