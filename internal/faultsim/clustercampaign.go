// Cluster campaign: the multi-device counterpart of the crash-shape
// campaign. Every case builds a fresh N-device cluster, kills one device
// mid-launch at a seeded job and block boundary, and demands that
// cross-device failover republish a bit-exact shared durable image — or
// degrade honestly to the typed cluster error. The sweep covers device
// count × failure kind × failure time (seed-derived) × router, each case
// unreplicated (R = 1) on the failover engine the replica campaign also
// runs (failover.go), so a case that claims an adoption breaks the
// contract; every case is seeded from its sweep position, so the report
// is bit-identical at any Parallel width.
package faultsim

import (
	"fmt"
	"io"

	"gpulp/internal/cluster"
	"gpulp/internal/parwork"
)

// ClusterCell aggregates every case of one (devices, kind, router) cell.
type ClusterCell struct {
	Devices       int                 `json:"devices"`
	Kind          cluster.FailureKind `json:"kind"`
	Router        cluster.RouterKind  `json:"router"`
	Cases         int                 `json:"cases"`
	Recovered     int                 `json:"recovered"`
	Degraded      int                 `json:"degraded"`
	TypedErrors   int                 `json:"typed_errors"`
	Failures      int                 `json:"failures"`
	MeanFailovers float64             `json:"mean_failovers"`
	MeanReexec    float64             `json:"mean_reexecuted_blocks"`
	MeanMakespan  float64             `json:"mean_makespan_cycles"`
	MeanCoverage  float64             `json:"mean_coverage"`
}

// ClusterReport is the structured result of a cluster campaign.
type ClusterReport struct {
	Total int           `json:"total"`
	Cells []ClusterCell `json:"cells"`
	// Failures lists every contract-violating case, reproducible from its
	// (devices, kind, router, seed) tuple alone.
	Failures []FailoverResult `json:"failures,omitempty"`
}

// Failed reports whether any case violated the campaign contract.
func (r *ClusterReport) Failed() bool { return len(r.Failures) > 0 }

// ClusterCampaign sweeps device count × failure kind × failure time
// (seed-derived) × router over the cluster's sharded fill workload.
type ClusterCampaign struct {
	FailoverWorkload
	// DeviceCounts are the cluster sizes to sweep (default {2, 3}).
	DeviceCounts []int
	// Kinds are the failure shapes (default all).
	Kinds []cluster.FailureKind
	// Routers are the dispatch policies (default all).
	Routers []cluster.RouterKind
	// Seeds is the number of seeded cases per cell (default 4).
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

// DefaultClusterCampaign returns the standard cluster sweep: 2- and
// 3-device clusters, every failure kind, every router.
func DefaultClusterCampaign(seeds int) *ClusterCampaign {
	if seeds <= 0 {
		seeds = 4
	}
	return &ClusterCampaign{
		FailoverWorkload: FailoverWorkload{Opt: DefaultOptions()},
		Seeds:            seeds,
		BaseSeed:         0xc105_7e4d,
	}
}

// withDefaults fills unset sweep knobs.
func (c *ClusterCampaign) withDefaults() {
	if len(c.DeviceCounts) == 0 {
		c.DeviceCounts = []int{2, 3}
	}
	if len(c.Kinds) == 0 {
		c.Kinds = cluster.AllFailureKinds()
	}
	if len(c.Routers) == 0 {
		c.Routers = cluster.AllRouters()
	}
	if c.Seeds <= 0 {
		c.Seeds = 4
	}
	c.FailoverWorkload.withDefaults()
}

// Run executes the campaign. Cases run concurrently when Parallel > 1;
// each owns a fresh simulated cluster, and aggregation happens in sweep
// order.
func (c *ClusterCampaign) Run() (*ClusterReport, error) {
	c.withDefaults()
	for _, d := range c.DeviceCounts {
		if d < 1 {
			return nil, fmt.Errorf("faultsim: swept device count %d must be >= 1", d)
		}
	}

	var cases []FailoverCase
	for di, d := range c.DeviceCounts {
		for ki, k := range c.Kinds {
			for ri, r := range c.Routers {
				for si := 0; si < c.Seeds; si++ {
					pos := uint64(di)<<48 | uint64(ki)<<32 | uint64(ri)<<16 | uint64(si)
					cases = append(cases, FailoverCase{
						Devices: d, Replicas: 1, Kind: k, Router: r, Model: "lp",
						Seed: seedAt(c.BaseSeed, pos),
					})
				}
			}
		}
	}
	results := parwork.Map(cases, c.Parallel, c.RunFailoverCase, c.Progress)

	// Every Seeds consecutive results form one cell.
	rep := &ClusterReport{Total: len(results)}
	for i := 0; i < len(results); i += c.Seeds {
		cs := results[i].Case
		cell := ClusterCell{Devices: cs.Devices, Kind: cs.Kind, Router: cs.Router}
		var failovers, reexec, makespan int64
		var coverage float64
		for _, res := range results[i : i+c.Seeds] {
			cell.Cases++
			failovers += int64(res.Failovers)
			reexec += int64(res.ReexecutedBlocks)
			makespan += res.MakespanCycles
			coverage += res.Coverage
			switch res.Outcome {
			case FailoverRecovered:
				cell.Recovered++
			case FailoverDegraded:
				cell.Degraded++
			case FailoverTypedError:
				cell.TypedErrors++
			default:
				cell.Failures++
				rep.Failures = append(rep.Failures, res)
			}
		}
		cell.MeanFailovers = float64(failovers) / float64(cell.Cases)
		cell.MeanReexec = float64(reexec) / float64(cell.Cases)
		cell.MeanMakespan = float64(makespan) / float64(cell.Cases)
		cell.MeanCoverage = coverage / float64(cell.Cases)
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// Render writes the report as an aligned text table.
func (r *ClusterReport) Render(w io.Writer) {
	fmt.Fprintf(w, "cluster failover campaign: %d cases\n", r.Total)
	fmt.Fprintf(w, "%-8s %-16s %-16s %5s %9s %8s %6s %5s %9s %8s %12s\n",
		"devices", "kind", "router", "cases", "recovered", "degraded", "typed", "fail",
		"failovers", "reexec", "makespan")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-8d %-16s %-16s %5d %9d %8d %6d %5d %9.2f %8.1f %12.0f\n",
			c.Devices, c.Kind, c.Router, c.Cases, c.Recovered, c.Degraded,
			c.TypedErrors, c.Failures, c.MeanFailovers, c.MeanReexec, c.MeanMakespan)
	}
	for i, f := range r.Failures {
		fmt.Fprintf(w, "FAILURE %d: %v -> %v (%s)\n", i+1, f.Case, f.Outcome, f.Err)
	}
}
