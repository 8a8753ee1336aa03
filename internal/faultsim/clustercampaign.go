// Cluster campaign: the multi-device counterpart of the crash-shape
// campaign. Every case builds a fresh N-device cluster, kills one device
// mid-launch at a seeded job and block boundary, and demands that
// cross-device failover republish a bit-exact shared durable image — or
// degrade honestly to the typed cluster error. The sweep covers device
// count × failure kind × failure time (seed-derived) × router; every
// case is seeded from its sweep position, so the report is bit-identical
// at any Parallel width.
package faultsim

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"gpulp/internal/cluster"
	"gpulp/internal/core"
	"gpulp/internal/parwork"
)

// ClusterCase identifies one reproducible cluster-failover run. The
// failure time (job index and block boundary) derives from Seed.
type ClusterCase struct {
	Devices int                 `json:"devices"`
	Kind    cluster.FailureKind `json:"kind"`
	Router  cluster.RouterKind  `json:"router"`
	Seed    uint64              `json:"seed"`
}

// String implements fmt.Stringer.
func (c ClusterCase) String() string {
	return fmt.Sprintf("devices=%d/%s/%s seed=%#x", c.Devices, c.Kind, c.Router, c.Seed)
}

// ClusterOutcome classifies one cluster case.
type ClusterOutcome int

const (
	// ClusterRecovered: every job completed (the killed device's shard
	// failed over) and the pool image is bit-exact.
	ClusterRecovered ClusterOutcome = iota
	// ClusterDegraded: jobs were lost but the run returned the typed
	// DegradedClusterError and every completed shard is bit-exact.
	ClusterDegraded
	// ClusterTypedError: the run surfaced another typed recovery error.
	ClusterTypedError
	// ClusterMismatch: the run claimed success (full or degraded) but a
	// completed shard's durable bytes diverge — silent corruption.
	ClusterMismatch
	// ClusterPanicked: the runtime panicked.
	ClusterPanicked
)

// String implements fmt.Stringer.
func (o ClusterOutcome) String() string {
	switch o {
	case ClusterRecovered:
		return "recovered"
	case ClusterDegraded:
		return "degraded"
	case ClusterTypedError:
		return "typed-error"
	case ClusterMismatch:
		return "MISMATCH"
	case ClusterPanicked:
		return "PANIC"
	}
	return fmt.Sprintf("ClusterOutcome(%d)", int(o))
}

// MarshalJSON writes the readable String form.
func (o ClusterOutcome) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", o.String())), nil
}

// Failed reports whether the outcome violates the campaign contract:
// recover bit-exactly, degrade honestly with the typed error, or report
// another typed error — never lie, never panic.
func (o ClusterOutcome) Failed() bool { return o == ClusterMismatch || o == ClusterPanicked }

// ClusterResult reports one executed case.
type ClusterResult struct {
	Case    ClusterCase    `json:"case"`
	Outcome ClusterOutcome `json:"outcome"`
	// FailJob and AfterBlocks are the seed-derived failure time.
	FailJob     int `json:"fail_job"`
	AfterBlocks int `json:"after_blocks"`
	// Failovers, Rejoins, ReexecutedBlocks, LostJobs, BackoffCycles and
	// MakespanCycles summarize the run's Report.
	Failovers        int     `json:"failovers"`
	Rejoins          int     `json:"rejoins"`
	ReexecutedBlocks int     `json:"reexecuted_blocks"`
	LostJobs         int     `json:"lost_jobs"`
	Coverage         float64 `json:"coverage"`
	BackoffCycles    int64   `json:"backoff_cycles"`
	MakespanCycles   int64   `json:"makespan_cycles"`
	// Err carries the error or panic text for non-Recovered outcomes.
	Err string `json:"err,omitempty"`
}

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
	Failures []ClusterResult `json:"failures,omitempty"`
}

// Failed reports whether any case violated the campaign contract.
func (r *ClusterReport) Failed() bool { return len(r.Failures) > 0 }

// ClusterCampaign sweeps device count × failure kind × failure time
// (seed-derived) × router over the cluster's sharded fill workload.
type ClusterCampaign struct {
	Opt Options
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
	// Jobs, BlocksPerJob and BlockThreads fix the workload
	// (default 8 × 4 × 32).
	Jobs, BlocksPerJob, BlockThreads int
	// MinAlive is the cluster quorum (default 1, so a single loss is
	// always survivable at Devices >= 2).
	MinAlive int
	// MaxFailovers bounds failover attempts per lost job (default 3).
	MaxFailovers int
	// Parallel is the number of host goroutines running cases
	// concurrently; the report is identical at any value.
	Parallel int
	// Progress, when non-nil, observes each completed case (completion
	// order is scheduling-dependent; the report is not).
	Progress func(done, total int, r ClusterResult)
}

// DefaultClusterCampaign returns the standard cluster sweep: 2- and
// 3-device clusters, every failure kind, every router.
func DefaultClusterCampaign(seeds int) *ClusterCampaign {
	if seeds <= 0 {
		seeds = 4
	}
	return &ClusterCampaign{
		Opt:      DefaultOptions(),
		Seeds:    seeds,
		BaseSeed: 0xc105_7e4d,
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
	if c.Jobs <= 0 {
		c.Jobs = 8
	}
	if c.BlocksPerJob <= 0 {
		c.BlocksPerJob = 4
	}
	if c.BlockThreads <= 0 {
		c.BlockThreads = 32
	}
	if c.MinAlive <= 0 {
		c.MinAlive = 1
	}
	if c.MaxFailovers <= 0 {
		c.MaxFailovers = 3
	}
	if c.Opt.Mem.LineSize == 0 {
		c.Opt = DefaultOptions()
	}
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

	var specs []ClusterCase
	for di, d := range c.DeviceCounts {
		for ki, k := range c.Kinds {
			for ri, r := range c.Routers {
				for si := 0; si < c.Seeds; si++ {
					pos := uint64(di)<<48 | uint64(ki)<<32 | uint64(ri)<<16 | uint64(si)
					specs = append(specs, ClusterCase{
						Devices: d, Kind: k, Router: r,
						Seed: splitmix(c.BaseSeed ^ splitmix(pos)),
					})
				}
			}
		}
	}

	results := make([]ClusterResult, len(specs))
	var progressMu sync.Mutex
	done := 0
	parwork.Do(len(specs), c.Parallel, func(i int) {
		res := c.RunClusterCase(specs[i])
		results[i] = res
		if c.Progress != nil {
			progressMu.Lock()
			done++
			c.Progress(done, len(specs), res)
			progressMu.Unlock()
		}
	})

	rep := &ClusterReport{Total: len(specs)}
	i := 0
	for _, d := range c.DeviceCounts {
		for _, k := range c.Kinds {
			for _, r := range c.Routers {
				cell := ClusterCell{Devices: d, Kind: k, Router: r}
				var failovers, reexec int64
				var makespan int64
				var coverage float64
				for si := 0; si < c.Seeds; si++ {
					res := results[i]
					i++
					cell.Cases++
					failovers += int64(res.Failovers)
					reexec += int64(res.ReexecutedBlocks)
					makespan += res.MakespanCycles
					coverage += res.Coverage
					switch res.Outcome {
					case ClusterRecovered:
						cell.Recovered++
					case ClusterDegraded:
						cell.Degraded++
					case ClusterTypedError:
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
		}
	}
	return rep, nil
}

// RunClusterCase executes one case end to end: build the cluster, arm
// the seeded failure (job and block boundary derived from the seed),
// run, and audit the shared pool. It never panics.
func (c *ClusterCampaign) RunClusterCase(cs ClusterCase) (res ClusterResult) {
	c.withDefaults()
	res = ClusterResult{Case: cs, Coverage: 1}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = ClusterPanicked
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	// Failure time from the seed: which job dies, and after how many of
	// its blocks. The boundary stays strictly mid-launch.
	res.FailJob = int(splitmix(cs.Seed^0xfa11) % uint64(c.Jobs))
	midMax := c.BlocksPerJob - 1
	if midMax < 1 {
		midMax = 1
	}
	res.AfterBlocks = 1 + int(splitmix(cs.Seed^0xb10c)%uint64(midMax))

	cfg := cluster.Config{
		Devices:      cs.Devices,
		Jobs:         c.Jobs,
		BlocksPerJob: c.BlocksPerJob,
		BlockThreads: c.BlockThreads,
		Router:       cs.Router,
		Seed:         cs.Seed,
		Mem:          c.Opt.Mem,
		Dev:          c.Opt.Dev,
		LP:           c.Opt.LP,
		MaxRounds:    c.Opt.MaxRounds,
		MinAlive:     c.MinAlive,
		MaxFailovers: c.MaxFailovers,
		Failures: []cluster.FailurePlan{{
			Job:         res.FailJob,
			Kind:        cs.Kind,
			AfterBlocks: res.AfterBlocks,
		}},
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		res.Outcome = ClusterTypedError
		res.Err = err.Error()
		return res
	}
	rep, err := cl.Run()
	res.Failovers = rep.Failovers
	res.Rejoins = rep.Rejoins
	res.ReexecutedBlocks = rep.ReexecutedBlocks
	res.LostJobs = len(rep.LostJobs)
	res.Coverage = rep.Coverage
	res.BackoffCycles = rep.BackoffCycles
	res.MakespanCycles = rep.MakespanCycles

	var deg *cluster.DegradedClusterError
	switch {
	case err == nil:
		if verr := cl.Verify(); verr != nil {
			res.Outcome = ClusterMismatch
			res.Err = verr.Error()
			return res
		}
		res.Outcome = ClusterRecovered
	case errors.As(err, &deg):
		res.Err = err.Error()
		if verr := cl.Verify(); verr != nil {
			res.Outcome = ClusterMismatch
			res.Err = verr.Error()
			return res
		}
		res.Outcome = ClusterDegraded
	case core.IsTypedRecoveryError(err):
		res.Outcome = ClusterTypedError
		res.Err = err.Error()
	default:
		res.Outcome = ClusterMismatch
		res.Err = err.Error()
	}
	return res
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
