// Replica campaign: the replicated-placement counterpart of the cluster
// campaign. Every case builds a fresh fixed-size cluster with R durable
// copies per shard, kills one device mid-launch at a seeded job and
// block boundary, and audits the failover path against the replication
// contract: with R >= 2 every single-device failure must be absorbed by
// adopting a consistent surviving replica — zero failover re-execution
// — while R = 1 must take the legacy re-execute path and never claim an
// adoption. Either way the shared durable pool must come out bit-exact.
// The sweep covers replication factor × failure kind × placer × model;
// every case is seeded from its sweep position, so the report is
// bit-identical at any Parallel width.
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

// ReplicaCase identifies one reproducible replicated-failover run. The
// failure time (job index and block boundary) derives from Seed.
type ReplicaCase struct {
	Replicas int                 `json:"replicas"`
	Kind     cluster.FailureKind `json:"kind"`
	Placer   cluster.PlacerKind  `json:"placer"`
	Model    string              `json:"model"`
	Seed     uint64              `json:"seed"`
}

// String implements fmt.Stringer.
func (c ReplicaCase) String() string {
	return fmt.Sprintf("r=%d/%s/%s/%s seed=%#x", c.Replicas, c.Kind, c.Placer, c.Model, c.Seed)
}

// ReplicaOutcome classifies one replica case.
type ReplicaOutcome int

const (
	// ReplicaAdopted: the failure was absorbed by adopting a surviving
	// replica — zero re-execution — and the pool is bit-exact. The
	// required outcome for every R >= 2 case.
	ReplicaAdopted ReplicaOutcome = iota
	// ReplicaRecovered: the legacy re-execute failover recovered the
	// job (the required shape for R = 1) and the pool is bit-exact.
	ReplicaRecovered
	// ReplicaDegraded: jobs were lost but the run returned the typed
	// DegradedClusterError and every completed shard is bit-exact
	// (honest only at R = 1; replicated cases must not degrade on a
	// single failure).
	ReplicaDegraded
	// ReplicaTypedError: the run surfaced another typed recovery error.
	ReplicaTypedError
	// ReplicaContract: the run claimed success but broke the
	// replication contract — an R >= 2 case that re-executed or
	// degraded instead of adopting, or an R = 1 case that adopted.
	ReplicaContract
	// ReplicaMismatch: the run claimed success but a completed shard's
	// durable bytes diverge — silent corruption.
	ReplicaMismatch
	// ReplicaPanicked: the runtime panicked.
	ReplicaPanicked
)

// String implements fmt.Stringer.
func (o ReplicaOutcome) String() string {
	switch o {
	case ReplicaAdopted:
		return "adopted"
	case ReplicaRecovered:
		return "recovered"
	case ReplicaDegraded:
		return "degraded"
	case ReplicaTypedError:
		return "typed-error"
	case ReplicaContract:
		return "CONTRACT"
	case ReplicaMismatch:
		return "MISMATCH"
	case ReplicaPanicked:
		return "PANIC"
	}
	return fmt.Sprintf("ReplicaOutcome(%d)", int(o))
}

// MarshalJSON writes the readable String form.
func (o ReplicaOutcome) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", o.String())), nil
}

// Failed reports whether the outcome violates the campaign contract.
func (o ReplicaOutcome) Failed() bool {
	return o == ReplicaContract || o == ReplicaMismatch || o == ReplicaPanicked
}

// ReplicaResult reports one executed case.
type ReplicaResult struct {
	Case    ReplicaCase    `json:"case"`
	Outcome ReplicaOutcome `json:"outcome"`
	// FailJob and AfterBlocks are the seed-derived failure time.
	FailJob     int `json:"fail_job"`
	AfterBlocks int `json:"after_blocks"`
	// Adopted, Failovers and ReexecutedBlocks classify how the failure
	// was absorbed; ReplicaLaunches and NVMLineWrites measure what the
	// redundancy cost.
	Adopted          int     `json:"adopted"`
	Failovers        int     `json:"failovers"`
	ReexecutedBlocks int     `json:"reexecuted_blocks"`
	ReplicaLaunches  int     `json:"replica_launches"`
	NVMLineWrites    int64   `json:"nvm_line_writes"`
	Coverage         float64 `json:"coverage"`
	MakespanCycles   int64   `json:"makespan_cycles"`
	// Err carries the error or panic text for non-clean outcomes.
	Err string `json:"err,omitempty"`
}

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
	Failures []ReplicaResult `json:"failures,omitempty"`
}

// Failed reports whether any case violated the campaign contract.
func (r *ReplicaReport) Failed() bool { return len(r.Failures) > 0 }

// ReplicaCampaign sweeps replication factor × failure kind × placer ×
// persistency model over a fixed-size cluster.
type ReplicaCampaign struct {
	Opt Options
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
	// Jobs, BlocksPerJob and BlockThreads fix the workload
	// (default 8 × 4 × 32).
	Jobs, BlocksPerJob, BlockThreads int
	// MinAlive is the cluster quorum (default 1).
	MinAlive int
	// MaxFailovers bounds failover attempts per lost job (default 3).
	MaxFailovers int
	// Parallel is the number of host goroutines running cases
	// concurrently; the report is identical at any value.
	Parallel int
	// Progress, when non-nil, observes each completed case (completion
	// order is scheduling-dependent; the report is not).
	Progress func(done, total int, r ReplicaResult)
}

// DefaultReplicaCampaign returns the standard replicated-failover
// sweep: a 4-device cluster, R in {1, 2}, every failure kind, every
// placer, the LP and SBRP models.
func DefaultReplicaCampaign(seeds int) *ReplicaCampaign {
	if seeds <= 0 {
		seeds = 3
	}
	return &ReplicaCampaign{
		Opt:      DefaultOptions(),
		Seeds:    seeds,
		BaseSeed: 0x5e71_1ca5,
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
func (c *ReplicaCampaign) Run() (*ReplicaReport, error) {
	c.withDefaults()
	for _, r := range c.RFactors {
		if r < 1 || r > c.Devices {
			return nil, fmt.Errorf("faultsim: swept replication factor %d must be in [1, %d]", r, c.Devices)
		}
	}

	var specs []ReplicaCase
	for ri, r := range c.RFactors {
		for ki, k := range c.Kinds {
			for pi, p := range c.Placers {
				for mi, m := range c.Models {
					for si := 0; si < c.Seeds; si++ {
						pos := uint64(ri)<<48 | uint64(ki)<<36 | uint64(pi)<<24 | uint64(mi)<<12 | uint64(si)
						specs = append(specs, ReplicaCase{
							Replicas: r, Kind: k, Placer: p, Model: m,
							Seed: splitmix(c.BaseSeed ^ splitmix(pos)),
						})
					}
				}
			}
		}
	}

	results := make([]ReplicaResult, len(specs))
	var progressMu sync.Mutex
	done := 0
	parwork.Do(len(specs), c.Parallel, func(i int) {
		res := c.RunReplicaCase(specs[i])
		results[i] = res
		if c.Progress != nil {
			progressMu.Lock()
			done++
			c.Progress(done, len(specs), res)
			progressMu.Unlock()
		}
	})

	rep := &ReplicaReport{Total: len(specs)}
	i := 0
	for _, r := range c.RFactors {
		for _, k := range c.Kinds {
			for _, p := range c.Placers {
				for _, m := range c.Models {
					cell := ReplicaCell{Replicas: r, Kind: k, Placer: p, Model: m}
					var reexec, nvm, makespan int64
					var coverage float64
					for si := 0; si < c.Seeds; si++ {
						res := results[i]
						i++
						cell.Cases++
						reexec += int64(res.ReexecutedBlocks)
						nvm += res.NVMLineWrites
						makespan += res.MakespanCycles
						coverage += res.Coverage
						if !res.Outcome.Failed() && res.ReexecutedBlocks == 0 {
							rep.RecoveredWithoutReexec++
						}
						switch res.Outcome {
						case ReplicaAdopted:
							cell.Adopted++
						case ReplicaRecovered:
							cell.Recovered++
						case ReplicaDegraded:
							cell.Degraded++
						case ReplicaTypedError:
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
			}
		}
	}
	return rep, nil
}

// RunReplicaCase executes one case end to end: build the replicated
// cluster, arm the seeded failure, run, audit the shared pool, and
// check the replication contract. It never panics.
func (c *ReplicaCampaign) RunReplicaCase(cs ReplicaCase) (res ReplicaResult) {
	c.withDefaults()
	res = ReplicaResult{Case: cs, Coverage: 1}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = ReplicaPanicked
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	res.FailJob = int(splitmix(cs.Seed^0xfa11) % uint64(c.Jobs))
	midMax := c.BlocksPerJob - 1
	if midMax < 1 {
		midMax = 1
	}
	res.AfterBlocks = 1 + int(splitmix(cs.Seed^0xb10c)%uint64(midMax))

	cfg := cluster.Config{
		Devices:      c.Devices,
		Jobs:         c.Jobs,
		BlocksPerJob: c.BlocksPerJob,
		BlockThreads: c.BlockThreads,
		Replicas:     cs.Replicas,
		Placer:       cs.Placer,
		Model:        cs.Model,
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
		res.Outcome = ReplicaTypedError
		res.Err = err.Error()
		return res
	}
	rep, err := cl.Run()
	res.Adopted = rep.Adopted
	res.Failovers = rep.Failovers
	res.ReexecutedBlocks = rep.ReexecutedBlocks
	res.ReplicaLaunches = rep.ReplicaLaunches
	res.NVMLineWrites = rep.NVMLineWrites
	res.Coverage = rep.Coverage
	res.MakespanCycles = rep.MakespanCycles

	var deg *cluster.DegradedClusterError
	switch {
	case err == nil:
		if verr := cl.Verify(); verr != nil {
			res.Outcome = ReplicaMismatch
			res.Err = verr.Error()
			return res
		}
		switch {
		case cs.Replicas > 1 && (rep.Adopted < 1 || rep.ReexecutedBlocks > 0):
			res.Outcome = ReplicaContract
			res.Err = fmt.Sprintf("replicated case adopted=%d reexec=%d: failure must be absorbed by replica adoption",
				rep.Adopted, rep.ReexecutedBlocks)
		case cs.Replicas == 1 && rep.Adopted > 0:
			res.Outcome = ReplicaContract
			res.Err = fmt.Sprintf("unreplicated case claims %d adoptions", rep.Adopted)
		case cs.Replicas > 1:
			res.Outcome = ReplicaAdopted
		default:
			res.Outcome = ReplicaRecovered
		}
	case errors.As(err, &deg):
		res.Err = err.Error()
		if verr := cl.Verify(); verr != nil {
			res.Outcome = ReplicaMismatch
			res.Err = verr.Error()
			return res
		}
		if cs.Replicas > 1 {
			// A replicated single-device failure has a surviving copy
			// by construction; degrading instead of adopting breaks
			// the availability contract.
			res.Outcome = ReplicaContract
			return res
		}
		res.Outcome = ReplicaDegraded
	case core.IsTypedRecoveryError(err):
		res.Outcome = ReplicaTypedError
		res.Err = err.Error()
	default:
		res.Outcome = ReplicaMismatch
		res.Err = err.Error()
	}
	return res
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
