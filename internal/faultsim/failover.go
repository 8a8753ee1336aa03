// Failover cases: the one engine behind the cluster and replica
// campaigns. Every case builds a fresh simulated cluster, kills one
// device mid-launch at a seeded job and block boundary, and audits the
// shared durable pool and the replication contract. The cluster
// campaign is this engine at R = 1 across device counts and routers; the
// replica campaign is it at a fixed device count across replication
// factors, placers and models.
package faultsim

import (
	"errors"
	"fmt"

	"gpulp/internal/cluster"
	"gpulp/internal/core"
)

// FailoverCase identifies one reproducible device-failure run. The
// failure time (job index and block boundary) derives from Seed. A zero
// Replicas, Router, Placer or Model takes the cluster default (1,
// round-robin, spread, lp).
type FailoverCase struct {
	Devices  int                 `json:"devices"`
	Replicas int                 `json:"replicas"`
	Kind     cluster.FailureKind `json:"kind"`
	Router   cluster.RouterKind  `json:"router"`
	Placer   cluster.PlacerKind  `json:"placer"`
	Model    string              `json:"model"`
	Seed     uint64              `json:"seed"`
}

// String implements fmt.Stringer.
func (c FailoverCase) String() string {
	return fmt.Sprintf("devices=%d r=%d/%s/%s/%s/%s seed=%#x",
		c.Devices, c.Replicas, c.Kind, c.Router, c.Placer, c.Model, c.Seed)
}

// FailoverOutcome classifies one failover case.
type FailoverOutcome int

const (
	// FailoverAdopted: the failure was absorbed by adopting a surviving
	// replica — zero re-execution — and the pool is bit-exact. The
	// required outcome for every R >= 2 case.
	FailoverAdopted FailoverOutcome = iota
	// FailoverRecovered: every job completed (the killed device's shard
	// was re-executed on a survivor) and the pool is bit-exact. The
	// required shape for R = 1.
	FailoverRecovered
	// FailoverDegraded: jobs were lost but the run returned the typed
	// DegradedClusterError and every completed shard is bit-exact
	// (honest only at R = 1; replicated cases must not degrade on a
	// single failure).
	FailoverDegraded
	// FailoverTypedError: the run surfaced another typed recovery error.
	FailoverTypedError
	// FailoverContract: the run claimed success but broke the
	// replication contract — an R >= 2 case that re-executed or
	// degraded instead of adopting, or an R = 1 case that adopted.
	FailoverContract
	// FailoverMismatch: the run claimed success but a completed shard's
	// durable bytes diverge — silent corruption.
	FailoverMismatch
	// FailoverPanicked: the runtime panicked.
	FailoverPanicked
)

// String implements fmt.Stringer.
func (o FailoverOutcome) String() string {
	switch o {
	case FailoverAdopted:
		return "adopted"
	case FailoverRecovered:
		return "recovered"
	case FailoverDegraded:
		return "degraded"
	case FailoverTypedError:
		return "typed-error"
	case FailoverContract:
		return "CONTRACT"
	case FailoverMismatch:
		return "MISMATCH"
	case FailoverPanicked:
		return "PANIC"
	}
	return fmt.Sprintf("FailoverOutcome(%d)", int(o))
}

// MarshalJSON writes the readable String form.
func (o FailoverOutcome) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", o.String())), nil
}

// Failed reports whether the outcome violates the campaign contract:
// recover bit-exactly in the shape the replication factor demands,
// degrade honestly with the typed error, or report another typed error —
// never lie, never panic.
func (o FailoverOutcome) Failed() bool {
	return o == FailoverContract || o == FailoverMismatch || o == FailoverPanicked
}

// FailoverResult reports one executed case.
type FailoverResult struct {
	Case    FailoverCase    `json:"case"`
	Outcome FailoverOutcome `json:"outcome"`
	// FailJob and AfterBlocks are the seed-derived failure time.
	FailJob     int `json:"fail_job"`
	AfterBlocks int `json:"after_blocks"`
	// The rest summarize the run's cluster.Report: how the failure was
	// absorbed (Adopted, Failovers, Rejoins, ReexecutedBlocks, LostJobs,
	// Coverage) and what it and the redundancy cost (ReplicaLaunches,
	// NVMLineWrites, BackoffCycles, MakespanCycles).
	Adopted          int     `json:"adopted"`
	Failovers        int     `json:"failovers"`
	Rejoins          int     `json:"rejoins"`
	ReexecutedBlocks int     `json:"reexecuted_blocks"`
	LostJobs         int     `json:"lost_jobs"`
	Coverage         float64 `json:"coverage"`
	ReplicaLaunches  int     `json:"replica_launches"`
	NVMLineWrites    int64   `json:"nvm_line_writes"`
	BackoffCycles    int64   `json:"backoff_cycles"`
	MakespanCycles   int64   `json:"makespan_cycles"`
	// Err carries the error or panic text for non-clean outcomes.
	Err string `json:"err,omitempty"`
}

// FailoverWorkload is the platform, sharded fill workload and failover
// budget every failover case runs with; both failover campaigns embed
// it.
type FailoverWorkload struct {
	Opt Options
	// Jobs, BlocksPerJob and BlockThreads fix the workload
	// (default 8 × 4 × 32).
	Jobs, BlocksPerJob, BlockThreads int
	// MinAlive is the cluster quorum (default 1, so a single loss is
	// always survivable at Devices >= 2).
	MinAlive int
	// MaxFailovers bounds failover attempts per lost job (default 3).
	MaxFailovers int
}

// withDefaults fills unset workload knobs.
func (w *FailoverWorkload) withDefaults() {
	if w.Jobs <= 0 {
		w.Jobs = 8
	}
	if w.BlocksPerJob <= 0 {
		w.BlocksPerJob = 4
	}
	if w.BlockThreads <= 0 {
		w.BlockThreads = 32
	}
	if w.MinAlive <= 0 {
		w.MinAlive = 1
	}
	if w.MaxFailovers <= 0 {
		w.MaxFailovers = 3
	}
	if w.Opt.Mem.LineSize == 0 {
		w.Opt = DefaultOptions()
	}
}

// RunFailoverCase executes one case end to end: build the cluster, arm
// the seeded failure, run, audit the shared pool, and check the
// replication contract. It never panics.
func (w FailoverWorkload) RunFailoverCase(cs FailoverCase) (res FailoverResult) {
	w.withDefaults()
	res = FailoverResult{Case: cs, Coverage: 1}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = FailoverPanicked
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	// Failure time from the seed: which job dies, and after how many of
	// its blocks. The boundary stays strictly mid-launch.
	res.FailJob = int(splitmix(cs.Seed^0xfa11) % uint64(w.Jobs))
	res.AfterBlocks = 1 + int(splitmix(cs.Seed^0xb10c)%uint64(max(w.BlocksPerJob-1, 1)))

	cl, err := cluster.New(cluster.Config{
		Devices:      cs.Devices,
		Jobs:         w.Jobs,
		BlocksPerJob: w.BlocksPerJob,
		BlockThreads: w.BlockThreads,
		Router:       cs.Router,
		Replicas:     cs.Replicas,
		Placer:       cs.Placer,
		Model:        cs.Model,
		Seed:         cs.Seed,
		Mem:          w.Opt.Mem,
		Dev:          w.Opt.Dev,
		LP:           w.Opt.LP,
		MaxRounds:    w.Opt.MaxRounds,
		MinAlive:     w.MinAlive,
		MaxFailovers: w.MaxFailovers,
		Failures: []cluster.FailurePlan{{
			Job:         res.FailJob,
			Kind:        cs.Kind,
			AfterBlocks: res.AfterBlocks,
		}},
	})
	if err != nil {
		res.Outcome = FailoverTypedError
		res.Err = err.Error()
		return res
	}
	rep, err := cl.Run()
	res.Adopted = rep.Adopted
	res.Failovers = rep.Failovers
	res.Rejoins = rep.Rejoins
	res.ReexecutedBlocks = rep.ReexecutedBlocks
	res.LostJobs = len(rep.LostJobs)
	res.Coverage = rep.Coverage
	res.ReplicaLaunches = rep.ReplicaLaunches
	res.NVMLineWrites = rep.NVMLineWrites
	res.BackoffCycles = rep.BackoffCycles
	res.MakespanCycles = rep.MakespanCycles

	var deg *cluster.DegradedClusterError
	if err != nil && !errors.As(err, &deg) {
		res.Outcome = FailoverMismatch
		if core.IsTypedRecoveryError(err) {
			res.Outcome = FailoverTypedError
		}
		res.Err = err.Error()
		return res
	}
	if err != nil {
		res.Err = err.Error()
	}
	// The run claims success, full or degraded: the pool must back it.
	if verr := cl.Verify(); verr != nil {
		res.Outcome = FailoverMismatch
		res.Err = verr.Error()
		return res
	}
	replicated := cs.Replicas > 1
	switch {
	case deg != nil && replicated:
		// A replicated single-device failure has a surviving copy by
		// construction; degrading instead of adopting breaks the
		// availability contract.
		res.Outcome = FailoverContract
	case deg != nil:
		res.Outcome = FailoverDegraded
	case replicated && (rep.Adopted < 1 || rep.ReexecutedBlocks > 0):
		res.Outcome = FailoverContract
		res.Err = fmt.Sprintf("replicated case adopted=%d reexec=%d: failure must be absorbed by replica adoption",
			rep.Adopted, rep.ReexecutedBlocks)
	case !replicated && rep.Adopted > 0:
		res.Outcome = FailoverContract
		res.Err = fmt.Sprintf("unreplicated case claims %d adoptions", rep.Adopted)
	case replicated:
		res.Outcome = FailoverAdopted
	default:
		res.Outcome = FailoverRecovered
	}
	return res
}
