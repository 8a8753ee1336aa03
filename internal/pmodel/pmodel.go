// Package pmodel defines the PersistencyModel contract: one interface
// behind which every persistency design the repo simulates — Lazy
// Persistency's checksums (internal/core), Eager Persistency's redo
// log, scoped buffered release persistency (SBRP), and strict
// persistency — presents the same faces:
//
//   - an instrumented kernel: the workload's body with the model's
//     persist-ordering machinery (store hooks, line flushes, persist
//     barriers, block-boundary commits) wrapped around it;
//   - a durable-state contract: PredictDamage inspects a raw durable
//     image (memsim.NVMImage or the crash-consistency oracle's shadow)
//     and names the thread blocks recovery must find damaged. The flag
//     models read them from their durable flags alone; lp refolds its
//     checksums with a recompute launch on the bound device, whose loads
//     leave the durable state untouched and whose cache lines it drops,
//     so a following Recover costs the same. faultsim's case runner,
//     under every campaign and persistcheck kernel scenario, holds each
//     model to exactly this prediction;
//   - recovery: Recover repairs the durable state after a crash and
//     reports what it repaired, in the same blocks PredictDamage names;
//     RecoverShard repairs one shard of the grid after a cluster
//     failover imported a lost device's durable bytes, and ShardIntact
//     judges from a replica's raw image whether a shard is durably
//     complete there;
//   - epochs: BeginEpoch starts the next persistency epoch once the
//     previous one is durable.
//
// EP, SBRP and strict are one flag-commit family (flag.go): each ends a
// block with the same two-fence commit of a durable per-block flag and
// recovers by re-executing the unflagged blocks; they differ only in
// what their store hook makes durable before the commit.
//
// Models register themselves in a name registry (see registry.go), so
// the harness, fault campaigns, the model checker, the cluster and the
// CLI tools sweep "every registered model" instead of hard-coding the
// LP-vs-EP duality.
package pmodel

import (
	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// Workload is the slice of a benchmark a persistency model binds to.
// kernels.Workload satisfies it structurally; pmodel deliberately does
// not import the kernels package so faultsim and the harness can layer
// on top without cycles.
type Workload interface {
	// Name returns the benchmark's short name.
	Name() string
	// Geometry returns the launch dimensions.
	Geometry() (grid, block gpusim.Dim3)
	// Kernel returns the kernel body; nil runs it bare, an LP runtime
	// adds the paper's inline checksum instrumentation.
	Kernel(lp *core.LP) gpusim.KernelFunc
	// Recompute returns the LP crash-validation refold.
	Recompute() core.RecomputeFunc
	// Outputs lists the persistent output regions the model protects.
	Outputs() []memsim.Region
}

// Report is the uniform recovery summary every model returns.
type Report struct {
	// Damaged lists, in ascending order, the thread blocks recovery found
	// damaged: lp's are the member blocks of every checksum region its
	// first validation failed, the flag models' the unflagged blocks. A
	// model's PredictDamage must name exactly this set from the durable
	// image alone; faultsim's case runner enforces the equality.
	Damaged []int `json:"damaged,omitempty"`
	// Replayed counts redo-log records applied (EP only).
	Replayed int `json:"replayed,omitempty"`
	// Rounds counts lp's validations (core.RecoveryReport.Rounds); the
	// flag models have no rounds.
	Rounds int `json:"rounds,omitempty"`
	// Tier names the mechanism recovery used: lp's escalation tier
	// ("selective", "full-grid", "checkpoint"), "replay+reexec" for ep,
	// and the model's own name for sbrp and strict.
	Tier string `json:"tier"`
	// Cycles is the simulated recovery cost (validation + repair).
	Cycles int64 `json:"cycles"`
}

// Model is one persistency model bound to a device and one workload
// geometry. Construction (Spec.New) happens after Workload.Setup and
// allocates the model's durable metadata — checksum store, redo log, or
// release flags — on the device.
type Model interface {
	// Name returns the registry name ("lp", "ep", "sbrp", "strict").
	Name() string
	// Kernel returns the instrumented kernel: the workload body with
	// the model's persist-ordering hooks around stores, fences, and the
	// kernel boundary. Launch it with the workload's geometry.
	Kernel() gpusim.KernelFunc
	// MetadataBytes is the durable metadata footprint (the model's
	// space overhead).
	MetadataBytes() int64
	// MetadataRegions lists the metadata regions (fault-injection and
	// oracle targets, and what cluster failover harvests), in a fixed
	// order.
	MetadataRegions() []memsim.Region
	// PredictDamage reads a raw durable image and returns, in ascending
	// order, the thread blocks the model's own recovery must repair —
	// the durable-state contract. It never writes durable state. lp's
	// prediction runs its recompute kernel on the bound device, so it
	// needs a hierarchy with no dirty line, as after a crash; it drops
	// the lines that kernel loaded, leaving a following Recover's cost
	// unchanged.
	PredictDamage(img []byte) []int
	// Recover repairs durable state after a crash and reports the damage
	// it found, in PredictDamage's blocks. On success the workload's
	// outputs (after any finalizer and a flush) must equal a fault-free
	// run's; unrecoverable damage surfaces as a typed error
	// (core.IsTypedRecoveryError).
	Recover() (Report, error)
	// BeginEpoch starts epoch n, once every earlier epoch's data is
	// durable: lp salts its checksums with n, and the flag models
	// truncate their durable metadata.
	BeginEpoch(n uint64)
	// RecoverShard repairs the listed blocks only — the shard a cluster
	// survivor imported from a lost device's durable bytes; blocks is a
	// non-empty list of linear block indices within the grid. backoff
	// is the exponential backoff base lp charges between its repair
	// rounds. An interrupted repair, or damage left after lp's round
	// budget, is a typed error wrapping core.ErrUnrecoverable.
	RecoverShard(blocks []int, backoff int64) (ShardReport, error)
	// ShardIntact reports, from a raw durable image alone, whether every
	// listed block (a non-empty shard, as for RecoverShard) is durably
	// complete in it. fold replays a block's durable data; lp refolds
	// its checksums with it, and the flag models ignore it.
	ShardIntact(img []byte, blocks []int, fold BlockFolder) bool
}

// ShardReport is what one RecoverShard call spent.
type ShardReport struct {
	// Cycles is the simulated validation and re-execution cost.
	Cycles int64
	// BackoffCycles is the simulated time lp spent in backoff between
	// repair rounds.
	BackoffCycles int64
	// Reexecuted counts the blocks the first repair re-executed.
	Reexecuted int
}

// BlockFolder replays one block's durable data from a raw NVM image,
// feeding every stored bit pattern to emit in the kernel's deterministic
// thread order. The workload owner supplies one so lp can refold a
// replica's checksums host-side.
type BlockFolder func(img []byte, block int, emit func(bits uint32))

// Options carries per-model tuning. The zero value works for every
// model.
type Options struct {
	// LP is the Lazy Persistency design point (nil = core.DefaultConfig).
	LP *core.Config
	// MaxRounds bounds LP's repair rounds, in Recover's escalation and
	// in RecoverShard (<=0 = 3).
	MaxRounds int
	// Checkpoint captures a durable checkpoint at bind time, arming
	// LP's tier-3 restore.
	Checkpoint bool
	// EPEntries is EP's per-block redo-log capacity (<=0 = 4 entries
	// per thread, enough for every Table I kernel).
	EPEntries int
	// SBRPBuffer is SBRP's per-scope persist-buffer capacity in cache
	// lines (<=0 = 8, the bounded hardware buffer the model posits).
	SBRPBuffer int
}

func (o Options) lpConfig() core.Config {
	if o.LP != nil {
		return *o.LP
	}
	return core.DefaultConfig()
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 3
	}
	return o.MaxRounds
}
