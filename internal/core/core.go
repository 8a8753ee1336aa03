// Package core implements the paper's primary contribution: the Lazy
// Persistency (LP) runtime for GPUs (IISWC 2020, "Scalable and Fast Lazy
// Persistency on GPUs").
//
// An LP region is a thread block (§IV-A): thread blocks are naturally
// associative (the hardware guarantees no execution order between them),
// large enough to amortize checksum cost, and able to reduce their
// checksums cooperatively through shared memory and warp shuffles. During
// normal execution every persistent store is folded into a per-thread
// checksum; at block end the per-thread checksums are reduced to one pair
// per block (modular + parity) and inserted into a checksum store in
// global — and therefore NVM-backed — memory. Nothing is ever flushed:
// both the data and the checksums persist through natural cache eviction.
//
// After a crash, a validation kernel with the original grid geometry
// recomputes each block's checksums from the durable data and compares
// them with the durably stored ones; blocks that fail (because a data
// store or the checksum store itself never persisted) are re-executed.
//
// The runtime exposes every design-space axis the paper characterizes:
// checksum kind (§IV-B), checksum store organization and locking (§IV-C),
// and sequential vs. shuffle-based parallel reduction (§IV-D.5), plus the
// paper's final design — the hash-table-less global array (§V).
package core

import (
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/memsim"
)

// Reduction selects how per-thread checksums combine into the block
// checksum.
type Reduction int

const (
	// ReduceShuffle uses warp-level shuffle-down reduction followed by a
	// shared-memory staged final reduction by warp 0 (Listings 3–4).
	ReduceShuffle Reduction = iota
	// ReduceSequential stages per-thread checksums through global
	// memory and folds them sequentially on one thread — the paper's
	// "no parallel reduction" baseline, which adds memory traffic and a
	// long divergent tail (§IV-D.5).
	ReduceSequential
)

// String implements fmt.Stringer.
func (r Reduction) String() string {
	switch r {
	case ReduceShuffle:
		return "shuffle"
	case ReduceSequential:
		return "sequential"
	}
	return fmt.Sprintf("Reduction(%d)", int(r))
}

// Config selects a point in the LP design space.
type Config struct {
	// Checksum is the checksum scheme (default Dual, the paper's
	// recommendation).
	Checksum checksum.Kind
	// Store is the checksum store organization.
	Store hashtab.Kind
	// LockMode is the insertion synchronization discipline.
	LockMode hashtab.LockMode
	// Reduction is the per-block reduction strategy.
	Reduction Reduction
	// PerfectSlot forces collision-free first probes (§IV-D.2).
	PerfectSlot bool
	// Seed perturbs the store's hash functions.
	Seed uint64
	// Fusion enlarges LP regions by grouping this many consecutive
	// thread blocks into one region sharing one checksum entry (§IV-A:
	// regions "can be enlarged if needed, e.g. through thread block
	// fusion"). Values <= 1 keep the paper's default of one region per
	// block. Fusion requires the GlobalArray store (partial checksums
	// are merged into the shared entry with atomics); it shrinks the
	// checksum table by the fusion factor at the cost of re-executing
	// the whole group when any member block's persistence fails.
	Fusion int
}

// fusion returns the effective fusion factor.
func (c Config) fusion() int {
	if c.Fusion < 1 {
		return 1
	}
	return c.Fusion
}

// DefaultConfig returns the paper's final design: global array store,
// lock-free, shuffle reduction, dual checksums — the configuration that
// achieves the headline 2.1% geometric-mean overhead (Table V).
func DefaultConfig() Config {
	return Config{
		Checksum:  checksum.Dual,
		Store:     hashtab.GlobalArray,
		LockMode:  hashtab.LockFree,
		Reduction: ReduceShuffle,
	}
}

// LP is a Lazy Persistency runtime bound to one device and one kernel
// geometry (one checksum slot per LP region; a region is one thread
// block, or Fusion consecutive blocks).
type LP struct {
	dev  *gpusim.Device
	cfg  Config
	st   hashtab.Store
	grid gpusim.Dim3
	blk  gpusim.Dim3

	fusion  int
	regions int
	epoch   uint64

	scratch      memsim.Region // staging for sequential reduction
	scratchSlots int
}

// New creates an LP runtime for kernels launched with the given grid and
// block dimensions on dev. It allocates the checksum store (and, for
// sequential reduction, the staging scratch) in device global memory.
func New(dev *gpusim.Device, cfg Config, grid, blk gpusim.Dim3) *LP {
	if grid.Size() <= 0 || blk.Size() <= 0 {
		panic(fmt.Sprintf("core: empty geometry grid=%v block=%v", grid, blk))
	}
	fusion := cfg.fusion()
	if fusion > 1 && cfg.Store != hashtab.GlobalArray {
		panic("core: region fusion requires the GlobalArray checksum store")
	}
	if cfg.Checksum == checksum.Adler32 {
		// §IV-B: Adler-32 is order-sensitive, so thousands of threads
		// cannot reduce it in parallel — the paper rejects it for GPUs.
		panic("core: Adler-32 is order-sensitive and cannot be reduced across GPU threads; use Parity, Modular or Dual")
	}
	regions := (grid.Size() + fusion - 1) / fusion
	lp := &LP{
		dev:     dev,
		cfg:     cfg,
		grid:    grid,
		blk:     blk,
		fusion:  fusion,
		regions: regions,
		st: hashtab.New(dev, "lp.checksums", hashtab.Config{
			Kind:        cfg.Store,
			LockMode:    cfg.LockMode,
			NumKeys:     regions,
			PerfectSlot: cfg.PerfectSlot,
			Seed:        cfg.Seed,
			MergeCount:  fusion > 1,
		}),
	}
	if cfg.Reduction == ReduceSequential {
		lp.scratchSlots = grid.Size()
		if lp.scratchSlots > 2048 {
			lp.scratchSlots = 2048
		}
		lp.scratch = dev.Alloc("lp.scratch", lp.scratchSlots*blk.Size()*16)
	}
	return lp
}

// Config returns the runtime's design-space configuration.
func (lp *LP) Config() Config { return lp.cfg }

// Store returns the checksum store (for statistics inspection).
func (lp *LP) Store() hashtab.Store { return lp.st }

// Grid and Block return the geometry the runtime was built for.
func (lp *LP) Grid() gpusim.Dim3  { return lp.grid }
func (lp *LP) Block() gpusim.Dim3 { return lp.blk }

// Regions returns the number of LP regions (grid blocks / fusion).
func (lp *LP) Regions() int { return lp.regions }

// groupSize returns the number of blocks in region reg (the tail region
// can be smaller than the fusion factor).
func (lp *LP) groupSize(reg int) int {
	lo := reg * lp.fusion
	hi := lo + lp.fusion
	if hi > lp.grid.Size() {
		hi = lp.grid.Size()
	}
	return hi - lo
}

// Fusion returns the effective fusion factor.
func (lp *LP) Fusion() int { return lp.fusion }

// TableBytes returns the checksum store footprint (Table V space
// overhead numerator).
func (lp *LP) TableBytes() int64 { return lp.st.TableBytes() }

// SetEpoch tags subsequent commits and validations with an epoch (e.g.
// the iteration number of a long-running application that relaunches the
// same kernel). The epoch is folded into every region checksum as a
// per-block salt, so a checksum-table entry left over from a previous
// launch can never validate this launch's regions — even when both the
// stale entry and the stale data describe identical values (an all-zero
// region is the classic case). Set it before each launch and keep it for
// that launch's validation/recovery.
func (lp *LP) SetEpoch(epoch uint64) { lp.epoch = epoch }

// Epoch returns the current epoch tag.
func (lp *LP) Epoch() uint64 { return lp.epoch }

// Checkpoint flushes the whole cache, making everything stored so far
// durable. This is the periodic whole-cache flush of §IV-A that bounds
// how far back validation must look after a crash.
func (lp *LP) Checkpoint() int { return lp.dev.Mem().FlushAll() }
