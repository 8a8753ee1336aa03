package core

import (
	"fmt"
	"sort"

	"gpulp/internal/gpusim"
)

// Shard recovery: validation and re-execution restricted to a subset of
// the grid's blocks. A multi-device cluster shards one logical grid
// across devices; when a device is lost mid-launch, a survivor imports
// the dead device's durable bytes (data slice + checksum table) and
// repairs only the in-flight shard's blocks — the cross-device selective
// re-execution the cluster failover protocol is built on. Both entry
// points are thin contracts on the shared engine in recover.go: the
// validation body and the round loop take the subset, and the full-grid
// Validate/ValidateAndRecover run them over the whole grid.

// normalizeBlocks sorts and dedupes a block subset, panicking (like
// LaunchSelected) on indices outside the grid.
func (lp *LP) normalizeBlocks(blocks []int) []int {
	sel := make([]int, 0, len(blocks))
	sel = append(sel, blocks...)
	sort.Ints(sel)
	out := sel[:0]
	for i, b := range sel {
		if b < 0 || b >= lp.grid.Size() {
			panic(fmt.Sprintf("core: shard block %d out of grid %v", b, lp.grid))
		}
		if i > 0 && sel[i-1] == b {
			continue
		}
		out = append(out, b)
	}
	return out
}

// shardRegions returns the ascending region indices covered by the
// (sorted, deduped) block subset, and a typed error when fusion groups
// are only partially covered: a fused region's checksum is one merged
// entry, so validating or re-executing a strict subset of its member
// blocks cannot be made sound.
func (lp *LP) shardRegions(sel []int) ([]int, error) {
	var regs []int
	count := map[int]int{}
	for _, b := range sel {
		reg := b / lp.fusion
		if count[reg] == 0 {
			regs = append(regs, reg)
		}
		count[reg]++
	}
	if lp.fusion > 1 {
		for _, reg := range regs {
			if count[reg] != lp.groupSize(reg) {
				return nil, fmt.Errorf("core: shard covers %d of %d blocks of fused region %d: %w",
					count[reg], lp.groupSize(reg), reg, ErrStoreCorrupt)
			}
		}
	}
	return regs, nil
}

// ShardRecoverOpts configures RecoverBlocks.
type ShardRecoverOpts struct {
	// MaxRounds bounds the validate→re-execute loop (default 3).
	MaxRounds int
	// BackoffBase, when positive, charges BackoffBase << (round-1)
	// simulated cycles of deterministic exponential backoff before each
	// retry round (the first repair round is free). The cost accumulates
	// in RecoveryReport.BackoffCycles.
	BackoffBase int64
}

// RecoverBlocks is selective recovery restricted to a block subset: it
// validates the subset, re-executes the failed blocks with the original
// kernel, flushes the repairs durable, and repeats — with deterministic
// exponential backoff between rounds — until the subset validates clean
// or MaxRounds is exhausted (a typed error wrapping ErrUnrecoverable).
// Any launch interrupted mid-recovery (a CrashAfter crash or the watchdog)
// also surfaces as a typed ErrUnrecoverable error, so a cluster failover
// path can fail over again to the next surviving device.
func (lp *LP) RecoverBlocks(kernel gpusim.KernelFunc, recompute RecomputeFunc, blocks []int, opts ShardRecoverOpts) (RecoveryReport, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 3
	}
	rep := RecoveryReport{Tier: TierSelective}
	clean, err := lp.rounds(kernel, recompute, lp.normalizeBlocks(blocks), maxRounds, opts.BackoffBase, &rep)
	if err == nil && !clean {
		err = fmt.Errorf("core: %d shard blocks still invalid after %d recovery rounds: %w",
			rep.lastFailed(), maxRounds, ErrUnrecoverable)
	}
	return rep, err
}
