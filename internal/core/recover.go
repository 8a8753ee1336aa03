package core

import (
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
)

// RecomputeFunc recomputes a block's checksum contributions from the
// durable contents of memory: it must issue the same Region.Update calls
// (over re-loaded output data) that the block's original execution issued
// over its stores. Workloads provide one per kernel; the directive
// compiler in internal/directive generates the equivalent code from the
// program slice of the annotated store (§VI, Listing 7).
type RecomputeFunc func(b *gpusim.Block, r *Region)

// merger returns the checksum store's fused-region interface, or a typed
// error when the store cannot serve fused lookups (a misconfigured or
// corrupt store organization must surface as a recovery error, not a
// panic, so campaigns and production callers can react).
func (lp *LP) merger() (hashtab.Merger, error) {
	m, ok := lp.st.(hashtab.Merger)
	if !ok {
		return nil, fmt.Errorf("core: %v store cannot serve fused regions (fusion=%d): %w",
			lp.st.Kind(), lp.fusion, ErrStoreCorrupt)
	}
	return m, nil
}

// launch runs kernel over the listed linear block indices of grid, or
// over the whole grid when blocks is nil.
func (lp *LP) launch(name string, grid, blk gpusim.Dim3, kernel gpusim.KernelFunc, blocks []int) gpusim.LaunchResult {
	if blocks == nil {
		return lp.dev.Launch(name, grid, blk, kernel)
	}
	return lp.dev.LaunchSelected(name, grid, blk, kernel, blocks)
}

// recomputeRegions is phase 1 of validation over blocks (nil: the whole
// grid): every listed block rebuilds its checksum contributions from the
// durable data, and the partials combine per region (a host-visible
// mirror of what warp 0 of a gather kernel would compute; checksums are
// commutative). An unlisted block contributes the zero State, which
// merges as the identity.
func (lp *LP) recomputeRegions(name string, recompute RecomputeFunc, blocks []int) ([]checksum.State, gpusim.LaunchResult) {
	perBlock := make([]checksum.State, lp.grid.Size())
	res := lp.launch(name, lp.grid, lp.blk, func(b *gpusim.Block) {
		r := lp.Begin(b)
		recompute(b, r)
		perBlock[b.LinearIdx] = r.reduce()
	}, blocks)
	perRegion := make([]checksum.State, lp.regions)
	for i, st := range perBlock {
		perRegion[i/lp.fusion].Merge(st)
	}
	return perRegion, res
}

// holds is validation's verdict on region reg: its stored entry is
// present — for a fused region, merged from every member block, so count
// must equal the group size — and matches the recomputed checksums. An
// unfused entry counts 1 when present and 0 when absent.
func (lp *LP) holds(reg int, stored, recomputed checksum.State, count uint64) bool {
	want := uint64(1)
	if lp.fusion > 1 {
		want = uint64(lp.groupSize(reg))
	}
	return count == want && stored.Matches(recomputed, lp.cfg.Checksum)
}

// ValidateImage is Validate's verdict read from a raw durable image
// (memsim's NVMImage, or the crash-consistency oracle's shadow of it):
// the recompute launch rebuilds every region's checksums from durable
// data, and each region's stored entry is read from img instead of by a
// lookup launch. It returns the member blocks of every failed region, in
// ascending order, and errors only when the store cannot serve fused
// regions. The hierarchy must hold no dirty line, as after a crash: the
// launch's loads leave durable state untouched, and the lines they filled
// are dropped afterwards, so the cache is left as the crash left it and a
// following recovery costs exactly what it would have without the
// prediction.
func (lp *LP) ValidateImage(img []byte, recompute RecomputeFunc) ([]int, error) {
	mem := lp.dev.Mem()
	if n := mem.DirtyLines(); n > 0 {
		panic(fmt.Sprintf("core: ValidateImage over %d dirty lines would drop them", n))
	}
	var merger hashtab.Merger
	if lp.fusion > 1 {
		m, err := lp.merger()
		if err != nil {
			return nil, err
		}
		merger = m
	}
	perRegion, _ := lp.recomputeRegions("lp-validate", recompute, nil)
	mem.Crash()
	var failed []int
	for reg, sum := range perRegion {
		var stored checksum.State
		var count uint64
		if merger != nil {
			stored, count = merger.ImageLookupCount(img, uint64(reg))
		} else if s, ok := lp.st.ImageLookup(img, uint64(reg)); ok {
			stored, count = s, 1
		}
		if !lp.holds(reg, stored, sum, count) {
			failed = lp.appendRegion(failed, reg)
		}
	}
	return failed, nil
}

// Validate launches the check kernel (§IV-A): a grid of the original
// geometry in which each block recomputes its checksums from memory;
// the recomputed values are compared against the durably stored ones
// region by region (a region covers Fusion consecutive blocks). It
// returns the linear indices of every block belonging to a failed
// region, in ascending order, plus the combined launch timing. The error
// is non-nil (and typed) when the checksum store cannot be interrogated,
// and when a validation launch is interrupted (a gpusim CrashAfter crash
// or the watchdog): a partial recompute proves nothing about
// the blocks it never reached, so the verdict is withheld and the error
// wraps ErrUnrecoverable, with the cycles spent so far.
func (lp *LP) Validate(recompute RecomputeFunc) ([]int, gpusim.LaunchResult, error) {
	return lp.validate(recompute, nil)
}

// validate is the one validation body behind Validate and every
// recovery round. blocks nil validates the whole grid. Otherwise (the
// shard rounds of RecoverBlocks) only the listed blocks recompute and
// only their regions are looked up and compared; the subset is sorted
// and deduped, and must cover whole fusion groups.
func (lp *LP) validate(recompute RecomputeFunc, blocks []int) ([]int, gpusim.LaunchResult, error) {
	if recompute == nil {
		return nil, gpusim.LaunchResult{}, fmt.Errorf("core: nil recompute function: %w", ErrStoreCorrupt)
	}
	var regs []int
	scope, name, lookup, n := "", "lp-validate", "lp-validate-lookup", lp.grid.Size()
	if blocks != nil {
		blocks = lp.normalizeBlocks(blocks)
		if len(blocks) == 0 {
			return nil, gpusim.LaunchResult{}, nil
		}
		var err error
		if regs, err = lp.shardRegions(blocks); err != nil {
			return nil, gpusim.LaunchResult{}, err
		}
		scope, name, lookup, n = "shard ", "lp-shard-validate", "lp-shard-validate-lookup", len(blocks)
	}
	var merger hashtab.Merger
	if lp.fusion > 1 {
		m, err := lp.merger()
		if err != nil {
			return nil, gpusim.LaunchResult{}, err
		}
		merger = m
	}
	// Phase 1: the blocks recompute their (partial) checksums.
	perRegion, res := lp.recomputeRegions(name, recompute, blocks)
	if res.Interrupted {
		return nil, res, aborted(scope+"validation", res, n)
	}
	// Phase 2: look the stored checksums up and compare (see holds). The
	// lookup grid has one block per region, so a subset selects exactly
	// its covered regions. Each validating block owns exactly one region,
	// so outcomes are written to disjoint slots of failedMark — safe even
	// if the simulator ever executes blocks concurrently (a shared append
	// would race).
	failedMark := make([]bool, lp.regions)
	lres := lp.launch(lookup, gpusim.D1(lp.regions), gpusim.D1(32), func(b *gpusim.Block) {
		b.ForAll(func(t *gpusim.Thread) {
			if t.Linear != 0 {
				return
			}
			reg := b.LinearIdx
			var stored checksum.State
			var count uint64
			if merger != nil {
				stored, count = merger.LookupCount(t, uint64(reg))
			} else if s, ok := lp.st.Lookup(t, uint64(reg)); ok {
				stored, count = s, 1
			}
			failedMark[reg] = !lp.holds(reg, stored, perRegion[reg], count)
		})
	}, regs)
	res.Cycles += lres.Cycles
	if lres.Interrupted {
		return nil, res, fmt.Errorf("core: %slookup launch aborted: %w", scope, ErrUnrecoverable)
	}

	// Expand failed regions to their member blocks.
	var failed []int
	for reg, bad := range failedMark {
		if bad {
			failed = lp.appendRegion(failed, reg)
		}
	}
	return failed, res, nil
}

// appendRegion appends the linear indices of region reg's member blocks.
func (lp *LP) appendRegion(dst []int, reg int) []int {
	for blk := reg * lp.fusion; blk < reg*lp.fusion+lp.groupSize(reg); blk++ {
		dst = append(dst, blk)
	}
	return dst
}

// aborted is the typed error of a recovery launch that stopped before
// every block it was given retired.
func aborted(what string, res gpusim.LaunchResult, of int) error {
	return fmt.Errorf("core: %s launch aborted (%d/%d blocks): %w", what, res.Blocks, of, ErrUnrecoverable)
}

// repair is the one repair step of every recovery path. It re-executes
// blocks (ascending; nil: the whole grid) with the original kernel and
// flushes the repairs durable unless the launch was interrupted. Fused
// regions accumulate contributions, so a listed block's region entry is
// re-initialized before its blocks re-merge; a whole-grid repair expects
// the caller to have cleared the store. The error is non-nil only when
// the store cannot serve fused regions.
func (lp *LP) repair(name string, kernel gpusim.KernelFunc, blocks []int) (gpusim.LaunchResult, error) {
	if lp.fusion > 1 && blocks != nil {
		merger, err := lp.merger()
		if err != nil {
			return gpusim.LaunchResult{}, err
		}
		last := -1
		for _, blk := range blocks {
			if reg := blk / lp.fusion; reg != last {
				last = reg
				merger.HostResetEntry(uint64(reg))
			}
		}
	}
	res := lp.launch(name, lp.grid, lp.blk, kernel, blocks)
	if !res.Interrupted {
		lp.dev.Mem().FlushAll()
	}
	return res, nil
}

// RecoveryTier names the escalation level hardened recovery needed to
// reach a clean validation. Every recovery entry point starts its report
// at TierSelective.
type RecoveryTier string

const (
	// TierSelective re-executed only the failed LP regions (the paper's
	// recovery flow, §II-A).
	TierSelective RecoveryTier = "selective"
	// TierFullGrid cleared the checksum store and re-executed the whole
	// grid over the current durable data.
	TierFullGrid RecoveryTier = "full-grid"
	// TierCheckpoint restored a durable checkpoint image and re-executed
	// the whole grid from it.
	TierCheckpoint RecoveryTier = "checkpoint"
)

// RecoveryReport summarizes a recovery run.
type RecoveryReport struct {
	// Rounds is the number of validations performed: one per
	// validate→re-execute iteration plus the final check. A validation
	// that errors counts too.
	Rounds int
	// FailedPerRound records how many blocks failed validation each
	// round (the first entry is the post-crash damage).
	FailedPerRound []int
	// FirstFailed lists, in ascending order, the blocks the first
	// validation failed: the post-crash damage itself.
	FirstFailed []int
	// ValidateCycles and RecoverCycles are the simulated costs.
	ValidateCycles int64
	RecoverCycles  int64
	// BackoffCycles is simulated time spent in deterministic exponential
	// backoff between retry rounds (RecoverBlocks only; zero elsewhere).
	BackoffCycles int64
	// Tier is the highest escalation tier recovery needed (always
	// TierSelective for ValidateAndRecover).
	Tier RecoveryTier
}

// TotalCycles returns the full recovery cost.
func (r RecoveryReport) TotalCycles() int64 { return r.ValidateCycles + r.RecoverCycles }

// String implements fmt.Stringer.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("recovery: %d rounds (%v tier), failures per round %v, %d validate + %d re-execute cycles",
		r.Rounds, r.Tier, r.FailedPerRound, r.ValidateCycles, r.RecoverCycles)
}

// lastFailed is the failure count of the last validation round.
func (r RecoveryReport) lastFailed() int { return r.FailedPerRound[len(r.FailedPerRound)-1] }

// rounds is the one validate→repair loop behind every recovery entry
// point except SelfHeal. It validates blocks (nil: the whole grid),
// re-executes the failures, and repeats until a validation comes back
// clean or maxRounds repairs have run, validating once more after the
// last. Before every repair after the first it charges
// backoff << (round-1) simulated cycles (0 charges nothing). It reports
// whether the last validation was clean. Two rules hold for every entry
// point: each validation counts in Rounds and ValidateCycles, also one
// that errors (even before it launches); and an interrupted validation
// or repair launch ends recovery with a typed error wrapping
// ErrUnrecoverable, since the hierarchy has been crashed under it.
func (lp *LP) rounds(kernel gpusim.KernelFunc, recompute RecomputeFunc, blocks []int, maxRounds int, backoff int64, rep *RecoveryReport) (bool, error) {
	scope, name := "", "lp-recover"
	if blocks != nil {
		scope, name = "shard ", "lp-shard-recover"
	}
	for round := 0; ; round++ {
		failed, vres, err := lp.validate(recompute, blocks)
		rep.Rounds++
		rep.ValidateCycles += vres.Cycles
		if err != nil {
			return false, err
		}
		rep.FailedPerRound = append(rep.FailedPerRound, len(failed))
		if rep.Rounds == 1 {
			rep.FirstFailed = failed
		}
		if len(failed) == 0 || round == maxRounds {
			return len(failed) == 0, nil
		}
		if round > 0 && backoff > 0 {
			rep.BackoffCycles += backoff << (round - 1)
		}
		res, err := lp.repair(name, kernel, failed)
		rep.RecoverCycles += res.Cycles
		if err == nil && res.Interrupted {
			err = aborted(scope+"repair", res, len(failed))
		}
		if err != nil {
			return false, err
		}
	}
}

// ValidateAndRecover performs eager recovery (§II-A): validate all
// regions, re-execute the failed ones with the original kernel (LP
// regions here are idempotent at block granularity, the common case
// §IV-A identifies), flush to make the repairs durable, and repeat until
// a validation round passes clean. maxRounds bounds the loop (<= 0 means
// 3); the error wraps ErrUnrecoverable if the system cannot be repaired
// within the bound, or if a recovery launch is interrupted (see rounds
// for how Rounds counts). For recovery that degrades gracefully past
// that bound, use RecoverHardened.
func (lp *LP) ValidateAndRecover(kernel gpusim.KernelFunc, recompute RecomputeFunc, maxRounds int) (RecoveryReport, error) {
	if maxRounds <= 0 {
		maxRounds = 3
	}
	rep := RecoveryReport{Tier: TierSelective}
	clean, err := lp.rounds(kernel, recompute, nil, maxRounds, 0, &rep)
	if err == nil && !clean {
		err = fmt.Errorf("core: %d blocks still invalid after %d recovery rounds: %w",
			rep.lastFailed(), maxRounds, ErrUnrecoverable)
	}
	return rep, err
}

// RecoverOpts configures RecoverHardened.
type RecoverOpts struct {
	// MaxRounds bounds the selective-repair tier (default 3). A negative
	// value skips the selective tier entirely and escalates immediately.
	MaxRounds int
	// Checkpoint, when non-nil, enables the final escalation tier:
	// restore this durable image and re-execute the whole grid from it.
	Checkpoint *Checkpoint
}

// RecoverHardened is graceful-degradation recovery: it tries the paper's
// selective re-execution first, and when bounded rounds do not converge
// it escalates — first to a full-grid re-execution over the current
// durable data (repairs damage selective rounds cannot pin down, e.g. a
// corrupted checksum store), then to restoring the provided checkpoint
// and recomputing everything from it (repairs even corrupted inputs and
// non-idempotent kernels). The report's Tier records which escalation
// level was needed; the error wraps ErrUnrecoverable when every tier is
// exhausted, or when a recovery launch is interrupted (see rounds).
func (lp *LP) RecoverHardened(kernel gpusim.KernelFunc, recompute RecomputeFunc, opts RecoverOpts) (RecoveryReport, error) {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 3
	}
	var (
		rep   = RecoveryReport{Tier: TierSelective}
		clean bool
		err   error
	)
	if maxRounds > 0 {
		clean, err = lp.rounds(kernel, recompute, nil, maxRounds, 0, &rep)
	}
	if err == nil && !clean {
		rep.Tier = TierFullGrid
		clean, err = lp.rebuild(kernel, recompute, &rep)
	}
	if err == nil && !clean && opts.Checkpoint != nil {
		// Roll the durable image back to the checkpoint and recompute
		// everything from it.
		rep.Tier = TierCheckpoint
		opts.Checkpoint.Restore()
		clean, err = lp.rebuild(kernel, recompute, &rep)
	}
	if err == nil && !clean {
		err = fmt.Errorf("core: %d blocks invalid after %v-tier recovery: %w",
			rep.lastFailed(), rep.Tier, ErrUnrecoverable)
	}
	return rep, err
}

// rebuild is a full-grid tier: durably clear the checksum store,
// re-execute the whole grid over the current durable data (every block
// re-commits a fresh checksum, so even an uninterpretably corrupted store
// is rebuilt), and validate once.
func (lp *LP) rebuild(kernel gpusim.KernelFunc, recompute RecomputeFunc, rep *RecoveryReport) (bool, error) {
	lp.st.Clear()
	res, _ := lp.repair("lp-recover-full", kernel, nil)
	rep.RecoverCycles += res.Cycles
	if res.Interrupted {
		return false, aborted("repair", res, lp.grid.Size())
	}
	return lp.rounds(kernel, recompute, nil, 0, 0, rep)
}
