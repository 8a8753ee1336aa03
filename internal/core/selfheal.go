// Self-healing recovery orchestration: the online counterpart of
// RecoverHardened. Where hardened recovery assumes one fail-stop crash and
// a healthy medium, SelfHeal drives recovery on a medium that keeps
// failing — transient media errors that an ECC scrub can rewrite, stuck-at
// cells no rewrite can fix, and livelocked blocks the kernel watchdog
// aborts. Each attempt scrubs the NVM, validates, selectively re-executes,
// and backs off on a deterministic simulated clock; regions that stay
// invalid across attempts (or whose re-execution trips the watchdog) are
// quarantined, and the run completes in degraded mode — a typed
// ErrDegraded with a coverage ratio — instead of failing the whole grid.
package core

import (
	"fmt"
	"sort"

	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// HealOpts configures SelfHeal.
type HealOpts struct {
	// MaxAttempts bounds the scrub→validate→repair loop (default 3).
	MaxAttempts int
	// BackoffBase is the simulated-cycle backoff charged after attempt i:
	// BackoffBase << i (deterministic exponential backoff on the simulated
	// clock — no wall time is ever consulted). Default 4096.
	BackoffBase int64
	// QuarantineAfter is how many consecutive failed validations a region
	// survives before it is quarantined (default 2). Watchdog culprits are
	// quarantined immediately — a livelocked block would otherwise stall
	// every later attempt.
	QuarantineAfter int
	// Checkpoint, when non-nil, arms the final escalation tier: restore
	// this durable image (stuck-at cells re-assert themselves through the
	// media model) and re-execute every non-quarantined block from it.
	Checkpoint *Checkpoint
	// RegionOf maps an NVM line address to the LP region whose data it
	// backs (-1 when none), letting the orchestrator quarantine straight
	// from the scrub's uncorrectable-line reports: a line uncorrectable in
	// QuarantineAfter consecutive sweeps condemns its region even while
	// cached repairs mask the damage from validation. Only the workload
	// knows its data layout, so the mapping is supplied, not derived. nil
	// disables line-based quarantine (validation streaks and watchdog
	// aborts still quarantine).
	RegionOf func(lineAddr uint64) int
}

// withDefaults fills unset knobs.
func (o HealOpts) withDefaults() HealOpts {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 4096
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 2
	}
	return o
}

// HealReport summarizes a SelfHeal run.
type HealReport struct {
	// Attempts counts scrub→validate→repair iterations performed.
	Attempts int
	// FailedPerAttempt records the non-quarantined blocks failing
	// validation at each attempt (the first entry is the initial damage).
	FailedPerAttempt []int
	// BackoffCycles is the total simulated backoff charged between
	// attempts; ValidateCycles/RepairCycles the simulated recovery costs.
	BackoffCycles  int64
	ValidateCycles int64
	RepairCycles   int64
	// Scrubs aggregates the per-attempt ECC sweeps: lines healed in
	// total, and the final sweep's report.
	Scrubs      int
	ScrubHealed int64
	FinalScrub  memsim.ScrubReport
	// WatchdogAborts counts launches the kernel watchdog had to abort
	// (each quarantines the culprit's region).
	WatchdogAborts int
	// QuarantinedRegions lists quarantined LP region indices ascending;
	// QuarantinedLines the uncorrectable NVM lines of the final scrub.
	// QuarantinedBytes is the durable footprint of those lines.
	QuarantinedRegions []int
	QuarantinedLines   []uint64
	QuarantinedBytes   int64
	// Coverage is 1 - quarantined/total regions.
	Coverage float64
	// Tier is the highest escalation level reached.
	Tier RecoveryTier
}

// String implements fmt.Stringer.
func (r HealReport) String() string {
	return fmt.Sprintf("selfheal: %d attempts (%v tier), failures %v, %d scrubs (%d healed), %d watchdog aborts, %d quarantined regions, coverage %.4f",
		r.Attempts, r.Tier, r.FailedPerAttempt, r.Scrubs, r.ScrubHealed, r.WatchdogAborts, len(r.QuarantinedRegions), r.Coverage)
}

// healState is the orchestrator's working state.
type healState struct {
	lp     *LP
	opts   HealOpts
	rep    *HealReport
	kernel gpusim.KernelFunc
	// quarantined marks LP regions excluded from validation and repair.
	// failStreak counts, per region, consecutive validations that failed
	// *after a completed repair* — failures following an aborted repair
	// (the watchdog crashed the hierarchy, losing the attempt's work)
	// prove nothing about the region and do not advance the streak.
	// lineStreak counts consecutive scrub sweeps in which an NVM line was
	// uncorrectable; repairedReg marks regions whose repair completed
	// (flushed durably) since the last validation.
	quarantined map[int]bool
	failStreak  map[int]int
	lineStreak  map[uint64]int
	repairedReg map[int]bool
	// lastScrub is the most recent sweep's report; its uncorrectable
	// lines mark suspect regions for the next validation round.
	lastScrub memsim.ScrubReport
}

// quarantine marks region reg quarantined (idempotent).
func (h *healState) quarantine(reg int) {
	if reg >= 0 && reg < h.lp.regions {
		h.quarantined[reg] = true
	}
}

// activeBlocks returns every block whose region is not quarantined, in
// ascending order.
func (h *healState) activeBlocks() []int {
	var out []int
	for blk := 0; blk < h.lp.grid.Size(); blk++ {
		if !h.quarantined[blk/h.lp.fusion] {
			out = append(out, blk)
		}
	}
	return out
}

// filterQuarantined drops blocks of quarantined regions from failed.
func (h *healState) filterQuarantined(failed []int) []int {
	out := failed[:0]
	for _, blk := range failed {
		if !h.quarantined[blk/h.lp.fusion] {
			out = append(out, blk)
		}
	}
	return out
}

// noteValidation updates per-region failure streaks from a validation
// outcome and quarantines regions whose streak reached the bound. A
// failure advances the streak only when the region's repair completed
// since the last validation (otherwise the failure is expected, not
// evidence of unhealable damage). It returns the still-active failed
// blocks.
func (h *healState) noteValidation(failed []int) []int {
	failedReg := map[int]bool{}
	for _, blk := range failed {
		failedReg[blk/h.lp.fusion] = true
	}
	for reg := 0; reg < h.lp.regions; reg++ {
		if h.quarantined[reg] {
			continue
		}
		switch {
		case !failedReg[reg]:
			h.failStreak[reg] = 0
		case h.repairedReg[reg]:
			h.failStreak[reg]++
			if h.failStreak[reg] >= h.opts.QuarantineAfter {
				h.quarantine(reg)
			}
		}
	}
	clear(h.repairedReg)
	return h.filterQuarantined(failed)
}

// scrub runs one ECC sweep, folds it into the report, and — when the
// workload supplied a RegionOf mapping — quarantines regions whose lines
// stayed uncorrectable for QuarantineAfter consecutive sweeps. Lines that
// heal (or vanish) reset their streak.
func (h *healState) scrub() memsim.ScrubReport {
	sr := h.lp.dev.Mem().Scrub()
	h.rep.Scrubs++
	h.rep.ScrubHealed += int64(sr.Healed)
	h.rep.FinalScrub = sr
	unc := map[uint64]bool{}
	for _, line := range sr.UncorrectableLines {
		unc[line] = true
		h.lineStreak[line]++
		if h.opts.RegionOf != nil && h.lineStreak[line] >= h.opts.QuarantineAfter {
			h.quarantine(h.opts.RegionOf(line))
		}
	}
	for line := range h.lineStreak {
		if !unc[line] {
			delete(h.lineStreak, line)
		}
	}
	h.lastScrub = sr
	return sr
}

// suspectBlocks expands the still-active regions behind the last sweep's
// uncorrectable lines into block indices. A repaired stuck line sits
// cached-clean, so validation alone would pass the region while its
// durable bytes stay wrong — the scrub's ECC view is the only witness,
// and its suspects must fail validation until healed or quarantined.
func (h *healState) suspectBlocks() []int {
	if h.opts.RegionOf == nil {
		return nil
	}
	var out []int
	seen := map[int]bool{}
	for _, line := range h.lastScrub.UncorrectableLines {
		reg := h.opts.RegionOf(line)
		if reg < 0 || reg >= h.lp.regions || h.quarantined[reg] || seen[reg] {
			continue
		}
		seen[reg] = true
		for blk := reg * h.lp.fusion; blk < (reg+1)*h.lp.fusion && blk < h.lp.grid.Size(); blk++ {
			out = append(out, blk)
		}
	}
	return out
}

// validate runs one quarantine-aware validation round. A watchdog abort
// during validation quarantines the culprit and reports ok=false (the
// round's outcome is untrusted); a store error is fatal.
func (h *healState) validate(recompute RecomputeFunc) (failed []int, ok bool, err error) {
	failed, vres, err := h.lp.Validate(recompute)
	h.rep.ValidateCycles += vres.Cycles
	if err != nil {
		return nil, false, err
	}
	if vres.Watchdog != nil {
		h.rep.WatchdogAborts++
		h.quarantine(vres.Watchdog.Block / h.lp.fusion)
		return nil, false, nil
	}
	if suspects := h.suspectBlocks(); len(suspects) > 0 {
		merged := map[int]bool{}
		for _, blk := range append(failed, suspects...) {
			merged[blk] = true
		}
		failed = failed[:0]
		for blk := range merged {
			failed = append(failed, blk)
		}
		sort.Ints(failed)
	}
	return h.noteValidation(failed), true, nil
}

// repairSelected re-executes blks and flushes the repairs durable. A
// watchdog abort quarantines the culprit's region and reports false — the
// hierarchy has been crashed, so the attempt's repairs are lost and the
// next attempt revalidates from the durable image.
func (h *healState) repairSelected(name string, blks []int) (bool, error) {
	lp := h.lp
	if lp.fusion > 1 && len(blks) > 0 {
		merger, err := lp.merger()
		if err != nil {
			return false, err
		}
		seen := map[int]bool{}
		for _, blk := range blks {
			if reg := blk / lp.fusion; !seen[reg] {
				seen[reg] = true
				merger.HostResetEntry(uint64(reg))
			}
		}
	}
	rres := lp.dev.LaunchSelected(name, lp.grid, lp.blk, h.kernel, blks)
	h.rep.RepairCycles += rres.Cycles
	if rres.Watchdog != nil {
		h.rep.WatchdogAborts++
		h.quarantine(rres.Watchdog.Block / lp.fusion)
		return false, nil
	}
	lp.dev.Mem().FlushAll()
	for _, blk := range blks {
		h.repairedReg[blk/lp.fusion] = true
	}
	return true, nil
}

// SelfHeal is the retrying recovery orchestrator. Each attempt scrubs the
// NVM (healing transient media errors through the ordinary persistency
// paths), validates the non-quarantined regions, selectively re-executes
// the failures, and charges a deterministic exponential backoff on the
// simulated clock. Regions that stay invalid across attempts — a stuck-at
// cell under their data keeps re-corrupting every rewrite — and blocks
// whose re-execution livelocks (watchdog abort) are quarantined and
// excluded from further work. When attempts run out, recovery escalates
// like RecoverHardened, restricted to the surviving regions: full
// re-execution over the current durable data, then (when armed) a
// checkpoint restore.
//
// The outcome is nil when everything validates and nothing was
// quarantined; a *DegradedError (wrapping ErrDegraded, with the coverage
// ratio) when the surviving regions validate but some were quarantined;
// and an error wrapping ErrUnrecoverable when even the surviving regions
// cannot be repaired. The whole procedure consults only simulated state,
// so its result — including the quarantine set — is bit-identical from
// run to run.
func (lp *LP) SelfHeal(kernel gpusim.KernelFunc, recompute RecomputeFunc, opts HealOpts) (HealReport, error) {
	opts = opts.withDefaults()
	rep := HealReport{Coverage: 1}
	h := &healState{
		lp:          lp,
		opts:        opts,
		rep:         &rep,
		quarantined: map[int]bool{},
		failStreak:  map[int]int{},
		lineStreak:  map[uint64]int{},
		repairedReg: map[int]bool{},
		kernel:      kernel,
	}

	clean := false
	for attempt := 0; attempt < opts.MaxAttempts && !clean; attempt++ {
		rep.Attempts++
		h.scrub()
		failed, ok, err := h.validate(recompute)
		if err != nil {
			return h.finish(), err
		}
		if ok {
			rep.FailedPerAttempt = append(rep.FailedPerAttempt, len(failed))
			if len(failed) == 0 {
				clean = true
				break
			}
			if _, err := h.repairSelected("lp-heal", failed); err != nil {
				return h.finish(), err
			}
		}
		rep.BackoffCycles += opts.BackoffBase << attempt
	}

	// Escalation tiers over the surviving regions only.
	if !clean {
		rep.Tier = TierFullGrid
		if err := h.fullRepairActive(); err != nil {
			return h.finish(), err
		}
		h.scrub()
		failed, ok, err := h.validate(recompute)
		if err != nil {
			return h.finish(), err
		}
		clean = ok && len(failed) == 0
	}
	if !clean && opts.Checkpoint != nil {
		rep.Tier = TierCheckpoint
		opts.Checkpoint.Restore()
		if err := h.fullRepairActive(); err != nil {
			return h.finish(), err
		}
		h.scrub()
		failed, ok, err := h.validate(recompute)
		if err != nil {
			return h.finish(), err
		}
		clean = ok && len(failed) == 0
	}

	rep = h.finish()
	if !clean {
		return rep, fmt.Errorf("core: self-heal exhausted after %d attempts (%v tier, %d regions quarantined): %w",
			rep.Attempts, rep.Tier, len(rep.QuarantinedRegions), ErrUnrecoverable)
	}
	if len(rep.QuarantinedRegions) > 0 {
		return rep, &DegradedError{
			Coverage: rep.Coverage,
			Regions:  append([]int(nil), rep.QuarantinedRegions...),
			Lines:    append([]uint64(nil), rep.QuarantinedLines...),
		}
	}
	return rep, nil
}

// fullRepairActive durably clears the checksum store and re-executes every
// non-quarantined block, retrying (and quarantining the culprit) whenever
// the watchdog aborts the launch. Each abort strictly grows the quarantine
// set, so the loop terminates within Regions iterations.
func (h *healState) fullRepairActive() error {
	for {
		h.lp.st.Clear()
		active := h.activeBlocks()
		if len(active) == 0 {
			return nil
		}
		ok, err := h.repairSelected("lp-heal-full", active)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
}

// finish freezes the quarantine sets and coverage into the report.
func (h *healState) finish() HealReport {
	rep := *h.rep
	rep.QuarantinedRegions = rep.QuarantinedRegions[:0]
	for reg := range h.quarantined {
		rep.QuarantinedRegions = append(rep.QuarantinedRegions, reg)
	}
	sort.Ints(rep.QuarantinedRegions)
	rep.QuarantinedLines = append([]uint64(nil), rep.FinalScrub.UncorrectableLines...)
	rep.QuarantinedBytes = int64(len(rep.QuarantinedLines)) * int64(h.lp.dev.Mem().Config().LineSize)
	rep.Coverage = 1 - float64(len(rep.QuarantinedRegions))/float64(h.lp.regions)
	*h.rep = rep
	return rep
}
