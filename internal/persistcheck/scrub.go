// Scrub scenario family: property-based checks of the self-healing NVM
// runtime. Each scenario arms memsim's online media-error process at a
// seeded rate, runs the LP-protected kernels.Fill for several epochs with
// a seeded scrub cadence, crashes, and drives core.SelfHeal — holding the
// run to three properties: the oracle's event-replayed shadow stays
// bit-exact through faulted write-backs, scrub repairs and stuck-at
// forcings; SelfHeal never lies (a clean or degraded completion implies
// every surviving region's durable bytes are exact); and every quarantine
// is justified by a durable uncorrectable line or a watchdog abort.
package persistcheck

import (
	"errors"
	"fmt"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
)

// ScrubScenario is one replayable self-healing check.
type ScrubScenario struct {
	Seed uint64 `json:"seed"`
	// Transient is the per-write transient fault probability; StuckFrac
	// the fraction of it that is permanent stuck-at faults.
	Transient float64 `json:"transient"`
	StuckFrac float64 `json:"stuck_frac"`
	// Epochs is the number of LP epochs run before the crash (default 2);
	// ScrubEvery scrubs after every n-th epoch (0 = no mid-run scrubs —
	// only the ones SelfHeal issues).
	Epochs     int `json:"epochs,omitempty"`
	ScrubEvery int `json:"scrub_every,omitempty"`
	// Blocks and BlockThreads fix the fill geometry (default 16 × 32).
	Blocks       int `json:"blocks,omitempty"`
	BlockThreads int `json:"block_threads,omitempty"`
	// Locks guards each block behind a spin lock, so stuck-at cells under
	// lock words can livelock re-execution into the kernel watchdog.
	Locks bool `json:"locks,omitempty"`
}

// String implements fmt.Stringer.
func (s ScrubScenario) String() string {
	out := fmt.Sprintf("scrub seed=%#x rate=%g stuck=%g", s.Seed, s.Transient, s.StuckFrac)
	if s.Epochs > 1 {
		out += fmt.Sprintf(" epochs=%d", s.Epochs)
	}
	if s.ScrubEvery > 0 {
		out += fmt.Sprintf(" scrub-every=%d", s.ScrubEvery)
	}
	if s.Locks {
		out += " locks"
	}
	return out
}

// withDefaults fills unset scenario knobs.
func (s ScrubScenario) withDefaults() ScrubScenario {
	if s.Epochs <= 0 {
		s.Epochs = 2
	}
	if s.Blocks <= 0 {
		s.Blocks = 16
	}
	if s.BlockThreads <= 0 {
		s.BlockThreads = 32
	}
	return s
}

// GenScrub derives a random scrub scenario from a seed alone.
func GenScrub(seed uint64) ScrubScenario {
	pick := func(n uint64, mod int) int { return int(splitmix(seed^n) % uint64(mod)) }
	return ScrubScenario{
		Seed:       seed,
		Transient:  []float64{0.005, 0.02, 0.08, 0.25}[pick(2, 4)],
		StuckFrac:  []float64{0, 0.1, 0.3}[pick(3, 3)],
		Epochs:     1 + pick(4, 3),
		ScrubEvery: pick(5, 3), // 0 = none
		Locks:      pick(7, 3) == 0,
	}
}

// RunScrub executes one scrub scenario and returns the first
// contract violation (nil when it passes; an honest degraded completion
// or typed unrecoverable error is a pass).
func (c *Checker) RunScrub(sc ScrubScenario) (err error) {
	sc = sc.withDefaults()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("persistcheck: %v: panic: %v", sc, r)
		}
	}()
	if sc.Transient < 0 || sc.Transient > 1 || sc.StuckFrac < 0 || sc.Transient*sc.StuckFrac > 1 {
		return fmt.Errorf("persistcheck: %v: fault rates out of range", sc)
	}

	mcfg := c.Opt.Mem
	mcfg.Fault = memsim.FaultConfig{
		Enabled:           true,
		Seed:              sc.Seed,
		TransientPerWrite: sc.Transient,
		StuckPerWrite:     sc.Transient * sc.StuckFrac,
	}
	dcfg := c.Opt.Dev
	dcfg.WatchdogSteps = 200_000
	mem := memsim.MustNew(mcfg)
	o := AttachOracle(mem)
	defer o.Detach()
	dev := gpusim.MustNew(dcfg, mem)

	fill := kernels.NewFill(dev, sc.Blocks, sc.BlockThreads, uint32(sc.Seed), sc.Locks)
	grid, blk := fill.Geometry()
	lp := core.New(dev, c.Opt.LP, grid, blk)
	ck := core.CaptureCheckpoint(mem)
	kernel := fill.Kernel(lp)

	// Property 1 (checked throughout): faulted write-backs, scrub repairs
	// and stuck-at forcings must keep the oracle's event-replayed shadow
	// bit-exact against the durable image.
	watchdogged := false
	for e := 0; e < sc.Epochs; e++ {
		lp.SetEpoch(uint64(e))
		lres := dev.Launch("scrub-fill", grid, blk, kernel)
		if lres.Watchdog != nil {
			// The engine already crashed memory; the heal below must cope
			// with the partial image.
			watchdogged = true
			break
		}
		mem.FlushAll()
		if sc.ScrubEvery > 0 && (e+1)%sc.ScrubEvery == 0 {
			mem.Scrub()
		}
		if err := o.Check(); err != nil {
			return fmt.Errorf("%v: epoch %d: %w", sc, e, err)
		}
	}
	if !watchdogged {
		mem.Crash()
	}
	if err := o.Check(); err != nil {
		return fmt.Errorf("%v: post-crash: %w", sc, err)
	}

	fusion := max(c.Opt.LP.Fusion, 1)
	rep, herr := lp.SelfHeal(kernel, fill.Recompute(), core.HealOpts{
		MaxAttempts: 4,
		Checkpoint:  ck,
		RegionOf:    func(line uint64) int { return fill.RegionOf(line, fusion) },
	})

	// Property 2: SelfHeal never lies — on a clean or degraded
	// completion, every surviving region's durable bytes are exact.
	quarantined := map[int]bool{}
	var deg *core.DegradedError
	switch {
	case herr == nil:
	case errors.As(herr, &deg):
		for _, reg := range deg.Regions {
			quarantined[reg] = true
		}
		// Property 3: a degraded completion must justify itself — some
		// quarantined region backed by an uncorrectable line or a
		// watchdog abort, and a coverage ratio consistent with the set.
		if len(deg.Regions) == 0 {
			return fmt.Errorf("%v: degraded with empty quarantine set", sc)
		}
		regions := (grid.Size() + fusion - 1) / fusion
		if want := 1 - float64(len(deg.Regions))/float64(regions); deg.Coverage != want {
			return fmt.Errorf("%v: coverage %v inconsistent with %d quarantined regions (want %v)",
				sc, deg.Coverage, len(deg.Regions), want)
		}
		if rep.FinalScrub.Uncorrectable == 0 && rep.WatchdogAborts == 0 {
			return fmt.Errorf("%v: quarantine without an uncorrectable line or watchdog abort: %v", sc, rep)
		}
	case core.IsTypedRecoveryError(herr):
		return nil // honest failure: damage beyond repair
	default:
		return fmt.Errorf("%v: self-heal failed untypedly: %w", sc, herr)
	}
	if gid, got := fill.Diverged(mem.NVMImage(), func(block int) bool { return quarantined[block/fusion] }); gid >= 0 {
		return fmt.Errorf("%v: surviving out[%d] = %#x after self-heal, want %#x (silent corruption)",
			sc, gid, got, fill.Word(gid))
	}
	// The oracle must have followed the whole heal — scrub rewrites,
	// re-executions, checkpoint restores — too.
	if err := o.Check(); err != nil {
		return fmt.Errorf("%v: post-heal: %w", sc, err)
	}
	return nil
}

// shrinkScrub reduces a failing scrub scenario along its pinnable axes:
// no locks, a single epoch, no mid-run scrubs, and transient-only faults.
func (c *Checker) shrinkScrub(sc ScrubScenario) ScrubScenario {
	fails := func(s ScrubScenario) bool { return c.RunScrub(s) != nil }
	if !fails(sc) {
		return sc
	}
	for _, cand := range []func(ScrubScenario) ScrubScenario{
		func(s ScrubScenario) ScrubScenario { s.Locks = false; return s },
		func(s ScrubScenario) ScrubScenario { s.Epochs = 1; return s },
		func(s ScrubScenario) ScrubScenario { s.ScrubEvery = 0; return s },
		func(s ScrubScenario) ScrubScenario { s.StuckFrac = 0; return s },
	} {
		if next := cand(sc); next != sc && fails(next) {
			sc = next
		}
	}
	return sc
}
