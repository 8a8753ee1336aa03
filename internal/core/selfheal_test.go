package core

import (
	"errors"
	"testing"

	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// newFaultyDevice builds the test device over a memory with the seeded
// fault process armed (rates may be zero) and the watchdog set.
func newFaultyDevice(fault memsim.FaultConfig, watchdogSteps int64) *gpusim.Device {
	mcfg := memsim.Config{
		LineSize: 128, CacheBytes: 256 << 10, Ways: 8,
		NVMReadNS: 160, NVMWriteNS: 480, NVMBandwidthGBs: 326.4,
		Fault: fault,
	}
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 4
	cfg.WatchdogSteps = watchdogSteps
	return gpusim.MustNew(cfg, memsim.MustNew(mcfg))
}

// lockFillKernel is fillKernel behind a per-block spin lock (one uint64
// lock word per block): the acquisition loop of §IV-D reduced to atomics,
// so a stuck-at fault pinning a lock word turns the block into a livelock
// only the watchdog can break.
func lockFillKernel(locks, out memsim.Region, lp *LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			if t.Linear == 0 {
				for t.AtomicCASU64(locks, b.LinearIdx, 0, 1) != 0 {
					t.Op(1)
				}
			}
		})
		b.ForAll(func(t *gpusim.Thread) {
			gid := t.GlobalLinear()
			v := uint32(gid)*2654435761 + 12345
			t.StoreU32(out, gid, v)
			r.Update(t, v)
		})
		b.ForAll(func(t *gpusim.Thread) {
			if t.Linear == 0 {
				t.AtomicExchU64(locks, b.LinearIdx, 0)
			}
		})
		r.Commit()
	}
}

// TestSelfHealStuckLockWatchdogQuarantine is the headline acceptance
// scenario: a stuck-at fault pins one block's lock word, the launch is
// caught by the watchdog as a typed ErrWatchdog (not a hang), and the
// retrying recovery quarantines the livelocked region and completes in
// degraded mode with coverage < 1.0 while every surviving block's output
// is fully recovered.
func TestSelfHealStuckLockWatchdogQuarantine(t *testing.T) {
	dev := newFaultyDevice(memsim.FaultConfig{}, 50_000)
	grid, blk := gpusim.D1(32), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	locks := dev.Alloc("locks", grid.Size()*8)
	out := dev.Alloc("out", n*4)
	locks.HostZero()
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	kernel := lockFillKernel(locks, out, lp)

	// Pin bit 0 of block 9's lock word to 1: durably "held" forever.
	const culprit = 9
	dev.Mem().PlantStuckAt(locks.Base+culprit*8, 0, 1)

	res := dev.Launch("lockfill", grid, blk, kernel)
	if res.Watchdog == nil || !errors.Is(res.Watchdog, gpusim.ErrWatchdog) {
		t.Fatalf("stuck lock not caught by watchdog: %+v", res)
	}
	if res.Watchdog.Block != culprit {
		t.Fatalf("watchdog blamed block %d, want %d", res.Watchdog.Block, culprit)
	}

	rep, err := lp.SelfHeal(kernel, fillRecompute(out), HealOpts{MaxAttempts: 5})
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("self-heal outcome = %v (%v), want DegradedError", err, rep)
	}
	if !errors.Is(err, ErrDegraded) || !IsTypedRecoveryError(err) {
		t.Fatalf("degraded outcome not typed: %v", err)
	}
	if deg.Coverage >= 1 || deg.Coverage <= 0 {
		t.Fatalf("coverage = %v, want in (0,1)", deg.Coverage)
	}
	if len(deg.Regions) != 1 || deg.Regions[0] != culprit {
		t.Fatalf("quarantined regions %v, want [%d]", deg.Regions, culprit)
	}
	if rep.WatchdogAborts == 0 {
		t.Fatalf("report counts no watchdog aborts: %v", rep)
	}
	if rep.Coverage != deg.Coverage {
		t.Fatalf("report coverage %v != error coverage %v", rep.Coverage, deg.Coverage)
	}
	// Every surviving block's output is durably recovered.
	img := dev.Mem().NVMImage()
	for gid := 0; gid < n; gid++ {
		if gid/blk.Size() == culprit {
			continue
		}
		want := uint32(gid)*2654435761 + 12345
		if got := memsim.ImageU32(img, out.Base+uint64(gid*4)); got != want {
			t.Fatalf("surviving out[%d] = %#x, want %#x", gid, got, want)
		}
	}
}

// TestSelfHealStuckDataQuarantine: a stuck-at cell under one block's
// output data re-corrupts every rewrite. After a repair the cache holds
// the clean rewrite, masking the damage from validation — but the scrub
// keeps reporting the NVM line uncorrectable, and after QuarantineAfter
// consecutive sightings the workload's RegionOf mapping condemns the
// region. No watchdog involved.
func TestSelfHealStuckDataQuarantine(t *testing.T) {
	dev := newFaultyDevice(memsim.FaultConfig{}, 0)
	grid, blk := gpusim.D1(64), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	out := dev.Alloc("out", n*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	kernel := fillKernel(out, lp)

	dev.Launch("fill", grid, blk, kernel)
	lp.Checkpoint()

	// Pin one bit of block 3's first output word to the complement of its
	// durable value: permanently uncorrectable, immune to re-execution.
	const culprit = 3
	addr := out.Base + uint64(culprit*blk.Size()*4)
	cur := memsim.ImageU32(dev.Mem().NVMImage(), addr)
	dev.Mem().PlantStuckAt(addr, 0, uint8(^cur&1))

	dev.Mem().Crash()
	regionOf := func(line uint64) int {
		if line < out.Base || line >= out.Base+uint64(n)*4 {
			return -1
		}
		return int(line-out.Base) / (blk.Size() * 4)
	}
	rep, err := lp.SelfHeal(kernel, fillRecompute(out), HealOpts{RegionOf: regionOf})
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("self-heal outcome = %v (%v), want DegradedError", err, rep)
	}
	if len(deg.Regions) != 1 || deg.Regions[0] != culprit {
		t.Fatalf("quarantined regions %v, want [%d]", deg.Regions, culprit)
	}
	if len(deg.Lines) == 0 || rep.QuarantinedBytes == 0 {
		t.Fatalf("degraded result carries no uncorrectable lines: %v / %v", deg.Lines, rep)
	}
	if rep.WatchdogAborts != 0 {
		t.Fatalf("unexpected watchdog aborts: %v", rep)
	}
}

// TestSelfHealTransientFaultsHealClean: with only transient media errors
// in play, the per-attempt scrub heals everything and self-heal converges
// to a fully clean (non-degraded) completion.
func TestSelfHealTransientFaultsHealClean(t *testing.T) {
	dev := newFaultyDevice(memsim.FaultConfig{
		Enabled: true, Seed: 99, TransientPerWrite: 0.05,
	}, 0)
	grid, blk := gpusim.D1(64), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	out := dev.Alloc("out", n*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	kernel := fillKernel(out, lp)

	dev.Launch("fill", grid, blk, kernel)
	dev.Mem().Crash()

	rep, err := lp.SelfHeal(kernel, fillRecompute(out), HealOpts{MaxAttempts: 6})
	if err != nil {
		t.Fatalf("self-heal failed under transient-only faults: %v (%v)", err, rep)
	}
	if rep.Coverage != 1 || len(rep.QuarantinedRegions) != 0 {
		t.Fatalf("transient-only run degraded: %v", rep)
	}
	if rep.ScrubHealed == 0 {
		t.Fatalf("scrubs healed nothing — fault process never fired: %v", rep)
	}
	// The durable image must now be fully valid *and* scrub-clean.
	img := dev.Mem().NVMImage()
	for gid := 0; gid < n; gid++ {
		want := uint32(gid)*2654435761 + 12345
		if got := memsim.ImageU32(img, out.Base+uint64(gid*4)); got != want {
			t.Fatalf("out[%d] = %#x after heal, want %#x", gid, got, want)
		}
	}
}

// TestSelfHealBackoffDeterministic: the simulated backoff is a pure
// function of the attempt count — exponential from BackoffBase.
func TestSelfHealBackoffDeterministic(t *testing.T) {
	dev := newFaultyDevice(memsim.FaultConfig{}, 0)
	grid, blk := gpusim.D1(16), gpusim.D1(32)
	out := dev.Alloc("out", grid.Size()*blk.Size()*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	kernel := fillKernel(out, lp)
	dev.Launch("fill", grid, blk, kernel)
	dev.Mem().Crash()

	rep, err := lp.SelfHeal(kernel, fillRecompute(out), HealOpts{BackoffBase: 1000})
	if err != nil {
		t.Fatalf("self-heal failed: %v", err)
	}
	var want int64
	// Backoff is charged after every attempt that did not validate clean.
	for i := 0; i < rep.Attempts-1; i++ {
		want += 1000 << i
	}
	if rep.BackoffCycles != want {
		t.Fatalf("backoff = %d cycles over %d attempts, want %d", rep.BackoffCycles, rep.Attempts, want)
	}
}

// TestSelfHealInterruptedRepairFatal: a repair launch stopped by anything
// but the watchdog (here an external abort) ends self-heal with a typed
// ErrUnrecoverable error, as in every other recovery entry point; only
// watchdog aborts feed the quarantine.
func TestSelfHealInterruptedRepairFatal(t *testing.T) {
	dev := newFaultyDevice(memsim.FaultConfig{}, 0)
	grid, blk := gpusim.D1(16), gpusim.D1(32)
	out := dev.Alloc("out", grid.Size()*blk.Size()*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	kernel := fillKernel(out, lp)
	dev.Launch("fill", grid, blk, kernel)
	dev.Mem().Crash()

	abortLaunch(dev, "lp-heal")
	rep, err := lp.SelfHeal(kernel, fillRecompute(out), HealOpts{})
	const want = "core: repair launch aborted (1/16 blocks): persistent state unrecoverable"
	if !errors.Is(err, ErrUnrecoverable) || err.Error() != want {
		t.Fatalf("self-heal outcome = %v, want %q", err, want)
	}
	if rep.WatchdogAborts != 0 || len(rep.QuarantinedRegions) != 0 || rep.Attempts != 1 {
		t.Fatalf("an external abort must not quarantine or retry: %v", rep)
	}
}
