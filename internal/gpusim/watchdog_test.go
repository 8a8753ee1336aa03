package gpusim

import (
	"bytes"
	"errors"
	"testing"

	"gpulp/internal/memsim"
)

// wdDevice builds a small device + memory pair with the watchdog armed.
func wdDevice(t *testing.T, steps int64) (*Device, *memsim.Memory) {
	t.Helper()
	mcfg := memsim.DefaultConfig()
	mcfg.CacheBytes = 1 << 14
	mem := memsim.MustNew(mcfg)
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.WatchdogSteps = steps
	return MustNew(cfg, mem), mem
}

// spinKernel returns a kernel whose thread 0 of each block spin-locks on
// the block's own word of locks, writes a token, and unlocks — the lock
// acquisition loop of §IV-D, reduced to its livelock-prone core.
func spinKernel(locks, out memsim.Region) KernelFunc {
	return func(b *Block) {
		b.ForAll(func(t *Thread) {
			if t.Linear != 0 {
				return
			}
			for t.AtomicCASU64(locks, b.LinearIdx, 0, 1) != 0 {
				t.Op(1)
			}
			t.StoreU64(out, b.LinearIdx, uint64(b.LinearIdx)+1)
			t.AtomicExchU64(locks, b.LinearIdx, 0)
		})
	}
}

// launchResultsEqual compares two LaunchResults, comparing the watchdog
// abort by value (the pointers necessarily differ).
func launchResultsEqual(a, b LaunchResult) bool {
	if (a.Watchdog == nil) != (b.Watchdog == nil) {
		return false
	}
	if a.Watchdog != nil && *a.Watchdog != *b.Watchdog {
		return false
	}
	a.Watchdog, b.Watchdog = nil, nil
	return a == b
}

// TestWatchdogAbortsStuckLockLivelock: a stuck-at fault pinning a lock
// word to "held" turns the acquisition spin into a livelock; the watchdog
// must convert it into a typed ErrWatchdog abort with a consistent crash
// image instead of hanging, identically when the launch runs again on a
// fresh device.
func TestWatchdogAbortsStuckLockLivelock(t *testing.T) {
	run := func() (LaunchResult, []byte) {
		dev, mem := wdDevice(t, 20_000)
		locks := dev.Alloc("locks", 4*8)
		out := dev.Alloc("out", 4*8)
		// Pin bit 0 of block 1's lock word to 1: the word durably reads
		// "held" and no store can clear it.
		mem.PlantStuckAt(locks.Base+8, 0, 1)
		res := dev.Launch("spin", D1(4), D1(32), spinKernel(locks, out))
		return res, mem.NVMImage()
	}

	res, img := run()
	if !res.Interrupted || res.Watchdog == nil {
		t.Fatalf("livelock not aborted: %+v", res)
	}
	if !errors.Is(res.Watchdog, ErrWatchdog) {
		t.Fatalf("abort %v does not wrap ErrWatchdog", res.Watchdog)
	}
	if res.Watchdog.Block != 1 || res.Watchdog.Kernel != "spin" {
		t.Fatalf("abort blames %q block %d, want spin block 1", res.Watchdog.Kernel, res.Watchdog.Block)
	}
	if res.Blocks != 1 {
		t.Fatalf("retired blocks = %d, want 1 (only block 0 precedes the hang)", res.Blocks)
	}

	res2, img2 := run()
	if !launchResultsEqual(res, res2) {
		t.Fatalf("abort diverges between runs:\nfirst  %+v (%v)\nsecond %+v (%v)", res, res.Watchdog, res2, res2.Watchdog)
	}
	if !bytes.Equal(img, img2) {
		t.Fatal("durable images diverge between two runs of the watchdog abort")
	}
}

// TestWatchdogQuietOnHealthyKernel: with a generous budget the watchdog
// must not perturb a normal launch — results are bit-identical to a
// watchdog-disabled run.
func TestWatchdogQuietOnHealthyKernel(t *testing.T) {
	run := func(steps int64) LaunchResult {
		dev, _ := wdDevice(t, steps)
		locks := dev.Alloc("locks", 4*8)
		out := dev.Alloc("out", 4*8)
		res := dev.Launch("spin", D1(4), D1(32), spinKernel(locks, out))
		for i := 0; i < 4; i++ {
			if got := out.PeekU64(i); got != uint64(i)+1 {
				t.Fatalf("out[%d] = %d, want %d", i, got, i+1)
			}
		}
		return res
	}
	armed, disarmed := run(1_000_000), run(0)
	if armed.Watchdog != nil || armed.Interrupted {
		t.Fatalf("healthy launch aborted: %+v", armed)
	}
	if !launchResultsEqual(armed, disarmed) {
		t.Fatalf("armed watchdog perturbed a healthy launch:\narmed    %+v\ndisarmed %+v", armed, disarmed)
	}
}
