package gpulp_test

// Determinism regression suite: every observable output of a run must be
// bit-identical when the same configuration runs again, and a campaign's
// report must not depend on its host fan-out (Parallel). Two runs in one
// process differ if any output leaks Go's randomized map iteration order;
// `make matrix` repeats the suite at two GOMAXPROCS values. This is the
// contract that lets the harness and fault campaigns parallelize without
// perturbing any number the repo reports.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gpulp/internal/cluster"
	"gpulp/internal/core"
	"gpulp/internal/faultsim"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
)

// kernelRun captures every observable output of one workload run.
type kernelRun struct {
	launch   gpusim.LaunchResult
	finalize gpusim.LaunchResult
	memStats memsim.Stats
	tabStats hashtab.Stats
	nvm      []byte
}

func runWorkload(t *testing.T, name string, lpCfg *core.Config) kernelRun {
	t.Helper()
	mem := memsim.MustNew(memsim.DefaultConfig())
	dev := gpusim.MustNew(gpusim.DefaultConfig(), mem)
	w := kernels.New(name, 1)
	w.Setup(dev)
	grid, blk := w.Geometry()

	var lp *core.LP
	if lpCfg != nil {
		lp = core.New(dev, *lpCfg, grid, blk)
	}
	mem.ResetStats()
	var run kernelRun
	run.launch = dev.Launch(name, grid, blk, w.Kernel(lp))
	if f, ok := w.(kernels.Finalizer); ok {
		fname, fg, fb, k := f.FinalizeKernel()
		run.finalize = dev.Launch(fname, fg, fb, k)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run.memStats = mem.Stats()
	if lp != nil {
		run.tabStats = *lp.Store().Stats()
	}
	run.nvm = mem.NVMImage()
	return run
}

func compareRuns(t *testing.T, label string, first, second kernelRun) {
	t.Helper()
	if first.launch != second.launch {
		t.Errorf("%s: launch result diverged\nfirst:  %+v\nsecond: %+v", label, first.launch, second.launch)
	}
	if first.finalize != second.finalize {
		t.Errorf("%s: finalize result diverged\nfirst:  %+v\nsecond: %+v", label, first.finalize, second.finalize)
	}
	if !reflect.DeepEqual(first.memStats, second.memStats) {
		t.Errorf("%s: memory stats diverged\nfirst:  %+v\nsecond: %+v", label, first.memStats, second.memStats)
	}
	if first.tabStats != second.tabStats {
		t.Errorf("%s: checksum-store stats diverged\nfirst:  %+v\nsecond: %+v", label, first.tabStats, second.tabStats)
	}
	if !bytes.Equal(first.nvm, second.nvm) {
		for i := range first.nvm {
			if first.nvm[i] != second.nvm[i] {
				t.Errorf("%s: NVM image diverged at byte %#x (first %#x, second %#x)", label, i, first.nvm[i], second.nvm[i])
				break
			}
		}
	}
}

// TestParallelDeterminismKernels runs every registered workload — bare and
// under the default LP configuration — twice, asserting that kernel
// cycles, byte/stall totals, NVM write counters (total and by-region),
// collision statistics, and the full post-run durable memory image are
// bit-identical.
func TestParallelDeterminismKernels(t *testing.T) {
	names := append([]string{}, kernels.Names...)
	names = append(names, "megakv-mixed")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			compareRuns(t, name+"/bare",
				runWorkload(t, name, nil),
				runWorkload(t, name, nil))
			lpCfg := core.DefaultConfig()
			compareRuns(t, name+"/lp",
				runWorkload(t, name, &lpCfg),
				runWorkload(t, name, &lpCfg))
		})
	}
}

// TestParallelDeterminismStores exercises the contended checksum-store
// designs (quadratic probing and cuckoo hashing, lock-free and
// lock-based), whose collision statistics and probe sequences are the
// most order-sensitive state in the runtime.
func TestParallelDeterminismStores(t *testing.T) {
	configs := []struct {
		label string
		cfg   core.Config
	}{
		{"quad-lockfree", core.Config{Store: hashtab.Quad, LockMode: hashtab.LockFree}},
		{"quad-lockbased", core.Config{Store: hashtab.Quad, LockMode: hashtab.LockBased}},
		{"quad-noatomic", core.Config{Store: hashtab.Quad, LockMode: hashtab.NoAtomic}},
		{"cuckoo-lockfree", core.Config{Store: hashtab.Cuckoo, LockMode: hashtab.LockFree}},
		{"chained-lockfree", core.Config{Store: hashtab.Chained, LockMode: hashtab.LockFree}},
		{"sequential-reduce", func() core.Config {
			c := core.DefaultConfig()
			c.Reduction = core.ReduceSequential
			return c
		}()},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 0x1157c
			compareRuns(t, "tmm/"+tc.label,
				runWorkload(t, "tmm", &cfg),
				runWorkload(t, "tmm", &cfg))
		})
	}
}

// recoveryRun crashes a kernel mid-launch, recovers, and captures the
// observable outcome.
type recoveryRun struct {
	report core.RecoveryReport
	nvm    []byte
}

func runRecovery(t *testing.T) recoveryRun {
	t.Helper()
	mem := memsim.MustNew(memsim.DefaultConfig())
	dev := gpusim.MustNew(gpusim.DefaultConfig(), mem)
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	lp := core.New(dev, core.DefaultConfig(), grid, blk)
	kernel := w.Kernel(lp)

	dev.SetCrashTrigger(&gpusim.CrashTrigger{AfterBlocks: grid.Size() / 2})
	res := dev.Launch("tmm", grid, blk, kernel)
	if !res.Interrupted {
		t.Fatal("crash trigger did not fire")
	}
	rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 3)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("post-recovery verify failed: %v", err)
	}
	return recoveryRun{report: rep, nvm: mem.NVMImage()}
}

// TestParallelDeterminismRecovery asserts that a mid-launch crash, the
// validation pass, and the selective re-execution produce identical
// recovery reports and durable images when run twice.
func TestParallelDeterminismRecovery(t *testing.T) {
	first := runRecovery(t)
	second := runRecovery(t)
	if !reflect.DeepEqual(first.report, second.report) {
		t.Errorf("recovery report diverged\nfirst:  %+v\nsecond: %+v", first.report, second.report)
	}
	if !bytes.Equal(first.nvm, second.nvm) {
		t.Errorf("post-recovery NVM image diverged")
	}
}

// TestParallelDeterminismFaultCampaign runs a small seeded fault-injection
// campaign twice and compares the full structured reports.
func TestParallelDeterminismFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke test skipped in -short mode")
	}
	run := func() *faultsim.Report {
		c := faultsim.DefaultCampaign(2)
		c.Kernels = []string{"tmm", "megakv-insert"}
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("campaign failed: %v", err)
		}
		return rep
	}
	if first, second := run(), run(); !reflect.DeepEqual(first, second) {
		t.Errorf("campaign reports diverged\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// selfHealRun captures every observable output of one self-healing
// recovery under the online media-error process: the heal report (with
// its quarantine sets), the typed degraded outcome, and the durable image.
type selfHealRun struct {
	rep core.HealReport
	deg *core.DegradedError
	nvm []byte
}

func runSelfHeal(t *testing.T) selfHealRun {
	t.Helper()
	mcfg := memsim.DefaultConfig()
	mcfg.CacheBytes = 256 << 10
	mcfg.Fault = memsim.FaultConfig{Enabled: true, Seed: 77, TransientPerWrite: 0.05, StuckPerWrite: 0.01}
	mem := memsim.MustNew(mcfg)
	dcfg := gpusim.DefaultConfig()
	dcfg.WatchdogSteps = 50_000
	dev := gpusim.MustNew(dcfg, mem)

	grid, blk := gpusim.D1(32), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	locks := dev.Alloc("locks", grid.Size()*8)
	out := dev.Alloc("out", n*4)
	locks.HostZero()
	out.HostZero()
	lp := core.New(dev, core.DefaultConfig(), grid, blk)
	kernel := func(b *gpusim.Block) {
		b.ForAll(func(th *gpusim.Thread) {
			if th.Linear == 0 {
				for th.AtomicCASU64(locks, b.LinearIdx, 0, 1) != 0 {
					th.Op(1)
				}
			}
		})
		r := lp.Begin(b)
		b.ForAll(func(th *gpusim.Thread) {
			gid := th.GlobalLinear()
			v := uint32(gid)*2654435761 + 12345
			th.StoreU32(out, gid, v)
			r.Update(th, v)
		})
		b.ForAll(func(th *gpusim.Thread) {
			if th.Linear == 0 {
				th.AtomicExchU64(locks, b.LinearIdx, 0)
			}
		})
		r.Commit()
	}
	recompute := func(b *gpusim.Block, r *core.Region) {
		b.ForAll(func(th *gpusim.Thread) {
			r.Update(th, th.LoadU32(out, th.GlobalLinear()))
		})
	}

	// A planted stuck-at pins block 9's lock word "held": re-execution
	// livelocks and the watchdog must abort it identically in both runs.
	mem.PlantStuckAt(locks.Base+9*8, 0, 1)
	res := dev.Launch("lockfill", grid, blk, kernel)
	if res.Watchdog == nil {
		mem.Crash()
	}
	rep, err := lp.SelfHeal(kernel, recompute, core.HealOpts{
		MaxAttempts: 5,
		RegionOf: func(line uint64) int {
			if line < out.Base || line >= out.Base+uint64(n*4) {
				return -1
			}
			return int(line-out.Base) / (blk.Size() * 4)
		},
	})
	var deg *core.DegradedError
	if err != nil && !errors.As(err, &deg) {
		t.Fatalf("self-heal failed: %v", err)
	}
	return selfHealRun{rep: rep, deg: deg, nvm: mem.NVMImage()}
}

// TestParallelDeterminismSelfHeal drives the full self-healing stack —
// online media-error process, ECC scrubs, watchdog-aborted re-execution,
// quarantine — twice and asserts bit-identical heal reports, quarantine
// sets, typed degraded outcomes, and durable images.
func TestParallelDeterminismSelfHeal(t *testing.T) {
	first := runSelfHeal(t)
	second := runSelfHeal(t)
	if !reflect.DeepEqual(first.rep, second.rep) {
		t.Errorf("heal reports diverged\nfirst:  %+v\nsecond: %+v", first.rep, second.rep)
	}
	if !reflect.DeepEqual(first.deg, second.deg) {
		t.Errorf("degraded outcomes diverged\nfirst:  %+v\nsecond: %+v", first.deg, second.deg)
	}
	if !bytes.Equal(first.nvm, second.nvm) {
		t.Errorf("post-heal NVM images diverged")
	}
	if first.rep.WatchdogAborts == 0 {
		t.Errorf("planted stuck lock never tripped the watchdog: %+v", first.rep)
	}
}

// plainHealReport drops HealReport's String method, so %+v prints every
// field (FinalScrub keeps its String form, which omits only
// UncorrectableLines; the pin prints those separately).
type plainHealReport core.HealReport

// TestSelfHealPinned compares the runSelfHeal fixture's whole heal report
// and its degraded error text against literal values recorded from the
// tree: a watchdog-aborted repair, scrub-driven quarantines, and the
// degraded coverage.
func TestSelfHealPinned(t *testing.T) {
	run := runSelfHeal(t)
	const wantRep = "{Attempts:4 FailedPerAttempt:[32 31 3 0] BackoffCycles:28672 ValidateCycles:1148 RepairCycles:1729 Scrubs:4 ScrubHealed:4 FinalScrub:scrub: 5 scanned, 4 corrupt, 1 healed, 3 uncorrectable WatchdogAborts:1 QuarantinedRegions:[9 16 22 31] QuarantinedLines:[4480 6016 8320] QuarantinedBytes:384 Coverage:0.875 Tier:selective} final-scrub-lines=[4480 6016 8320]"
	got := fmt.Sprintf("%+v final-scrub-lines=%v", plainHealReport(run.rep), run.rep.FinalScrub.UncorrectableLines)
	if got != wantRep {
		t.Errorf("heal report:\n got %s\nwant %s", got, wantRep)
	}
	const wantErr = "core: degraded completion: 4 regions quarantined (coverage 0.8750, 3 uncorrectable lines): persistent state degraded: quarantined regions excluded"
	if run.deg == nil || run.deg.Error() != wantErr {
		t.Errorf("degraded outcome = %v, want %q", run.deg, wantErr)
	}
}

// TestParallelDeterminismRateSweep runs a reduced media-error rate sweep
// twice and compares the full structured reports.
func TestParallelDeterminismRateSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("rate-sweep smoke test skipped in -short mode")
	}
	run := func() *faultsim.RateReport {
		s := faultsim.DefaultRateSweep(2)
		s.Rates = []float64{0.02, 0.15}
		s.StuckFrac = 0.3
		s.Blocks, s.BlockThreads = 16, 32
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("rate sweep failed: %v", err)
		}
		return rep
	}
	if first, second := run(), run(); !reflect.DeepEqual(first, second) {
		t.Errorf("rate-sweep reports diverged\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// clusterRun captures every observable output of one multi-device
// cluster run with injected failures.
type clusterRun struct {
	report  []byte // report JSON
	errText string
	pool    []byte
}

func runCluster(t *testing.T) clusterRun {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Devices = 3
	cfg.Jobs = 6
	cfg.BlocksPerJob = 2
	cfg.BlockThreads = 32
	cfg.Seed = 0x7001
	cfg.Failures = []cluster.FailurePlan{
		{Job: 1, Kind: cluster.Hang, AfterBlocks: 1},
		{Job: 4, Kind: cluster.FailStop, AfterBlocks: 1},
	}
	cl := cluster.MustNew(cfg)
	rep, err := cl.Run()
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	if verr := cl.Verify(); verr != nil {
		t.Fatalf("pool audit failed: %v", verr)
	}
	js, jerr := json.Marshal(rep)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return clusterRun{report: js, pool: cl.Pool().NVMImage()}
}

// TestParallelDeterminismCluster drives a 3-device cluster through a hang
// and a fail-stop — heartbeat-timeout detection, shard fencing, durable
// harvest, cross-device re-execution — twice and asserts byte-identical
// cluster reports and shared pool images.
func TestParallelDeterminismCluster(t *testing.T) {
	first := runCluster(t)
	second := runCluster(t)
	if !bytes.Equal(first.report, second.report) {
		t.Errorf("cluster reports diverged\nfirst:  %s\nsecond: %s", first.report, second.report)
	}
	if !bytes.Equal(first.pool, second.pool) {
		t.Errorf("shared pool images diverged")
	}
}

// TestParallelDeterminismClusterCampaign runs a reduced multi-device
// failover campaign at host fan-out 1 and 8, comparing the full
// structured reports.
func TestParallelDeterminismClusterCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster campaign smoke test skipped in -short mode")
	}
	run := func(hostPar int) *faultsim.ClusterReport {
		c := faultsim.DefaultClusterCampaign(2)
		c.DeviceCounts = []int{2, 3}
		c.Jobs = 4
		c.BlocksPerJob = 2
		c.BlockThreads = 32
		c.Parallel = hostPar
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("parallel=%d: cluster campaign failed: %v", hostPar, err)
		}
		return rep
	}
	if base, alt := run(1), run(8); !reflect.DeepEqual(base, alt) {
		t.Errorf("cluster campaign reports diverged\nparallel 1: %+v\nparallel 8: %+v", base, alt)
	}
}

// replicatedRun captures every observable output of one replicated
// cluster run: the structured report plus the shared durable pool.
type replicatedRun struct {
	report []byte // report JSON
	pool   []byte
}

func runReplicatedCluster(t *testing.T) replicatedRun {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Devices = 3
	cfg.Jobs = 6
	cfg.BlocksPerJob = 2
	cfg.BlockThreads = 32
	cfg.Seed = 0x7002
	cfg.Replicas = 2
	cfg.Placer = cluster.Affinity
	cfg.Model = "sbrp"
	cfg.Failures = []cluster.FailurePlan{
		{Job: 2, Kind: cluster.FailStop, AfterBlocks: 1},
	}
	cl := cluster.MustNew(cfg)
	rep, err := cl.Run()
	if err != nil {
		t.Fatalf("replicated cluster run failed: %v", err)
	}
	if verr := cl.Verify(); verr != nil {
		t.Fatalf("pool audit failed: %v", verr)
	}
	if rep.Adopted == 0 {
		t.Fatalf("failover never adopted a replica: %+v", rep)
	}
	if rep.ReexecutedBlocks != 0 {
		t.Fatalf("replicated failover re-executed %d blocks", rep.ReexecutedBlocks)
	}
	js, jerr := json.Marshal(rep)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return replicatedRun{report: js, pool: cl.Pool().NVMImage()}
}

// TestParallelDeterminismReplicatedCluster drives a 3-device cluster
// with R=2 replicated placement through a fail-stop — replica fan-out
// inside the shared-clock loop, quorum harvest, freshness judging,
// zero-re-execution adoption, online rebalance — twice and asserts
// byte-identical reports and pool images.
func TestParallelDeterminismReplicatedCluster(t *testing.T) {
	first := runReplicatedCluster(t)
	second := runReplicatedCluster(t)
	if !bytes.Equal(first.report, second.report) {
		t.Errorf("replicated cluster reports diverged\nfirst:  %s\nsecond: %s",
			first.report, second.report)
	}
	if !bytes.Equal(first.pool, second.pool) {
		t.Errorf("replicated cluster NVM images diverged between runs")
	}
}

// TestParallelDeterminismReplicaCampaign runs a reduced replicated
// failover campaign at host fan-out 1 and 8, comparing the full
// structured reports — the acceptance pin for the -replicas
// campaign's determinism contract.
func TestParallelDeterminismReplicaCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("replica campaign smoke test skipped in -short mode")
	}
	run := func(hostPar int) *faultsim.ReplicaReport {
		c := faultsim.DefaultReplicaCampaign(2)
		c.Devices = 3
		c.Jobs = 4
		c.BlocksPerJob = 2
		c.BlockThreads = 32
		c.Parallel = hostPar
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("parallel=%d: replica campaign failed: %v", hostPar, err)
		}
		return rep
	}
	if base, alt := run(1), run(8); !reflect.DeepEqual(base, alt) {
		t.Errorf("replica campaign reports diverged\nparallel 1: %+v\nparallel 8: %+v", base, alt)
	}
}
