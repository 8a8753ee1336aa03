package persistcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpulp/internal/faultsim"
	"gpulp/internal/memsim"
)

// TestOracleTracksHealthySystem: on an unfaulted system the oracle must
// agree with the durable image through stores, evictions, and crashes.
func TestOracleTracksHealthySystem(t *testing.T) {
	sc := GenMemOps(42, 200)
	if err := RunMemOps(sc); err != nil {
		t.Fatalf("healthy system violated the persistency contract: %v", err)
	}
}

// TestPlantedBugCaughtAndShrunk is the checker's self-test: arm the
// planted persistency bug (the first write-back is acknowledged but its
// bytes never reach NVM), confirm the oracle catches it, and confirm the
// shrinker reduces the reproducer to a handful of operations.
func TestPlantedBugCaughtAndShrunk(t *testing.T) {
	var caught *MemOpsScenario
	for seed := uint64(1); seed <= 20; seed++ {
		sc := GenMemOps(seed, 80)
		sc.PlantDrop = 1
		if err := RunMemOps(sc); err != nil {
			caught = &sc
			break
		}
	}
	if caught == nil {
		t.Fatal("planted dropped write-back not caught in 20 seeded scenarios")
	}
	shrunk := ShrinkMemOps(*caught)
	if err := RunMemOps(shrunk); err == nil {
		t.Fatal("shrunk scenario no longer fails")
	}
	if len(shrunk.Ops) > 10 {
		t.Fatalf("shrunk reproducer has %d ops, want <= 10", len(shrunk.Ops))
	}
	t.Logf("planted bug shrunk from %d to %d ops", len(caught.Ops), len(shrunk.Ops))
}

// TestPlantedBugCaughtByChecker runs the planted bug through the full
// orchestrator: the report must contain at least one failure with a
// shrunk memops reproducer.
func TestPlantedBugCaughtByChecker(t *testing.T) {
	c := NewChecker()
	// N exceeds the 8-scenario coverage sweep so random memops scenarios
	// (the family that arms the plant) actually run.
	rep := c.Run(Config{Seed: 7, N: 14, PlantDrop: 1, Kernels: []string{"tmm"}})
	if rep.Ok() {
		t.Fatal("checker run with planted bug reported no failures")
	}
	found := false
	for _, f := range rep.Failures {
		if f.Repro.Family != FamilyMemOps {
			continue
		}
		found = true
		if n := len(f.Repro.MemOps.Ops); n > 10 {
			t.Errorf("failure %q shrunk to %d ops, want <= 10", f.Scenario, n)
		}
	}
	if !found {
		t.Fatal("no memops failure in the report")
	}
}

// TestCorpusReplay replays every checked-in reproducer; all must pass
// (their bugs are fixed — that is why they are in the corpus).
func TestCorpusReplay(t *testing.T) {
	names, repros, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatal("empty corpus")
	}
	c := NewChecker()
	for i, r := range repros {
		if err := c.RunRepro(r); err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}
}

// TestMemOpsDeterministic: replaying the same generated scenario twice
// must agree — the foundation every corpus entry rests on.
func TestMemOpsDeterministic(t *testing.T) {
	sc := GenMemOps(9, 120)
	if err := RunMemOps(sc); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := RunMemOps(sc); err != nil {
		t.Fatalf("second run: %v", err)
	}
	again := GenMemOps(9, 120)
	if len(again.Ops) != len(sc.Ops) {
		t.Fatalf("regenerated scenario has %d ops, want %d", len(again.Ops), len(sc.Ops))
	}
	for i := range again.Ops {
		if again.Ops[i] != sc.Ops[i] {
			t.Fatalf("regenerated op %d = %+v, want %+v", i, again.Ops[i], sc.Ops[i])
		}
	}
}

// TestCheckerFingerprintDeterministic: two runs with the same seed and
// budget must produce identical fingerprints (and outcomes).
func TestCheckerFingerprintDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two small checker runs")
	}
	run := func() *Report {
		return NewChecker().Run(Config{Seed: 3, N: 10, Kernels: []string{"tmm"}})
	}
	a, b := run(), run()
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	if a.Scenarios != b.Scenarios || len(a.Failures) != len(b.Failures) {
		t.Fatalf("run shapes differ: %+v vs %+v", a, b)
	}
	if !a.Ok() {
		t.Fatalf("baseline checker run failed: %+v", a.Failures)
	}
}

// TestKernelScenarioBackends runs one cheap kernel scenario per backend.
func TestKernelScenarioBackends(t *testing.T) {
	c := NewChecker()
	for _, backend := range Backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			sc := KernelScenario{Kernel: "tmm", Backend: backend,
				Fault: faultsim.CleanCrash, Seed: 21}
			if err := c.RunKernel(sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentials runs one differential of each kind.
func TestDifferentials(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-variant kernel runs")
	}
	c := NewChecker()
	if err := c.RunDiffStores(KernelScenario{Kernel: "tmm",
		Fault: faultsim.PartialEviction, Seed: 32}); err != nil {
		t.Errorf("diff-stores: %v", err)
	}
	if err := c.RunDiffModels(KernelScenario{Kernel: "tmm",
		Fault: faultsim.CleanCrash, Seed: 33}); err != nil {
		t.Errorf("diff-models: %v", err)
	}
}

// TestShrinkTruncatesAtFailure: operations after the failing index must
// never survive shrinking.
func TestShrinkTruncatesAtFailure(t *testing.T) {
	sc := MemOpsScenario{
		PlantDrop: 1,
		Ops: []MemOp{
			{Op: OpStore, Idx: 1, Val: 7},
			{Op: OpFlushAll}, // write-back dropped here; oracle diverges
			{Op: OpStore, Idx: 2, Val: 8},
			{Op: OpStore, Idx: 3, Val: 9},
			{Op: OpLoad, Idx: 4},
			{Op: OpCrash},
		},
	}
	if err := RunMemOps(sc); err == nil {
		t.Fatal("planted scenario unexpectedly passed")
	}
	shrunk := ShrinkMemOps(sc)
	if len(shrunk.Ops) > 2 {
		t.Fatalf("shrunk to %d ops, want <= 2: %+v", len(shrunk.Ops), shrunk.Ops)
	}
}

// TestOracleDetectsOutOfBandMutation: a direct NVM mutation behind the
// observer's back must fail the check — the property that gives every
// green scenario its meaning.
func TestOracleDetectsOutOfBandMutation(t *testing.T) {
	mem := memsim.MustNew(memopsConfig())
	r := mem.Alloc("data", 1024)
	o := AttachOracle(mem)
	defer o.Detach()
	r.HostPutU64(0, 77) // observed: oracle follows
	if err := o.Check(); err != nil {
		t.Fatalf("observed host write diverged: %v", err)
	}
	// Simulate a buggy mutation path: corrupt the shadow's belief about
	// one durable byte and confirm Check reports the divergence.
	o.shadow[r.Base] ^= 0xff
	if err := o.Check(); err == nil {
		t.Fatal("oracle missed an out-of-band NVM mutation")
	} else if !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

// TestLoadCorpusMissingDir: a missing corpus directory is empty, not an
// error (fresh checkouts before any soak has failed).
func TestLoadCorpusMissingDir(t *testing.T) {
	names, repros, err := LoadCorpus(filepath.Join("testdata", "no-such-dir"))
	if err != nil || len(names) != 0 || len(repros) != 0 {
		t.Fatalf("got %v %v %v, want empty", names, repros, err)
	}
}

// TestSaveLoadReproRoundTrip exercises the corpus serialization.
func TestSaveLoadReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := GenMemOps(5, 12)
	path := filepath.Join(dir, "r.json")
	if err := SaveRepro(path, memopsRepro(sc)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Family != FamilyMemOps || got.MemOps == nil || len(got.MemOps.Ops) != 12 {
		t.Fatalf("round trip mangled repro: %+v", got)
	}
}

// TestLoadReproRejectsRetiredFields: a reproducer that still carries a
// field no scenario type has any more (a kernel scenario's "workers")
// must fail to load, naming its file, rather than silently replay a
// different scenario.
func TestLoadReproRejectsRetiredFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"version": 1, "family": "kernel", "kernel": {"kernel": "tmm",
		"backend": "global-array", "workers": 2, "fault": "mid-kernel", "seed": 13}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRepro(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("LoadRepro(%s) = %v, want an error naming the file and the unknown field", path, err)
	}
}

// TestRunReproUnknownFamily: a reproducer of a retired family has no
// check to replay it and must fail loudly.
func TestRunReproUnknownFamily(t *testing.T) {
	sc := KernelScenario{Kernel: "tmm", Backend: BackendGlobalArray, Fault: faultsim.MidKernelCrash, Seed: 13}
	err := NewChecker().RunRepro(Repro{Version: reproVersion, Family: "diff-workers", Kernel: &sc})
	if err == nil || !strings.Contains(err.Error(), "unknown repro family") {
		t.Fatalf("RunRepro(diff-workers) = %v, want unknown repro family", err)
	}
}
