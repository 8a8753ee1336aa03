package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gpulp/internal/pmodel"
)

// quickConfig is a scaled-down run that still exercises every pipeline
// stage: both SLO classes, all three clients, batching under load.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.HorizonCycles = 400_000
	return cfg
}

func mustRun(t *testing.T, cfg Config) *RunResult {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunBasicLP(t *testing.T) {
	r := mustRun(t, quickConfig())
	rep := r.Report
	if rep.Launches == 0 {
		t.Fatal("no launches")
	}
	if rep.EndCycle <= 0 || rep.BusyCycles <= 0 || rep.DrainCycles <= 0 {
		t.Fatalf("degenerate cycle accounting: %+v", rep)
	}
	var offered, admitted, dropped, completed int
	for _, c := range rep.Classes {
		offered += c.Offered
		admitted += c.Admitted
		dropped += c.Dropped
		completed += c.Completed
		if c.Completed > 0 && (c.P50 <= 0 || c.P95 < c.P50 || c.P99 < c.P95 || c.MaxLatency < c.P99) {
			t.Errorf("class %s percentile ordering broken: %+v", c.Class, c)
		}
	}
	if offered == 0 || offered != admitted+dropped {
		t.Fatalf("offered %d != admitted %d + dropped %d", offered, admitted, dropped)
	}
	if completed != admitted {
		t.Fatalf("completed %d != admitted %d (always-admit, run drained)", completed, admitted)
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestRunEveryModel drives the full pipeline under each registered
// persistency model plus the bare baseline, verifying the ledger each
// time and that durability costs cycles relative to bare.
func TestRunEveryModel(t *testing.T) {
	cfg := quickConfig()
	cfg.Model = "none"
	base := mustRun(t, cfg)
	if err := base.VerifyLedger(); err != nil {
		t.Fatalf("bare: %v", err)
	}
	for _, spec := range pmodel.Specs() {
		cfg.Model = spec.Name
		r := mustRun(t, cfg)
		if err := r.VerifyLedger(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		r.Report.CompareBaseline(base.Report)
		if r.Report.DurabilityOverhead < 0 {
			t.Errorf("%s: durability overhead %.3f < 0 (busy %d vs bare %d)",
				spec.Name, r.Report.DurabilityOverhead, r.Report.BusyCycles, base.Report.BusyCycles)
		}
	}
}

// TestRunDeterministic is the package-level half of the root determinism
// pin: the rendered report and the durable output images must be
// byte-identical across same-seed reruns, for every model.
func TestRunDeterministic(t *testing.T) {
	models := append([]string{"none"}, pmodel.Names()...)
	for _, model := range models {
		cfg := quickConfig()
		cfg.Model = model
		first := mustRun(t, cfg)
		second := mustRun(t, cfg)
		if first.Report.String() != second.Report.String() {
			t.Fatalf("%s: same-seed reruns differ:\n%s\nvs\n%s",
				model, first.Report.String(), second.Report.String())
		}
		fo, so := first.Outputs(), second.Outputs()
		for i := range fo {
			if !bytes.Equal(fo[i], so[i]) {
				t.Fatalf("%s: durable output %d differs across reruns", model, i)
			}
		}
	}
}

// TestRunCrashRecoversBitExact injects a mid-serving crash under every
// registered model and requires the run to absorb it: recovery happens
// in-loop, the durable image right after recovery matches the crash-free
// run's image after the same launch bit for bit (both runs have served
// exactly the same requests at that instant), and the admission ledger
// holds through the end of the run.
func TestRunCrashRecoversBitExact(t *testing.T) {
	for _, spec := range pmodel.Specs() {
		probe := quickConfig()
		probe.Model = spec.Name
		launches := mustRun(t, probe).Report.Launches
		if launches < 3 {
			t.Fatalf("%s: only %d launches; crash point needs more", spec.Name, launches)
		}
		at := launches / 2

		cfg := probe
		cfg.ObserveAtLaunch = at
		golden := mustRun(t, cfg)
		crash := cfg
		crash.CrashAtLaunch = at
		crash.CrashAfterBlocks = 1
		r := mustRun(t, crash)
		if r.Report.Recoveries != 1 {
			t.Fatalf("%s: %d recoveries, want 1", spec.Name, r.Report.Recoveries)
		}
		if err := r.VerifyLedger(); err != nil {
			t.Fatalf("%s after crash: %v", spec.Name, err)
		}
		gObs, cObs := golden.Observed(), r.Observed()
		if len(gObs) == 0 || len(cObs) == 0 {
			t.Fatalf("%s: missing observation snapshots (%d vs %d)", spec.Name, len(gObs), len(cObs))
		}
		for i := range gObs {
			if !bytes.Equal(gObs[i], cObs[i]) {
				t.Fatalf("%s: durable output %d after recovery diverges from crash-free launch %d", spec.Name, i, at)
			}
		}
	}
}

// TestTokenBucketShedsUnderOverload: a token bucket below the offered
// rate must drop work, and everything admitted still completes and
// verifies.
func TestTokenBucketShedsUnderOverload(t *testing.T) {
	cfg := quickConfig()
	cfg.Policy = "token-bucket"
	cfg.AdmitRatePerMCycle = 30 // well under the ~100/Mcycle offered
	cfg.AdmitBurst = 8
	r := mustRun(t, cfg)
	var admitted, dropped, completed int
	for _, c := range r.Report.Classes {
		admitted += c.Admitted
		dropped += c.Dropped
		completed += c.Completed
	}
	if dropped == 0 {
		t.Fatal("token bucket dropped nothing under overload")
	}
	if completed != admitted {
		t.Fatalf("completed %d != admitted %d", completed, admitted)
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertOverflowAnswered: a store far smaller than the key space
// turns bucket overflows into answered ResultOverflow requests — shed at
// the store, never lost, ledger still exact.
func TestInsertOverflowAnswered(t *testing.T) {
	cfg := quickConfig()
	cfg.StoreBuckets = 1 // 8 slots total
	cfg.KeySpace = 512
	r := mustRun(t, cfg)
	var overflows int
	for _, c := range r.Report.Classes {
		overflows += c.Overflows
	}
	if overflows == 0 {
		t.Fatal("no overflow answers from an 8-slot store under hundreds of inserts")
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.HorizonCycles = 0 },
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Clients = nil },
		func(c *Config) { c.Clients[0].Class = 9 },
		func(c *Config) { c.MaxBatch = 100 }, // not a BlockThreads multiple
		func(c *Config) { c.Model = "mystery" },
		func(c *Config) { c.Policy = "mystery" },
		func(c *Config) { c.Clients[0].Process = "weibull" },
		func(c *Config) { c.CrashAtLaunch = 3; c.Model = "none" },
		func(c *Config) { c.Policy = "token-bucket"; c.AdmitRatePerMCycle = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("bad config %d: error %v, want ErrConfig", i, err)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig does not validate: %v", err)
	}
}

// TestRunCrashPointOutsideGrid: a crash point past a full batch's grid
// could never fire, and a negative one used to run as 1; both are config
// errors that name the point and the grid, never a crash-free run.
func TestRunCrashPointOutsideGrid(t *testing.T) {
	for _, after := range []int{1000, 3, -1} {
		cfg := DefaultConfig()
		cfg.CrashAtLaunch = 3
		cfg.CrashAfterBlocks = after
		_, err := Run(cfg)
		want := fmt.Sprintf("CrashAfterBlocks %d out of range [0, 2]", after)
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), want) {
			t.Errorf("CrashAfterBlocks %d: error %v, want ErrConfig naming %q", after, err, want)
		}
	}
	cfg := DefaultConfig()
	cfg.CrashAtLaunch = 3
	cfg.CrashAfterBlocks = 2
	r, err := Run(cfg)
	if err != nil || r.Report.Recoveries != 1 {
		t.Fatalf("crash after the grid's last block: %v, want one recovery (%v)", err, r)
	}
}

// TestRunCrashNeverReachedIsTyped: a crash armed for a launch the run
// never makes is a config error naming both the launch asked for and
// the launches made, not a crash-free run.
func TestRunCrashNeverReachedIsTyped(t *testing.T) {
	cfg := quickConfig()
	probe := mustRun(t, cfg)
	cfg.CrashAtLaunch = probe.Report.Launches + 1
	_, err := Run(cfg)
	want := fmt.Sprintf("launch %d never struck: the run made %d launches", cfg.CrashAtLaunch, probe.Report.Launches)
	if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run = %v, want ErrConfig naming %q", err, want)
	}
	cfg.CrashAtLaunch = probe.Report.Launches
	if r := mustRun(t, cfg); r.Report.Recoveries != 1 {
		t.Fatalf("crash at the last launch: %d recoveries, want 1", r.Report.Recoveries)
	}
}
