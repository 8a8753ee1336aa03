package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gpulp/internal/core"
)

// quickClusterConfig scales DefaultClusterConfig down like quickConfig.
func quickClusterConfig() ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.HorizonCycles = 400_000
	return cfg
}

func mustRunCluster(t *testing.T, cfg ClusterConfig) *ClusterRunResult {
	t.Helper()
	r, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestClusterSingleDeviceMatchesRun pins that a one-device cluster is
// the plain serving loop, byte for byte: same report, same durable
// outputs.
func TestClusterSingleDeviceMatchesRun(t *testing.T) {
	ccfg := quickClusterConfig()
	ccfg.Devices = 1
	cr := mustRunCluster(t, ccfg)
	sr := mustRun(t, ccfg.Config)

	if got, want := cr.Report.Report.String(), sr.Report.String(); got != want {
		t.Fatalf("one-device cluster report diverged from Run:\n%s\nvs\n%s", got, want)
	}
	co, so := cr.Outputs(), sr.Outputs()
	if len(co) != len(so) {
		t.Fatalf("output region count %d vs %d", len(co), len(so))
	}
	for i := range co {
		if !bytes.Equal(co[i], so[i]) {
			t.Fatalf("output region %d diverged", i)
		}
	}
}

// TestClusterCleanReplication checks that with no failures every
// replica's durable store is bit-identical and the ledger verifies
// against all of them.
func TestClusterCleanReplication(t *testing.T) {
	cfg := quickClusterConfig()
	cfg.Devices = 3
	r := mustRunCluster(t, cfg)

	if got := r.AliveDevices(); len(got) != 3 {
		t.Fatalf("expected all 3 devices alive, got %v", got)
	}
	if r.Report.AdoptedBatches != 0 || r.Report.DegradedSheds != 0 || len(r.Report.DeadDevices) != 0 {
		t.Fatalf("clean run reported degradation: %+v", r.Report)
	}
	base := r.nodes[0].outputs()
	for _, d := range r.nodes[1:] {
		imgs := d.outputs()
		for i := range base {
			if !bytes.Equal(base[i], imgs[i]) {
				t.Fatalf("device %d output region %d diverged from device 0", d.id, i)
			}
		}
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterAdoptionOnFailure fail-stops one device mid-batch and
// checks the survivors carry the batch with zero recovery work.
func TestClusterAdoptionOnFailure(t *testing.T) {
	cfg := quickClusterConfig()
	cfg.Devices = 3
	cfg.FailAtLaunch = 2
	cfg.FailDevice = 1
	r := mustRunCluster(t, cfg)
	rep := r.Report

	if len(rep.DeadDevices) != 1 || rep.DeadDevices[0] != 1 {
		t.Fatalf("expected device 1 dead, got %v", rep.DeadDevices)
	}
	if rep.AdoptedBatches != 1 {
		t.Fatalf("expected 1 adopted batch, got %d", rep.AdoptedBatches)
	}
	if rep.Recoveries != 0 || rep.RecoveryCycles != 0 || rep.RetriesUsed != 0 {
		t.Fatalf("adoption must cost zero recovery work: %+v", rep)
	}
	if got := r.AliveDevices(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("expected devices [0 2] alive, got %v", got)
	}
	base := r.nodes[0].outputs()
	imgs := r.nodes[2].outputs()
	for i := range base {
		if !bytes.Equal(base[i], imgs[i]) {
			t.Fatalf("surviving replicas diverged in output region %d", i)
		}
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDegradedShedding checks that after a device loss the
// bulk class is shed at the door while the interactive class keeps
// being admitted — and that widening DegradedKeepClasses to cover
// every class disables shedding entirely.
func TestClusterDegradedShedding(t *testing.T) {
	cfg := quickClusterConfig()
	cfg.Devices = 2
	cfg.FailAtLaunch = 1
	cfg.FailDevice = 1
	r := mustRunCluster(t, cfg)
	rep := r.Report

	if rep.DegradedSheds == 0 {
		t.Fatal("expected degraded-mode sheds after losing a device")
	}
	// Interactive (class 0) is kept: its drops must all be policy
	// drops, and always-admit never drops.
	if got := rep.Classes[0].Dropped; got != 0 {
		t.Fatalf("interactive class shed %d requests in degraded mode", got)
	}
	if got := rep.Classes[1].Dropped; got != rep.DegradedSheds {
		t.Fatalf("bulk drops %d != degraded sheds %d", got, rep.DegradedSheds)
	}
	if rep.Classes[0].Admitted == 0 {
		t.Fatal("interactive class starved under degraded mode")
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatal(err)
	}

	cfg.DegradedKeepClasses = len(cfg.Classes)
	r2 := mustRunCluster(t, cfg)
	if r2.Report.DegradedSheds != 0 {
		t.Fatalf("DegradedKeepClasses=all still shed %d", r2.Report.DegradedSheds)
	}
}

// TestClusterLastDeviceRetryBackoff drives the bounded retry path: a
// single-device fleet whose first two recovery attempts fail must
// succeed on the third with exponential backoff charged, and a
// too-small budget must surface the typed error.
func TestClusterLastDeviceRetryBackoff(t *testing.T) {
	cfg := quickClusterConfig()
	cfg.Devices = 1
	cfg.FailAtLaunch = 2
	cfg.MaxRetries = 3
	cfg.RetryBackoffCycles = 4096
	cfg.FailRecoveryAttempts = 2
	r := mustRunCluster(t, cfg)
	rep := r.Report

	if rep.Recoveries != 1 {
		t.Fatalf("expected 1 recovery, got %d", rep.Recoveries)
	}
	if rep.RetriesUsed != 2 {
		t.Fatalf("expected 2 retries, got %d", rep.RetriesUsed)
	}
	if want := int64(4096 + 8192); rep.RetryBackoffCycles != want {
		t.Fatalf("backoff cycles %d, want %d", rep.RetryBackoffCycles, want)
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatal(err)
	}

	cfg.MaxRetries = 2
	cfg.FailRecoveryAttempts = 2
	if _, err := RunCluster(cfg); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("exhausted retry budget should surface the recovery error, got %v", err)
	}
}

// TestClusterValidation pins the cluster-specific config rejections.
func TestClusterValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ClusterConfig)
	}{
		{"zero devices", func(c *ClusterConfig) { c.Devices = 0 }},
		{"crash-at-launch knob", func(c *ClusterConfig) { c.CrashAtLaunch = 1 }},
		{"negative fail launch", func(c *ClusterConfig) { c.FailAtLaunch = -1 }},
		{"negative fail point", func(c *ClusterConfig) { c.FailAtLaunch = 1; c.FailAfterBlocks = -1 }},
		{"fail point past the grid", func(c *ClusterConfig) { c.FailAtLaunch = 1; c.FailAfterBlocks = 1000 }},
		{"bare model failure", func(c *ClusterConfig) { c.FailAtLaunch = 1; c.Model = "none" }},
		{"fail device range", func(c *ClusterConfig) { c.FailAtLaunch = 1; c.FailDevice = 5 }},
		{"no retry budget", func(c *ClusterConfig) { c.FailAtLaunch = 1; c.MaxRetries = 0 }},
		{"negative retries", func(c *ClusterConfig) { c.MaxRetries = -1 }},
		{"negative backoff", func(c *ClusterConfig) { c.RetryBackoffCycles = -1 }},
		{"keep classes range", func(c *ClusterConfig) { c.DegradedKeepClasses = 3 }},
		{"negative inject", func(c *ClusterConfig) { c.FailRecoveryAttempts = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultClusterConfig()
			tc.mut(&cfg)
			if _, err := RunCluster(cfg); !errors.Is(err, ErrConfig) {
				t.Fatalf("expected ErrConfig, got %v", err)
			}
		})
	}
}

// TestClusterDeterministicReport pins that a degraded cluster run is a
// pure function of its config: rerunning reproduces the report and
// durable outputs byte-identically.
func TestClusterDeterministicReport(t *testing.T) {
	cfg := quickClusterConfig()
	cfg.Devices = 3
	cfg.FailAtLaunch = 2
	cfg.FailDevice = 0
	cfg.Model = "sbrp"

	a := mustRunCluster(t, cfg)
	b := mustRunCluster(t, cfg)
	if a.Report.String() != b.Report.String() {
		t.Fatalf("cluster report not deterministic:\n%s\nvs\n%s", a.Report, b.Report)
	}
	ao, bo := a.Outputs(), b.Outputs()
	for i := range ao {
		if !bytes.Equal(ao[i], bo[i]) {
			t.Fatalf("durable output region %d not deterministic", i)
		}
	}
}

// TestClusterFailureNeverReachedIsTyped: RunCluster's FailAtLaunch past
// the run's last launch is a config error naming both counts, not a
// failure-free run.
func TestClusterFailureNeverReachedIsTyped(t *testing.T) {
	cfg := quickClusterConfig()
	probe := mustRunCluster(t, cfg)
	cfg.FailAtLaunch = probe.Report.Launches + 1
	cfg.FailDevice = 1
	_, err := RunCluster(cfg)
	want := fmt.Sprintf("launch %d never struck: the run made %d launches", cfg.FailAtLaunch, probe.Report.Launches)
	if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), want) {
		t.Fatalf("RunCluster = %v, want ErrConfig naming %q", err, want)
	}
	cfg.FailAtLaunch = probe.Report.Launches
	if r := mustRunCluster(t, cfg); len(r.Report.DeadDevices) != 1 {
		t.Fatalf("failure at the last launch: dead devices %v, want one", r.Report.DeadDevices)
	}
}
