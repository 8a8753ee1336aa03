package cluster

import (
	"encoding/json"
	"errors"
	"testing"

	"gpulp/internal/core"
)

// testConfig is a small, fast cluster: 3 devices, 6 jobs of 2 blocks.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Devices = 3
	cfg.Jobs = 6
	cfg.BlocksPerJob = 2
	cfg.BlockThreads = 32
	cfg.Seed = 0xdead_beef
	return cfg
}

func TestClusterCleanRun(t *testing.T) {
	cl := MustNew(testConfig())
	rep, err := cl.Run()
	if err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
	if rep.Completed != 6 || rep.Coverage != 1 {
		t.Fatalf("clean run completed %d/%d (coverage %v)", rep.Completed, rep.Jobs, rep.Coverage)
	}
	if rep.Failovers != 0 || len(rep.LostJobs) != 0 {
		t.Fatalf("clean run reported failovers=%d lost=%v", rep.Failovers, rep.LostJobs)
	}
	for _, d := range rep.PerDevice {
		if d.State != Alive {
			t.Fatalf("device %d ended %v in a clean run", d.ID, d.State)
		}
	}
	if err := cl.Verify(); err != nil {
		t.Fatalf("pool audit: %v", err)
	}
}

// TestClusterFailoverEachKind is the acceptance-criterion core: for every
// failure kind, killing a device mid-launch must recover a bit-exact
// durable image via cross-device re-execution, with zero panics.
func TestClusterFailoverEachKind(t *testing.T) {
	for _, kind := range AllFailureKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Failures = []FailurePlan{{Job: 2, Kind: kind, AfterBlocks: 1}}
			cl := MustNew(cfg)
			rep, err := cl.Run()
			if err != nil {
				t.Fatalf("run errored: %v", err)
			}
			if rep.Completed != cfg.Jobs {
				t.Fatalf("completed %d/%d, lost %v", rep.Completed, cfg.Jobs, rep.LostJobs)
			}
			if rep.FailedOver != 1 || rep.Failovers < 1 {
				t.Fatalf("expected exactly one failed-over job (got FailedOver=%d Failovers=%d)",
					rep.FailedOver, rep.Failovers)
			}
			if rep.ReexecutedBlocks < 1 {
				t.Fatalf("mid-launch kill after 1 of 2 blocks must re-execute blocks (got %d)",
					rep.ReexecutedBlocks)
			}
			wantTimeouts := 0
			if kind == Hang || kind == TransientStall {
				wantTimeouts = 1
			}
			if rep.HeartbeatTimeouts != wantTimeouts {
				t.Fatalf("kind %v: heartbeat timeouts = %d, want %d", kind, rep.HeartbeatTimeouts, wantTimeouts)
			}
			if err := cl.Verify(); err != nil {
				t.Fatalf("pool image not bit-exact after failover: %v", err)
			}
			if got := len(cl.Pool().Fences()); got != 0 {
				t.Fatalf("recovered run left %d shards fenced", got)
			}
		})
	}
}

// TestClusterTransientStallRejoins checks that a stalled device comes
// back: with enough jobs behind the stall, round-robin routes work onto
// the rejoined device again and the run records the rejoin.
func TestClusterTransientStallRejoins(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 9
	cfg.Failures = []FailurePlan{{Job: 1, Kind: TransientStall, AfterBlocks: 1, RejoinCycles: 10}}
	cl := MustNew(cfg)
	rep, err := cl.Run()
	if err != nil {
		t.Fatalf("run errored: %v", err)
	}
	if rep.Rejoins < 1 {
		t.Fatalf("transient stall never rejoined (rejoins=%d)", rep.Rejoins)
	}
	for _, d := range rep.PerDevice {
		if d.State == Dead {
			t.Fatalf("transient stall must not leave device %d dead", d.ID)
		}
	}
	if err := cl.Verify(); err != nil {
		t.Fatalf("pool audit: %v", err)
	}
}

// TestClusterFailoverRetryBackoff exercises the cascade path: the first
// failover attempt dies too, so recovery must retry on the next survivor
// with deterministic exponential backoff.
func TestClusterFailoverRetryBackoff(t *testing.T) {
	cfg := testConfig()
	cfg.Failures = []FailurePlan{{Job: 0, Kind: FailStop, AfterBlocks: 1}}
	cfg.FailRecoveryAttempts = 1
	cfg.BackoffBase = 512
	cl := MustNew(cfg)
	rep, err := cl.Run()
	if err != nil {
		t.Fatalf("run errored: %v", err)
	}
	if rep.Failovers < 2 {
		t.Fatalf("cascaded failure needs >= 2 failover attempts (got %d)", rep.Failovers)
	}
	if rep.FailedOver != 1 {
		t.Fatalf("job 0 should ultimately fail over once (got %d)", rep.FailedOver)
	}
	if rep.BackoffCycles < 512 {
		t.Fatalf("retry must charge exponential backoff (got %d cycles)", rep.BackoffCycles)
	}
	if err := cl.Verify(); err != nil {
		t.Fatalf("pool audit: %v", err)
	}
}

// TestClusterDegradedQuorum drives the graceful-degradation contract: a
// 2-device cluster with MinAlive=2 cannot survive a loss, so the run must
// return the typed DegradedClusterError, keep completed shards valid, and
// leave lost shards fenced in the pool.
func TestClusterDegradedQuorum(t *testing.T) {
	cfg := testConfig()
	cfg.Devices = 2
	cfg.MinAlive = 2
	cfg.Failures = []FailurePlan{{Job: 2, Kind: FailStop, AfterBlocks: 1}}
	cl := MustNew(cfg)
	rep, err := cl.Run()
	if err == nil {
		t.Fatal("quorum loss must degrade, got nil error")
	}
	var deg *DegradedClusterError
	if !errors.As(err, &deg) {
		t.Fatalf("error is %T, want *DegradedClusterError", err)
	}
	if !errors.Is(err, core.ErrDegraded) {
		t.Fatal("DegradedClusterError must wrap core.ErrDegraded")
	}
	if !core.IsTypedRecoveryError(err) {
		t.Fatal("degraded cluster outcome must count as a typed recovery error")
	}
	if len(deg.LostJobs) == 0 || deg.Coverage >= 1 {
		t.Fatalf("degraded error carries no loss: %+v", deg)
	}
	if deg.LostBlocks != len(deg.LostJobs)*cfg.BlocksPerJob {
		t.Fatalf("LostBlocks %d inconsistent with %d lost jobs", deg.LostBlocks, len(deg.LostJobs))
	}
	if len(deg.DeadDevices) != 1 {
		t.Fatalf("exactly one device died, error says %v", deg.DeadDevices)
	}
	if rep.Completed == 0 {
		t.Fatal("jobs dispatched before the loss must stay completed")
	}
	// Completed shards still audit bit-exactly; lost shards stay fenced.
	if err := cl.Verify(); err != nil {
		t.Fatalf("completed shards must stay valid in degraded mode: %v", err)
	}
	fences := cl.Pool().Fences()
	if len(fences) != len(deg.LostJobs) {
		t.Fatalf("%d lost jobs but %d fenced shards", len(deg.LostJobs), len(fences))
	}
	// Writing into a fenced (lost) shard must be refused.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("HostWrite into a fenced lost shard must panic")
			}
		}()
		cl.Pool().HostWrite(fences[0].Base, []byte{1, 2, 3, 4})
	}()
}

// TestClusterSingleDeviceLoss: with one device there is no survivor, so a
// fail-stop mid-run degrades rather than panicking or lying.
func TestClusterSingleDeviceLoss(t *testing.T) {
	cfg := testConfig()
	cfg.Devices = 1
	cfg.Failures = []FailurePlan{{Job: 1, Kind: FailStop, AfterBlocks: 1}}
	cl := MustNew(cfg)
	rep, err := cl.Run()
	var deg *DegradedClusterError
	if !errors.As(err, &deg) {
		t.Fatalf("single-device loss must degrade, got %v", err)
	}
	if rep.Completed != 1 {
		t.Fatalf("only job 0 can complete (got %d)", rep.Completed)
	}
	if err := cl.Verify(); err != nil {
		t.Fatalf("job 0's shard must stay valid: %v", err)
	}
}

// TestClusterRouters pins each built-in policy's placement on a clean
// 3-device run.
func TestClusterRouters(t *testing.T) {
	t.Run("round-robin", func(t *testing.T) {
		cfg := testConfig()
		cfg.Router = RoundRobin
		cl := MustNew(cfg)
		rep, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.PerDevice {
			if d.Jobs != 2 {
				t.Fatalf("round-robin over 3 devices × 6 jobs must give 2 each (device %d got %d)", d.ID, d.Jobs)
			}
		}
	})
	t.Run("least-loaded", func(t *testing.T) {
		cfg := testConfig()
		cfg.Router = LeastLoaded
		cl := MustNew(cfg)
		rep, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range rep.PerDevice {
			total += d.Jobs
			if d.Jobs == 0 {
				t.Fatalf("least-loaded must not starve device %d", d.ID)
			}
		}
		if total != cfg.Jobs {
			t.Fatalf("dispatched %d of %d jobs", total, cfg.Jobs)
		}
	})
	t.Run("region-affinity", func(t *testing.T) {
		cfg := testConfig()
		cfg.Router = RegionAffinity
		cl := MustNew(cfg)
		rep, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		// 6 jobs over 3 devices: owner = job % 3, so 2 jobs per device.
		for _, d := range rep.PerDevice {
			if d.Jobs != 2 {
				t.Fatalf("affinity placement: device %d ran %d jobs, want 2", d.ID, d.Jobs)
			}
		}
	})
	t.Run("affinity-falls-over", func(t *testing.T) {
		cfg := testConfig()
		cfg.Router = RegionAffinity
		// Job 1's owner (device 1) dies; jobs 4 (owner 1) must land elsewhere.
		cfg.Failures = []FailurePlan{{Job: 1, Kind: FailStop, AfterBlocks: 1}}
		cl := MustNew(cfg)
		rep, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != cfg.Jobs {
			t.Fatalf("affinity failover completed %d/%d", rep.Completed, cfg.Jobs)
		}
		if rep.PerDevice[1].State != Dead {
			t.Fatalf("device 1 should be dead, is %v", rep.PerDevice[1].State)
		}
		if err := cl.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClusterDeterministicReport: the same Config yields byte-identical
// reports and pool images across independent runs.
func TestClusterDeterministicReport(t *testing.T) {
	run := func() ([]byte, []byte) {
		cfg := testConfig()
		cfg.Failures = []FailurePlan{
			{Job: 1, Kind: Hang, AfterBlocks: 1},
			{Job: 4, Kind: FailStop, AfterBlocks: 1},
		}
		cl := MustNew(cfg)
		rep, err := cl.Run()
		if err != nil {
			t.Fatalf("run errored: %v", err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return js, cl.Pool().NVMImage()
	}
	r1, img1 := run()
	r2, img2 := run()
	if string(r1) != string(r2) {
		t.Fatalf("reports diverge:\n%s\n%s", r1, r2)
	}
	if string(img1) != string(img2) {
		t.Fatal("pool images diverge across identical runs")
	}
}

func TestClusterConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero devices", func(c *Config) { c.Devices = 0 }},
		{"quorum above devices", func(c *Config) { c.MinAlive = 99 }},
		{"unknown router", func(c *Config) { c.Router = RouterKind(42) }},
		{"shard misaligned to fusion", func(c *Config) { c.LP.Fusion = 4; c.BlocksPerJob = 2 }},
		{"failure job out of range", func(c *Config) {
			c.Failures = []FailurePlan{{Job: 99, Kind: FailStop}}
		}},
		{"duplicate failure plan", func(c *Config) {
			c.Failures = []FailurePlan{{Job: 1, Kind: FailStop}, {Job: 1, Kind: Hang}}
		}},
		{"unknown failure kind", func(c *Config) {
			c.Failures = []FailurePlan{{Job: 1, Kind: FailureKind(9)}}
		}},
		{"failure past job end", func(c *Config) {
			c.Failures = []FailurePlan{{Job: 1, Kind: FailStop, AfterBlocks: 3}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatalf("%s: New accepted an invalid config", tc.name)
			}
		})
	}
}

func TestParseKinds(t *testing.T) {
	for _, k := range AllFailureKinds() {
		got, err := ParseFailureKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseFailureKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseFailureKind("meteor-strike"); err == nil {
		t.Fatal("unknown failure kind must not parse")
	}
	for _, r := range AllRouters() {
		got, err := ParseRouterKind(r.String())
		if err != nil || got != r {
			t.Fatalf("ParseRouterKind(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseRouterKind("random"); err == nil {
		t.Fatal("unknown router kind must not parse")
	}
}
