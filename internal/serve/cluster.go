package serve

import "fmt"

// cluster.go configures cluster-backed serving: the serving loop
// (server.go) over a fleet of several devices. Every batch launches on
// every alive device, so each device's durable store is a full replica
// of the service state. Losing a device mid-serving therefore costs nothing to
// repair — the batch in flight is already complete on the survivors
// (adoption), and serving continues in degraded mode, shedding
// bulk-class arrivals before interactive ones until the run ends. Only
// when the last alive device fails is there anything to recover, and
// that path runs the persistency model's recovery under a bounded
// retry/backoff budget.
//
// Replication here is full-state (every device serves every batch), the
// serving-layer counterpart of internal/cluster's per-shard replica
// placement: the cluster package replicates shards R ways below the
// job layer; this file replicates whole epochs device-wide above it.
// Both preserve the determinism contract — a cluster run is a pure
// function of its ClusterConfig.

// ClusterConfig describes one cluster-backed serving run.
type ClusterConfig struct {
	Config

	// Devices is the fleet size; every batch launches on every alive
	// device, so each device's store is a full replica.
	Devices int
	// FailAtLaunch, when positive, fail-stops device FailDevice midway
	// through the Nth kernel launch (after FailAfterBlocks thread
	// blocks, default 1): its memory system crashes and, when survivors
	// remain, the device is removed from the fleet without any recovery
	// work (the survivors already carry the batch).
	FailAtLaunch    int
	FailDevice      int
	FailAfterBlocks int
	// MaxRetries bounds recovery attempts when the failing device was
	// the last one alive; each retry after the first charges an
	// exponentially growing backoff (RetryBackoffCycles << (attempt-2)).
	MaxRetries         int
	RetryBackoffCycles int64
	// DegradedKeepClasses is how many leading SLO classes (lowest
	// indices — the most latency-sensitive) keep being admitted once
	// the fleet is degraded; arrivals of every later class are shed at
	// the door. 0 sheds everything; len(Classes) sheds nothing.
	DegradedKeepClasses int
	// FailRecoveryAttempts is a test hook: the first N last-device
	// recovery attempts fail deterministically, exercising the
	// retry/backoff path without a second fault injector.
	FailRecoveryAttempts int
}

// DefaultClusterConfig returns DefaultConfig served by a two-device
// fleet with a modest retry budget and interactive-only degraded mode.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Config:              DefaultConfig(),
		Devices:             2,
		MaxRetries:          2,
		RetryBackoffCycles:  4096,
		DegradedKeepClasses: 1,
	}
}

// Validate reports the first configuration problem wrapped in ErrConfig.
func (c ClusterConfig) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrConfig, fmt.Sprintf(format, args...))
	}
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Devices <= 0 {
		return fail("cluster serving needs a positive device count, got %d", c.Devices)
	}
	if c.CrashAtLaunch != 0 {
		return fail("cluster serving injects failures via FailAtLaunch, not CrashAtLaunch")
	}
	if c.FailAtLaunch < 0 {
		return fail("FailAtLaunch must be non-negative")
	}
	if err := c.checkCrashPoint("FailAfterBlocks", c.FailAfterBlocks); err != nil {
		return err
	}
	if c.FailAtLaunch > 0 {
		if bareModel(c.Model) {
			return fail("FailAtLaunch requires a persistency model, got %q", c.Model)
		}
		if c.FailDevice < 0 || c.FailDevice >= c.Devices {
			return fail("FailDevice %d out of range [0, %d)", c.FailDevice, c.Devices)
		}
		if c.MaxRetries <= 0 {
			return fail("FailAtLaunch needs a positive MaxRetries budget")
		}
	}
	if c.MaxRetries < 0 {
		return fail("MaxRetries must be non-negative")
	}
	if c.RetryBackoffCycles < 0 {
		return fail("RetryBackoffCycles must be non-negative")
	}
	if c.DegradedKeepClasses < 0 || c.DegradedKeepClasses > len(c.Classes) {
		return fail("DegradedKeepClasses %d out of range [0, %d]", c.DegradedKeepClasses, len(c.Classes))
	}
	if c.FailRecoveryAttempts < 0 {
		return fail("FailRecoveryAttempts must be non-negative")
	}
	return nil
}

// ClusterReport is a cluster run's summary: the usual serving report
// (fleet-wide busy/drain totals) plus the degradation ledger.
type ClusterReport struct {
	Report
	// Devices is the configured fleet size; DeadDevices lists the
	// devices lost during the run, in failure order.
	Devices     int   `json:"devices"`
	DeadDevices []int `json:"dead_devices,omitempty"`
	// AdoptedBatches counts batches whose failing device was simply
	// dropped because survivors already carried them — failovers that
	// cost zero recovery cycles.
	AdoptedBatches int `json:"adopted_batches,omitempty"`
	// DegradedSheds counts arrivals shed by degraded-mode class
	// filtering (they also appear in their class's Dropped column).
	DegradedSheds int `json:"degraded_sheds,omitempty"`
	// RetriesUsed counts extra last-device recovery attempts beyond the
	// first; RetryBackoffCycles is the total backoff charged for them.
	RetriesUsed        int   `json:"retries_used,omitempty"`
	RetryBackoffCycles int64 `json:"retry_backoff_cycles,omitempty"`
}

// String renders the base report plus one cluster line (the
// determinism pins compare these byte-for-byte).
func (rep *ClusterReport) String() string {
	return rep.Report.String() + fmt.Sprintf(
		"  cluster: devices=%d dead=%v adopted=%d degraded_sheds=%d retries=%d backoff=%d\n",
		rep.Devices, rep.DeadDevices, rep.AdoptedBatches, rep.DegradedSheds,
		rep.RetriesUsed, rep.RetryBackoffCycles)
}

// ClusterRunResult is a finished cluster serving run.
type ClusterRunResult struct {
	Report *ClusterReport
	fleet
}

// RunCluster executes one cluster-backed serving run to completion.
func RunCluster(cfg ClusterConfig) (*ClusterRunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runFleet(cfg)
}
