package cluster

import (
	"encoding/json"
	"fmt"

	"gpulp/internal/core"
)

// FailureKind is a device-failure shape the seeded injector can arm.
type FailureKind int

const (
	// FailStop kills the device instantly mid-launch: its cache is
	// dropped (the NVM image stays harvestable) and the device never
	// responds again. Detected at the moment of the crash.
	FailStop FailureKind = iota
	// Hang stops the device's forward progress mid-launch, crashing it at
	// the same block boundary as FailStop; the control plane detects the
	// silence once the device has been quiet for the heartbeat timeout
	// (25,000 cycles), then fences the device out for good.
	Hang
	// TransientStall is Hang followed by a rejoin: the device comes back
	// RejoinCycles after detection and is routable again, but its
	// in-flight job has already been failed over.
	TransientStall
	numFailureKinds
)

// String implements fmt.Stringer.
func (k FailureKind) String() string {
	switch k {
	case FailStop:
		return "fail-stop"
	case Hang:
		return "hang"
	case TransientStall:
		return "transient-stall"
	}
	return fmt.Sprintf("FailureKind(%d)", int(k))
}

// AllFailureKinds returns every failure kind.
func AllFailureKinds() []FailureKind {
	out := make([]FailureKind, numFailureKinds)
	for i := range out {
		out[i] = FailureKind(i)
	}
	return out
}

// ParseFailureKind parses a FailureKind's String form.
func ParseFailureKind(s string) (FailureKind, error) {
	for _, k := range AllFailureKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown failure kind %q", s)
}

// MarshalJSON writes the readable String form.
func (k FailureKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the String form or the numeric constant.
func (k *FailureKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		kk, err := ParseFailureKind(s)
		if err != nil {
			return err
		}
		*k = kk
		return nil
	}
	var i int
	if err := json.Unmarshal(b, &i); err != nil {
		return fmt.Errorf("cluster: failure kind must be a name or number: %s", b)
	}
	if i < 0 || i >= int(numFailureKinds) {
		return fmt.Errorf("cluster: failure kind %d out of range", i)
	}
	*k = FailureKind(i)
	return nil
}

// FailurePlan arms one injected device failure: whichever device the
// router hands job Job is failed after AfterBlocks of that launch have
// retired. Plans are keyed by job, not device, so a sweep exercises every
// router without re-deriving which device dies.
type FailurePlan struct {
	// Job is the launch to kill (0..Jobs-1).
	Job int `json:"job"`
	// Kind is the failure shape.
	Kind FailureKind `json:"kind"`
	// AfterBlocks is how many of the job's blocks retire before the
	// failure hits (default 1; at most BlocksPerJob).
	AfterBlocks int `json:"after_blocks"`
	// RejoinCycles, for TransientStall, is the delay after detection
	// before the device is routable again (default 4 × the heartbeat
	// timeout, 100,000 cycles).
	RejoinCycles int64 `json:"rejoin_cycles,omitempty"`
}

// DeviceState is a device's liveness from the control plane's view.
type DeviceState int

const (
	// Alive devices accept jobs.
	Alive DeviceState = iota
	// Stalled devices are silent but will rejoin at a known cycle.
	Stalled
	// Dead devices are fenced out for good.
	Dead
)

// String implements fmt.Stringer.
func (s DeviceState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Stalled:
		return "stalled"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("DeviceState(%d)", int(s))
}

// MarshalJSON writes the readable String form.
func (s DeviceState) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// DegradedClusterError is the typed graceful-degradation outcome of a
// cluster run: every completed job's shard of the shared durable image
// is valid and published, but the listed jobs were lost — their failover
// budget was exhausted, or quorum dropped below MinAlive before they
// could run. Lost shards stay write-fenced in the pool. It wraps
// core.ErrDegraded so cluster callers share the single-device degraded
// taxonomy (errors.Is(err, core.ErrDegraded) holds).
type DegradedClusterError struct {
	// Coverage is completed jobs over total jobs (0..1).
	Coverage float64
	// LostJobs lists the unrecovered job indices in ascending order.
	LostJobs []int
	// LostBlocks is the total thread-block count behind the lost jobs.
	LostBlocks int
	// DeadDevices lists the devices that were fenced out, ascending.
	DeadDevices []int
}

// Error implements error.
func (e *DegradedClusterError) Error() string {
	return fmt.Sprintf("cluster: degraded completion: %d jobs lost (%d blocks, coverage %.4f, %d devices dead): %v",
		len(e.LostJobs), e.LostBlocks, e.Coverage, len(e.DeadDevices), core.ErrDegraded)
}

// Unwrap ties every DegradedClusterError to the core.ErrDegraded
// sentinel.
func (e *DegradedClusterError) Unwrap() error { return core.ErrDegraded }

// Is makes errors.Is(err, core.ErrDegraded) hold even when a wrapper
// hides the Unwrap chain, consistently with core.DegradedError.
func (e *DegradedClusterError) Is(target error) bool { return target == core.ErrDegraded }
