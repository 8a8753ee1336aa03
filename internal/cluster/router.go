package cluster

import (
	"encoding/json"
	"fmt"
)

// RouterKind selects one of the built-in dispatch policies.
type RouterKind int

const (
	// RoundRobin cycles job dispatch over the routable devices in id
	// order — the baseline load spreader.
	RoundRobin RouterKind = iota
	// LeastLoaded dispatches each job to the device with the fewest
	// accumulated busy cycles (ties broken by lowest id).
	LeastLoaded
	// RegionAffinity dispatches each job to its shard owner
	// (job % devices) while the owner is routable, falling back to the
	// next routable id — the placement that keeps a shard's durable bytes
	// on one device until that device is lost.
	RegionAffinity
	numRouters
)

// String implements fmt.Stringer.
func (k RouterKind) String() string {
	switch k {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case RegionAffinity:
		return "region-affinity"
	}
	return fmt.Sprintf("RouterKind(%d)", int(k))
}

// AllRouters returns every built-in router kind.
func AllRouters() []RouterKind {
	out := make([]RouterKind, numRouters)
	for i := range out {
		out[i] = RouterKind(i)
	}
	return out
}

// ParseRouterKind parses a RouterKind's String form.
func ParseRouterKind(s string) (RouterKind, error) {
	for _, k := range AllRouters() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown router kind %q", s)
}

// MarshalJSON writes the readable String form.
func (k RouterKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the String form or the numeric constant.
func (k *RouterKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		kk, err := ParseRouterKind(s)
		if err != nil {
			return err
		}
		*k = kk
		return nil
	}
	var i int
	if err := json.Unmarshal(b, &i); err != nil {
		return fmt.Errorf("cluster: router kind must be a name or number: %s", b)
	}
	if i < 0 || i >= int(numRouters) {
		return fmt.Errorf("cluster: router kind %d out of range", i)
	}
	*k = RouterKind(i)
	return nil
}

// DeviceView is the router-visible state of one routable device.
type DeviceView struct {
	// ID is the device identity (0..Devices-1).
	ID int
	// AvailableAt is the earliest simulated cycle the device could start
	// a new job (its queue drain time, or its rejoin time when stalled).
	AvailableAt int64
	// BusyCycles is the device's accumulated execution time.
	BusyCycles int64
	// Jobs is the number of launches the device has run.
	Jobs int
}

// Router is a pluggable dispatch policy. Pick chooses one of the
// candidate devices (non-empty, ascending ID) for a job whose shard
// owner is owner, returning the chosen device's ID. Implementations must
// be deterministic functions of their inputs and internal state — the
// cluster's determinism contract extends to routing.
type Router interface {
	Name() string
	Pick(job, owner int, candidates []DeviceView) int
}

// newRouter builds the built-in router for k.
func newRouter(k RouterKind) Router {
	switch k {
	case RoundRobin:
		return &roundRobinRouter{last: -1}
	case LeastLoaded:
		return leastLoadedRouter{}
	case RegionAffinity:
		return affinityRouter{}
	}
	panic(fmt.Sprintf("cluster: no built-in router for %v", k))
}

type roundRobinRouter struct{ last int }

func (r *roundRobinRouter) Name() string { return RoundRobin.String() }

func (r *roundRobinRouter) Pick(job, owner int, cands []DeviceView) int {
	pick := cands[0].ID
	for _, c := range cands {
		if c.ID > r.last {
			pick = c.ID
			break
		}
	}
	r.last = pick
	return pick
}

type leastLoadedRouter struct{}

func (leastLoadedRouter) Name() string { return LeastLoaded.String() }

func (leastLoadedRouter) Pick(job, owner int, cands []DeviceView) int {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.BusyCycles < best.BusyCycles {
			best = c
		}
	}
	return best.ID
}

type affinityRouter struct{}

func (affinityRouter) Name() string { return RegionAffinity.String() }

func (affinityRouter) Pick(job, owner int, cands []DeviceView) int {
	for _, c := range cands {
		if c.ID == owner {
			return c.ID
		}
	}
	// Owner lost: next routable id after the owner, cyclically.
	for _, c := range cands {
		if c.ID > owner {
			return c.ID
		}
	}
	return cands[0].ID
}
