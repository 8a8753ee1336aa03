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

// DeviceView is the router- and placer-visible state of one routable
// device.
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

// pick returns the id of the device cfg.Router sends job j to, among the
// routable candidates (non-empty, ascending id). Round-robin takes the
// next id after its last pick, cyclically; least-loaded the fewest busy
// cycles, ties to the lowest id; region-affinity the shard owner, or
// else the next routable id after it, cyclically. Every choice is a
// deterministic function of the run so far.
func (c *Cluster) pick(j int, cands []DeviceView) int {
	switch c.cfg.Router {
	case LeastLoaded:
		best := cands[0]
		for _, d := range cands[1:] {
			if d.BusyCycles < best.BusyCycles {
				best = d
			}
		}
		return best.ID
	case RegionAffinity:
		return pickAfter(c.Owner(j)-1, 1, cands)[0]
	}
	c.rrLast = pickAfter(c.rrLast, 1, cands)[0]
	return c.rrLast
}
