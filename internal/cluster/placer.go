package cluster

import (
	"encoding/json"
	"fmt"
)

// PlacerKind selects one of the built-in replica placement policies.
type PlacerKind int

const (
	// Spread places replicas on the devices cyclically following the
	// primary in id order — maximum dispersion of a shard's copies.
	Spread PlacerKind = iota
	// Affinity places replicas on the devices cyclically following the
	// shard owner (job % devices) in id order, so a shard's copies
	// cluster around its affinity home regardless of where routing
	// landed the primary.
	Affinity
	numPlacers
)

// String implements fmt.Stringer.
func (k PlacerKind) String() string {
	switch k {
	case Spread:
		return "spread"
	case Affinity:
		return "affinity"
	}
	return fmt.Sprintf("PlacerKind(%d)", int(k))
}

// AllPlacers returns every built-in placer kind.
func AllPlacers() []PlacerKind {
	out := make([]PlacerKind, numPlacers)
	for i := range out {
		out[i] = PlacerKind(i)
	}
	return out
}

// ParsePlacerKind parses a PlacerKind's String form.
func ParsePlacerKind(s string) (PlacerKind, error) {
	for _, k := range AllPlacers() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown placer kind %q", s)
}

// MarshalJSON writes the readable String form.
func (k PlacerKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the String form or the numeric constant.
func (k *PlacerKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		kk, err := ParsePlacerKind(s)
		if err != nil {
			return err
		}
		*k = kk
		return nil
	}
	var i int
	if err := json.Unmarshal(b, &i); err != nil {
		return fmt.Errorf("cluster: placer kind must be a name or number: %s", b)
	}
	if i < 0 || i >= int(numPlacers) {
		return fmt.Errorf("cluster: placer kind %d out of range", i)
	}
	*k = PlacerKind(i)
	return nil
}

// Placer is a pluggable replica placement policy. Replicas chooses n
// distinct replica devices for a job whose shard owner is owner and
// whose primary launch landed on primary, from the candidate devices
// (non-empty, ascending ID, primary excluded). Implementations must be
// deterministic functions of their inputs — the cluster's
// determinism contract extends to placement.
type Placer interface {
	Name() string
	Replicas(job, owner, primary, n int, candidates []DeviceView) []int
}

// newPlacer builds the built-in placer for k.
func newPlacer(k PlacerKind) Placer {
	switch k {
	case Spread:
		return spreadPlacer{}
	case Affinity:
		return affinityPlacer{}
	}
	panic(fmt.Sprintf("cluster: no built-in placer for %v", k))
}

// pickAfter returns up to n candidate ids cyclically following anchor in
// ascending id order — the shared kernel of both built-in placements and
// of round-robin and region-affinity routing.
func pickAfter(anchor, n int, cands []DeviceView) []int {
	if n <= 0 {
		return nil
	}
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, 0, n)
	for _, c := range cands {
		if c.ID > anchor {
			out = append(out, c.ID)
			if len(out) == n {
				return out
			}
		}
	}
	for _, c := range cands {
		if c.ID <= anchor {
			out = append(out, c.ID)
			if len(out) == n {
				return out
			}
		}
	}
	return out
}

type spreadPlacer struct{}

func (spreadPlacer) Name() string { return Spread.String() }

func (spreadPlacer) Replicas(job, owner, primary, n int, cands []DeviceView) []int {
	return pickAfter(primary, n, cands)
}

type affinityPlacer struct{}

func (affinityPlacer) Name() string { return Affinity.String() }

func (affinityPlacer) Replicas(job, owner, primary, n int, cands []DeviceView) []int {
	// The owner itself leads the chain when it is not already the
	// primary: anchor just below it.
	return pickAfter(owner-1, n, cands)
}
