package persistcheck

import (
	"testing"
)

// TestScrubTransientOnly: with no stuck-at faults, every scenario must
// heal to a bit-exact image — transient flips are exactly what the ECC
// scrub repairs.
func TestScrubTransientOnly(t *testing.T) {
	c := NewChecker()
	for _, sc := range []ScrubScenario{
		{Seed: 0x51, Transient: 0.01},
		{Seed: 0x52, Transient: 0.05, ScrubEvery: 1},
		{Seed: 0x53, Transient: 0.1, Epochs: 3},
	} {
		if err := c.RunScrub(sc); err != nil {
			t.Errorf("%v: %v", sc, err)
		}
	}
}

// TestScrubStuckFaults: permanent stuck-at faults force the quarantine
// machinery (and, under locks, the watchdog); the contract — heal
// bit-exactly, degrade honestly, or fail typed — must hold throughout.
func TestScrubStuckFaults(t *testing.T) {
	c := NewChecker()
	for _, sc := range []ScrubScenario{
		{Seed: 0x61, Transient: 0.1, StuckFrac: 0.3},
		{Seed: 0x62, Transient: 0.2, StuckFrac: 0.5, ScrubEvery: 1},
		{Seed: 0x63, Transient: 0.15, StuckFrac: 0.3, Locks: true},
	} {
		if err := c.RunScrub(sc); err != nil {
			t.Errorf("%v: %v", sc, err)
		}
	}
}

// TestScrubGenDeterministic: the generator is a pure function of the
// seed, the precondition for replayable fuzzing.
func TestScrubGenDeterministic(t *testing.T) {
	for seed := uint64(1); seed < 200; seed++ {
		if a, b := GenScrub(seed), GenScrub(seed); a != b {
			t.Fatalf("seed %d: %v vs %v", seed, a, b)
		}
	}
}

// TestScrubGenContract runs a small band of generated scenarios
// end-to-end (the fuzzing loop in miniature).
func TestScrubGenContract(t *testing.T) {
	if testing.Short() {
		t.Skip("generated scrub band is slow")
	}
	c := NewChecker()
	for seed := uint64(100); seed < 112; seed++ {
		sc := GenScrub(seed)
		if err := c.RunScrub(sc); err != nil {
			t.Errorf("%v: %v", sc, err)
		}
	}
}

// TestScrubShrinkKeepsPassing: the shrinker must return a passing
// scenario unchanged (it only minimizes failures).
func TestScrubShrinkKeepsPassing(t *testing.T) {
	c := NewChecker()
	sc := ScrubScenario{Seed: 0x51, Transient: 0.01, Locks: true, Epochs: 2}
	if got := c.shrinkScrub(sc); got != sc {
		t.Fatalf("shrinker changed a passing scenario: %v -> %v", sc, got)
	}
}
