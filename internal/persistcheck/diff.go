// Differential checks: the same seeded scenario executed under two
// design points must land on identical persistent contents. These are
// the properties that make the checker transferable — they hold
// regardless of which implementation detail is wrong, because both runs
// share it only if it is deterministic and persistency-correct.
package persistcheck

import (
	"fmt"

	"gpulp/internal/faultsim"
)

// diffFaults are the fault kinds used for differential runs: shapes
// recovery must always repair, so every variant is required to succeed
// (typed errors would make "identical contents" vacuous).
var diffFaults = []faultsim.Kind{
	faultsim.CleanCrash, faultsim.MidKernelCrash,
	faultsim.PartialEviction, faultsim.TornWriteback,
}

// RunDiffStores checks that every checksum-store backend recovers the
// same scenario to identical output contents: the store is recovery
// metadata, and metadata organization must never leak into data.
func (c *Checker) RunDiffStores(sc KernelScenario) error {
	return c.recoverAll(sc, BackendQuad, BackendCuckoo, BackendChained, BackendGlobalArray)
}

// RunDiffModels checks every registered persistency model against LP on
// the same seeded scenario: entirely different persistency mechanisms —
// checksum validation + re-execution, redo-log replay, buffered release
// flags, strict in-order flushing — must converge on identical
// recovered outputs. The scenario's fault kind must be decidable under
// the most restrictive model (they share one applicability matrix).
func (c *Checker) RunDiffModels(sc KernelScenario) error {
	if !faultsim.ModelApplicable(BackendEP, sc.Kernel, sc.Fault) {
		return fmt.Errorf("persistcheck: %v: fault kind not checkable under the non-LP models", sc)
	}
	return c.recoverAll(sc, BackendGlobalArray, BackendEP, BackendSBRP, BackendStrict)
}

// recoverAll runs sc under each backend in turn and requires every
// recovery to succeed: a differential injects only repairable faults, so
// a typed give-up fails it too. The runner compares each variant's
// recovered outputs byte for byte against the golden image, so variants
// that all recover hold identical contents.
func (c *Checker) recoverAll(sc KernelScenario, backends ...string) error {
	for _, backend := range backends {
		v := sc
		v.Backend = backend
		gaveUp, err := c.runKernel(v)
		if err != nil {
			return err
		}
		if gaveUp != "" {
			return fmt.Errorf("persistcheck: %v: recovery gave up (%s) on a repairable fault", v, gaveUp)
		}
	}
	return nil
}
