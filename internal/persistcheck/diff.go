// Differential checks: the same seeded scenario executed under two
// design points must land on identical persistent contents. These are
// the properties that make the checker transferable — they hold
// regardless of which implementation detail is wrong, because both runs
// share it only if it is deterministic and persistency-correct.
package persistcheck

import (
	"bytes"
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
	var ref *runArtifacts
	refBackend := ""
	for _, backend := range []string{BackendQuad, BackendCuckoo, BackendChained, BackendGlobalArray} {
		v := sc
		v.Backend = backend
		art, err := c.runKernel(v)
		if err != nil {
			return err
		}
		if art.typedErr {
			return fmt.Errorf("persistcheck: %v: recovery gave up (%s) on a repairable fault", v, art.errText)
		}
		if ref == nil {
			ref, refBackend = art, backend
			continue
		}
		if err := diffOutputs(fmt.Sprintf("%v: %s vs %s", sc, refBackend, backend), ref, art); err != nil {
			return err
		}
	}
	return nil
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
	lpv := sc
	lpv.Backend = BackendGlobalArray
	ref, err := c.runKernel(lpv)
	if err != nil {
		return err
	}
	if ref.typedErr {
		return fmt.Errorf("persistcheck: %v: LP recovery gave up (%s) on a repairable fault", lpv, ref.errText)
	}
	for _, backend := range Backends {
		if !isModelBackend(backend) {
			continue
		}
		v := sc
		v.Backend = backend
		art, err := c.runKernel(v)
		if err != nil {
			return err
		}
		if err := diffOutputs(fmt.Sprintf("%v: LP vs %s", sc, backend), ref, art); err != nil {
			return err
		}
	}
	return nil
}

func diffOutputs(label string, a, b *runArtifacts) error {
	if a.typedErr != b.typedErr {
		return fmt.Errorf("persistcheck: %s: one variant recovered, the other gave up (%s%s)", label, a.errText, b.errText)
	}
	if len(a.outputs) != len(b.outputs) {
		return fmt.Errorf("persistcheck: %s: output region count differs: %d vs %d", label, len(a.outputs), len(b.outputs))
	}
	for i := range a.outputs {
		if !bytes.Equal(a.outputs[i], b.outputs[i]) {
			return fmt.Errorf("persistcheck: %s: recovered contents of output region %d differ", label, i)
		}
	}
	return nil
}
