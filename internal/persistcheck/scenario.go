// Kernel scenario family: full persistency-model runs of the benchmark
// suite under seeded fault injection, with three layers of assertions —
// the oracle image equality, the independent prediction of the model's
// recovery verdict from the oracle image alone (each model's own
// durable-state contract, LP included), and bit-exact recovery against
// the fault-free golden image.
package persistcheck

import (
	"fmt"

	"gpulp/internal/faultsim"
	"gpulp/internal/hashtab"
	"gpulp/internal/memsim"
)

// Backend names a persistency design point: one of the four LP checksum
// store organizations, or a non-LP model from the pmodel registry (the
// EP redo-log baseline, scoped buffered release, strict persistency).
const (
	BackendQuad        = "quad"
	BackendCuckoo      = "cuckoo"
	BackendChained     = "chained"
	BackendGlobalArray = "global-array"
	BackendEP          = "ep"
	BackendSBRP        = "sbrp"
	BackendStrict      = "strict"
)

// Backends lists every design point the checker exercises.
var Backends = []string{BackendQuad, BackendCuckoo, BackendChained, BackendGlobalArray,
	BackendEP, BackendSBRP, BackendStrict}

// isModelBackend reports whether backend is a non-LP pmodel registry
// model rather than an LP checksum store.
func isModelBackend(backend string) bool {
	return backend == BackendEP || backend == BackendSBRP || backend == BackendStrict
}

// modelOf names the pmodel registry model a backend runs: the LP store
// organizations all run "lp".
func modelOf(backend string) string {
	if isModelBackend(backend) {
		return backend
	}
	return "lp"
}

// KernelScenario is one replayable kernel-level check.
type KernelScenario struct {
	Kernel  string `json:"kernel"`
	Backend string `json:"backend"`
	// Epochs runs this many LP epochs, the fault striking the last one
	// (requires an idempotent dense kernel when > 1).
	Epochs int           `json:"epochs,omitempty"`
	Fault  faultsim.Kind `json:"fault"`
	Seed   uint64        `json:"seed"`
	// AfterBlocks pins the mid-kernel crash point (0 = derive from Seed).
	AfterBlocks int `json:"after_blocks,omitempty"`
	// Flips pins the injected bit-flip count (0 = derive from Seed).
	Flips int `json:"flips,omitempty"`
}

// String implements fmt.Stringer.
func (s KernelScenario) String() string {
	out := fmt.Sprintf("%s/%s/%s seed=%#x", s.Kernel, s.Backend, s.Fault, s.Seed)
	if s.Epochs > 1 {
		out += fmt.Sprintf(" epochs=%d", s.Epochs)
	}
	if s.AfterBlocks > 0 {
		out += fmt.Sprintf(" after=%d", s.AfterBlocks)
	}
	if s.Flips > 0 {
		out += fmt.Sprintf(" flips=%d", s.Flips)
	}
	return out
}

// Checker runs kernel scenarios against cached golden images on a fixed
// simulated platform.
type Checker struct {
	// Opt fixes the platform (memory hierarchy, device, LP defaults).
	Opt faultsim.Options

	goldens map[string]*faultsim.Golden
}

// NewChecker builds a checker on the default campaign platform.
func NewChecker() *Checker {
	return &Checker{
		Opt:     faultsim.DefaultOptions(),
		goldens: map[string]*faultsim.Golden{},
	}
}

// golden returns the cached fault-free reference image for kernel.
func (c *Checker) golden(kernel string) (*faultsim.Golden, error) {
	if g, ok := c.goldens[kernel]; ok {
		return g, nil
	}
	g, err := faultsim.GoldenRun(c.Opt, kernel)
	if err != nil {
		return nil, err
	}
	c.goldens[kernel] = g
	return g, nil
}

// RunKernel executes one kernel scenario and returns the first
// persistency-contract violation (nil when the scenario passes; an
// honestly-reported typed recovery error is a pass).
func (c *Checker) RunKernel(sc KernelScenario) error {
	_, err := c.runKernel(sc)
	return err
}

// runKernel runs sc through faultsim's case runner, which asserts all
// three layers: the oracle image equality after the strike and after
// recovery, the model's predicted damage (read from the oracle image)
// against what its recovery repairs, and the recovered outputs against
// the golden image. The checker adds the oracle, the leading epochs, the
// backend's store organization and, for ep, a redo log sized by the
// golden run. gaveUp carries the text of a typed recovery error, the honest
// outcome for damage beyond repair; err is every other failure.
func (c *Checker) runKernel(sc KernelScenario) (gaveUp string, err error) {
	model := modelOf(sc.Backend)
	golden, err := c.golden(sc.Kernel)
	if err != nil {
		return "", err
	}
	opt, epEntries := c.Opt, 0
	switch {
	case model == "lp":
		if opt.LP.Store, err = parseBackend(sc.Backend); err != nil {
			return "", err
		}
	case sc.Backend == BackendEP:
		// The busiest block's stores, plus one entry of slack for
		// re-execution.
		epEntries = golden.MaxBlockStores() + 1
	}
	cs := faultsim.Case{Kernel: sc.Kernel, Kind: sc.Fault, Seed: sc.Seed, Model: model,
		AfterBlocks: sc.AfterBlocks, Flips: sc.Flips}
	res, err := faultsim.RunAudited(opt, cs, golden, sc.Epochs, epEntries,
		func(mem *memsim.Memory) faultsim.Audit { return AttachOracle(mem) })
	switch {
	case err != nil:
		return "", fmt.Errorf("persistcheck: %v: %w", sc, err)
	case res.Outcome == faultsim.TypedError:
		return res.Err, nil
	case res.Outcome != faultsim.Recovered:
		return "", fmt.Errorf("persistcheck: %v: %v: %s", sc, res.Outcome, res.Err)
	}
	return "", nil
}

func parseBackend(name string) (hashtab.Kind, error) {
	for _, k := range []hashtab.Kind{hashtab.Quad, hashtab.Cuckoo, hashtab.GlobalArray, hashtab.Chained} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("persistcheck: unknown backend %q", name)
}
