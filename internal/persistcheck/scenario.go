// Kernel scenario family: full persistency-model runs of the benchmark
// suite under seeded fault injection, with three layers of assertions —
// the oracle image equality, the independent prediction of the model's
// recovery verdict from the oracle image alone (each model's own
// durable-state contract, LP included), and bit-exact recovery against
// the fault-free golden image.
package persistcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"gpulp/internal/core"
	"gpulp/internal/faultsim"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
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

	goldens   map[string]*faultsim.Golden
	epEntries map[string]int
}

// NewChecker builds a checker on the default campaign platform.
func NewChecker() *Checker {
	return &Checker{
		Opt:       faultsim.DefaultOptions(),
		goldens:   map[string]*faultsim.Golden{},
		epEntries: map[string]int{},
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

// logEntriesFor sizes the EP redo log for kernel: a fault-free dry run
// on a scratch system counts the protected stores of every block; the
// maximum (plus slack for re-execution) is the per-block capacity.
func (c *Checker) logEntriesFor(kernel string) (int, error) {
	if n, ok := c.epEntries[kernel]; ok {
		return n, nil
	}
	mem := memsim.MustNew(c.Opt.Mem)
	dev := gpusim.MustNew(c.Opt.Dev, mem)
	w := kernels.New(kernel, c.Opt.Scale)
	w.Setup(dev)
	grid, blk := w.Geometry()
	counts := make([]int, grid.Size())
	outs := w.Outputs()
	dev.SetStoreHook(func(t *gpusim.Thread, r memsim.Region, elemIdx int, bits uint32) {
		for _, o := range outs {
			if o.Base == r.Base {
				counts[t.Block().LinearIdx]++
				return
			}
		}
	})
	dev.Launch(kernel, grid, blk, w.Kernel(nil))
	max := 1
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	c.epEntries[kernel] = max + 1
	return max + 1, nil
}

// runArtifacts carries what a scenario run produced, for differential
// comparison across runs.
type runArtifacts struct {
	// typedErr is true when recovery honestly reported unrecoverable
	// damage (an acceptable outcome; outputs is nil then).
	typedErr bool
	errText  string
	// outputs holds the final durable bytes of every output region.
	outputs [][]byte
}

// RunKernel executes one kernel scenario and returns the first
// persistency-contract violation (nil when the scenario passes; an
// honestly-reported typed recovery error is a pass).
func (c *Checker) RunKernel(sc KernelScenario) error {
	_, err := c.runKernel(sc)
	return err
}

func (c *Checker) runKernel(sc KernelScenario) (art *runArtifacts, err error) {
	defer func() {
		if r := recover(); r != nil {
			art, err = nil, fmt.Errorf("persistcheck: %v: panic: %v", sc, r)
		}
	}()
	model := modelOf(sc.Backend)
	if model != "lp" && !faultsim.ModelApplicable(model, sc.Kernel, sc.Fault) {
		return nil, fmt.Errorf("persistcheck: %v: fault kind not checkable under model %s", sc, sc.Backend)
	}
	golden, err := c.golden(sc.Kernel)
	if err != nil {
		return nil, err
	}
	// The LP store organizations bind the lp model with the checker's LP
	// design point, its store swapped, and a post-setup checkpoint; EP
	// gets a redo log sized for the kernel.
	var popt pmodel.Options
	switch {
	case model == "lp":
		kind, err := parseBackend(sc.Backend)
		if err != nil {
			return nil, err
		}
		lpCfg := c.Opt.LP
		lpCfg.Store = kind
		popt = pmodel.Options{LP: &lpCfg, MaxRounds: c.Opt.MaxRounds, Checkpoint: true}
	case sc.Backend == BackendEP:
		if popt.EPEntries, err = c.logEntriesFor(sc.Kernel); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(int64(splitmix(sc.Seed))))
	mem := memsim.MustNew(c.Opt.Mem)
	o := AttachOracle(mem) // before any allocation: the shadow sees every durable byte
	defer o.Detach()
	dev := gpusim.MustNew(c.Opt.Dev, mem)
	w := kernels.New(sc.Kernel, c.Opt.Scale)
	w.Setup(dev)
	m := pmodel.MustLookup(model).New(dev, w, popt)
	kernel := m.Kernel()

	// Fault-free leading epochs; the fault strikes the last one.
	if sc.Epochs > 1 {
		grid, blk := w.Geometry()
		for ep := 0; ep+1 < sc.Epochs; ep++ {
			m.BeginEpoch(uint64(ep))
			dev.Launch(sc.Kernel, grid, blk, kernel)
			mem.FlushAll()
		}
		m.BeginEpoch(uint64(sc.Epochs - 1))
	}
	if _, _, err := faultsim.Strike(dev, rng, sc.Fault, sc.AfterBlocks, sc.Flips, w, kernel, golden, m.MetadataRegions); err != nil {
		return nil, fmt.Errorf("persistcheck: %v: %w", sc, err)
	}

	// Assertion 1: the durable image is exactly what the event stream
	// says it should be.
	if err := o.Check(); err != nil {
		return nil, fmt.Errorf("%v: post-crash: %w", sc, err)
	}

	// Assertion 2, the durable-state contract: the damage the model
	// predicts from the oracle image alone must be exactly what its
	// recovery reports repairing — checked before a typed recovery error
	// is accepted. Loads during either pass never dirty the durable state
	// under audit.
	predicted := m.PredictDamage(o.Image())
	rep, rerr := m.Recover()
	if !equalIntSets(predicted, rep.Damaged) {
		return nil, fmt.Errorf("%v: %s recovery diverges from its durable-state contract: predicted %d damaged %v, repaired %d %v",
			sc, sc.Backend, len(predicted), head(predicted), len(rep.Damaged), head(rep.Damaged))
	}
	art = &runArtifacts{}
	if rerr != nil {
		if core.IsTypedRecoveryError(rerr) {
			art.typedErr = true
			art.errText = rerr.Error()
			return art, nil
		}
		return nil, fmt.Errorf("%v: %s recovery failed untypedly: %w", sc, sc.Backend, rerr)
	}

	// Assertion 3: recovery restored the golden image bit for bit.
	if f, ok := w.(kernels.Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		dev.Launch(name, fg, fb, k)
	}
	mem.FlushAll()
	for i, r := range w.Outputs() {
		img := mem.PeekNVM(r.Base, r.Size)
		if !bytes.Equal(img, golden.Output(i)) {
			return nil, fmt.Errorf("%v: %s-recovered image of %s diverges from golden", sc, sc.Backend, r.Name)
		}
		art.outputs = append(art.outputs, img)
	}
	// The oracle must have followed recovery's mutations too.
	if err := o.Check(); err != nil {
		return nil, fmt.Errorf("%v: post-recovery: %w", sc, err)
	}
	return art, nil
}

func parseBackend(name string) (hashtab.Kind, error) {
	for _, k := range []hashtab.Kind{hashtab.Quad, hashtab.Cuckoo, hashtab.GlobalArray, hashtab.Chained} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("persistcheck: unknown backend %q", name)
}

// equalIntSets compares two int slices as sets (both are produced in
// ascending order, but sort defensively).
func equalIntSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// head bounds a list for error messages.
func head(xs []int) []int {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}
