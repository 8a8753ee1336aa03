// Kernel scenario family: full persistency-model runs of the benchmark
// suite under seeded fault injection, with three layers of assertions —
// the oracle image equality, the independent prediction of the model's
// recovery verdict from the oracle image alone (each model's own
// durable-state contract), and bit-exact recovery against the
// fault-free golden image.
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
// model (checked by runModel) rather than an LP checksum store.
func isModelBackend(backend string) bool {
	return backend == BackendEP || backend == BackendSBRP || backend == BackendStrict
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

// modelEligible reports whether backend can check kernel under kind —
// the per-model applicability matrix, shared with the fault campaigns.
// The non-LP models survive post-kernel crashes by replay or eager
// durability alone; crashes that leave unfinished blocks additionally
// need byte-idempotent re-execution, which only the dense kernels
// guarantee, and none of them has checksums, so media flips are
// undetectable by design.
func modelEligible(backend, kernel string, kind faultsim.Kind) bool {
	return faultsim.ModelApplicable(backend, kernel, kind)
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
	if isModelBackend(sc.Backend) {
		return c.runModel(sc)
	}
	return c.runLP(sc)
}

func parseBackend(name string) (hashtab.Kind, error) {
	for _, k := range []hashtab.Kind{hashtab.Quad, hashtab.Cuckoo, hashtab.GlobalArray, hashtab.Chained} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("persistcheck: unknown backend %q", name)
}

// injectFault mirrors faultsim.RunCase's fault shapes, seeded from rng.
// Mid-kernel crashes are armed by the caller before the launch; the
// remaining kinds strike here, after the kernel retires.
func injectFault(mem *memsim.Memory, rng *rand.Rand, sc KernelScenario,
	w kernels.Workload, golden *faultsim.Golden, tables []memsim.Region) {
	switch sc.Fault {
	case faultsim.CleanCrash:
		mem.Crash()
	case faultsim.PartialEviction:
		mem.PartialCrash(rng, memsim.CrashProfile{EvictFrac: 0.2 + 0.6*rng.Float64()})
	case faultsim.TornWriteback:
		mem.PartialCrash(rng, memsim.CrashProfile{
			EvictFrac: 0.3 + 0.5*rng.Float64(),
			TornFrac:  0.2 + 0.5*rng.Float64(),
		})
	case faultsim.DataBitFlips:
		mem.Crash()
		n := sc.Flips
		if n <= 0 {
			n = 1 + rng.Intn(4)
		}
		outs := w.Outputs()
		ri := rng.Intn(len(outs))
		r := outs[ri]
		if wr := golden.WrittenOffsets(ri); len(wr) > 0 {
			for i := 0; i < n; i++ {
				off := uint64(wr[rng.Intn(len(wr))])
				mem.InjectBitFlipsRange(rng, r.Base+off, 1, 1)
			}
		} else {
			mem.InjectBitFlipsRange(rng, r.Base, r.Size, n)
		}
	case faultsim.StoreBitFlips:
		mem.Crash()
		n := sc.Flips
		if n <= 0 {
			n = 1 + rng.Intn(4)
		}
		r := tables[rng.Intn(len(tables))]
		mem.InjectBitFlipsRange(rng, r.Base, r.Size, n)
	default:
		panic(fmt.Sprintf("persistcheck: unknown fault kind %v", sc.Fault))
	}
}

func (c *Checker) runLP(sc KernelScenario) (*runArtifacts, error) {
	golden, err := c.golden(sc.Kernel)
	if err != nil {
		return nil, err
	}
	kind, err := parseBackend(sc.Backend)
	if err != nil {
		return nil, err
	}
	opt := c.Opt
	lpCfg := opt.LP
	lpCfg.Store = kind

	rng := rand.New(rand.NewSource(int64(splitmix(sc.Seed))))
	mem := memsim.MustNew(opt.Mem)
	o := AttachOracle(mem) // before any allocation: the shadow sees every durable byte
	defer o.Detach()
	dev := gpusim.MustNew(opt.Dev, mem)
	w := kernels.New(sc.Kernel, opt.Scale)
	w.Setup(dev)
	grid, blk := w.Geometry()
	lp := core.New(dev, lpCfg, grid, blk)
	ck := core.CaptureCheckpoint(mem)
	kernel := w.Kernel(lp)

	// Fault-free leading epochs; the fault strikes the last one.
	for e := 0; e+1 < sc.Epochs; e++ {
		lp.SetEpoch(uint64(e))
		dev.Launch(sc.Kernel, grid, blk, kernel)
		mem.FlushAll()
	}
	if sc.Epochs > 1 {
		lp.SetEpoch(uint64(sc.Epochs - 1))
	}

	if sc.Fault == faultsim.MidKernelCrash {
		after := sc.AfterBlocks
		if after <= 0 {
			after = 1 + rng.Intn(grid.Size())
		}
		dev.SetCrashTrigger(&gpusim.CrashTrigger{
			AfterBlocks: after,
			Fire:        func(*gpusim.Device) { mem.Crash() },
		})
		dev.Launch(sc.Kernel, grid, blk, kernel)
	} else {
		dev.Launch(sc.Kernel, grid, blk, kernel)
		injectFault(mem, rng, sc, w, golden, lp.Store().TableRegions())
	}

	// Assertion 1: the durable image is exactly what the event stream
	// says it should be.
	if err := o.Check(); err != nil {
		return nil, fmt.Errorf("%v: post-crash: %w", sc, err)
	}
	art := &runArtifacts{}

	// Assertion 2: predict validation's verdict from the oracle image
	// alone (ImageLookup over the shadow), and hold the device-side
	// Validate to it. Loads during either pass never dirty the durable
	// state under audit.
	oracleImg := o.Image()
	perBlock, _ := lp.RecomputeStates(w.Recompute())
	var predicted []int
	for reg := 0; reg < lp.Regions(); reg++ {
		stored, ok := lp.Store().ImageLookup(oracleImg, uint64(reg))
		if !ok || !stored.Matches(perBlock[reg], lpCfg.Checksum) {
			predicted = append(predicted, reg)
		}
	}
	failed, _, verr := lp.Validate(w.Recompute())
	if verr != nil {
		return nil, fmt.Errorf("%v: validate: %w", sc, verr)
	}
	if !equalIntSets(predicted, failed) {
		return nil, fmt.Errorf("%v: validation verdict diverges from oracle prediction: predicted %d failed %v, validate %d failed %v",
			sc, len(predicted), head(predicted), len(failed), head(failed))
	}

	// Assertion 3: hardened recovery restores the golden image (or
	// honestly reports unrecoverable damage).
	rep, rerr := lp.RecoverHardened(kernel, w.Recompute(), core.RecoverOpts{
		MaxRounds:  c.Opt.MaxRounds,
		Checkpoint: ck,
	})
	_ = rep
	if rerr != nil {
		if core.IsTypedRecoveryError(rerr) {
			art.typedErr = true
			art.errText = rerr.Error()
			return art, nil
		}
		return nil, fmt.Errorf("%v: recovery failed untypedly: %w", sc, rerr)
	}
	if f, ok := w.(kernels.Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		dev.Launch(name, fg, fb, k)
	}
	mem.FlushAll()
	for i, r := range w.Outputs() {
		img := mem.PeekNVM(r.Base, r.Size)
		if !bytes.Equal(img, golden.Output(i)) {
			return nil, fmt.Errorf("%v: recovered image of %s diverges from golden", sc, r.Name)
		}
		art.outputs = append(art.outputs, img)
	}
	// The oracle must have followed recovery's mutations too.
	if err := o.Check(); err != nil {
		return nil, fmt.Errorf("%v: post-recovery: %w", sc, err)
	}
	return art, nil
}

// runModel checks a non-LP registry model (ep, sbrp, strict) against
// its own durable-image contract: the oracle image equality, the
// model's PredictDamage-vs-Recover agreement, and bit-exact recovery
// against the fault-free golden.
func (c *Checker) runModel(sc KernelScenario) (*runArtifacts, error) {
	if !modelEligible(sc.Backend, sc.Kernel, sc.Fault) {
		return nil, fmt.Errorf("persistcheck: %v: fault kind not checkable under model %s", sc, sc.Backend)
	}
	golden, err := c.golden(sc.Kernel)
	if err != nil {
		return nil, err
	}
	var popt pmodel.Options
	if sc.Backend == BackendEP {
		entries, err := c.logEntriesFor(sc.Kernel)
		if err != nil {
			return nil, err
		}
		popt.EPEntries = entries
	}
	opt := c.Opt

	rng := rand.New(rand.NewSource(int64(splitmix(sc.Seed))))
	mem := memsim.MustNew(opt.Mem)
	o := AttachOracle(mem)
	defer o.Detach()
	dev := gpusim.MustNew(opt.Dev, mem)
	w := kernels.New(sc.Kernel, opt.Scale)
	w.Setup(dev)
	grid, blk := w.Geometry()
	m := pmodel.MustLookup(sc.Backend).New(dev, w, popt)
	wrapped := m.Kernel()

	if sc.Fault == faultsim.MidKernelCrash {
		after := sc.AfterBlocks
		if after <= 0 {
			after = 1 + rng.Intn(grid.Size())
		}
		dev.SetCrashTrigger(&gpusim.CrashTrigger{
			AfterBlocks: after,
			Fire:        func(*gpusim.Device) { mem.Crash() },
		})
		dev.Launch(sc.Kernel, grid, blk, wrapped)
	} else {
		dev.Launch(sc.Kernel, grid, blk, wrapped)
		injectFault(mem, rng, sc, w, golden, nil)
	}

	// Assertion 1: the durable image is exactly what the event stream
	// says it should be.
	if err := o.Check(); err != nil {
		return nil, fmt.Errorf("%v: post-crash: %w", sc, err)
	}
	art := &runArtifacts{}

	// Assertion 2, the durable-state contract: the damage the model
	// predicts from the oracle image alone must be exactly what its
	// recovery reports repairing.
	predicted := m.PredictDamage(o.Image())
	rep, rerr := m.Recover()
	if rerr != nil {
		if core.IsTypedRecoveryError(rerr) {
			art.typedErr = true
			art.errText = rerr.Error()
			return art, nil
		}
		return nil, fmt.Errorf("%v: model %s recovery failed untypedly: %w", sc, sc.Backend, rerr)
	}
	if !equalIntSets(predicted, rep.Damaged) {
		return nil, fmt.Errorf("%v: model %s recovery diverges from its durable-state contract: predicted %d damaged %v, repaired %d %v",
			sc, sc.Backend, len(predicted), head(predicted), len(rep.Damaged), head(rep.Damaged))
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
