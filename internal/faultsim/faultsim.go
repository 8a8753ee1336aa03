// Package faultsim is a deterministic, seeded fault-injection campaign
// engine for the Lazy Persistency runtime. It subjects LP-protected
// kernels to the failure shapes that actually stress the paper's
// correctness claim (§II-A, §IV): crashes mid-kernel with blocks in
// flight, arbitrary eviction subsets and orderings, torn line
// write-backs, and NVM media bit flips that probe the checksum scheme's
// detection limits (Fig. 2). Every case is reproducible from its
// (kernel, kind, seed) triple alone; a campaign sweeps seeds × fault
// kinds × kernels, asserts the post-recovery durable image is bit-exact
// against a fault-free golden run, and minimizes any failing case to its
// smallest reproducing parameters.
package faultsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// Kind is a fault shape the engine can inject.
type Kind int

const (
	// CleanCrash drops the whole cache at the kernel boundary — the
	// baseline failure the repo could already simulate.
	CleanCrash Kind = iota
	// MidKernelCrash crashes after a seeded number of block completions,
	// leaving the grid genuinely partial (some blocks retired and
	// committed checksums, the rest never ran).
	MidKernelCrash
	// PartialEviction writes a random subset of dirty lines back in
	// arbitrary order before dropping the rest.
	PartialEviction
	// TornWriteback is PartialEviction where some write-backs persist
	// only a prefix of the line (8-byte media atomicity).
	TornWriteback
	// DataBitFlips crashes, then flips bits in a persistent output
	// region — NVM media errors the checksums must detect.
	DataBitFlips
	// StoreBitFlips crashes, then flips bits in the checksum store
	// itself — corruption of LP's own recovery metadata.
	StoreBitFlips
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CleanCrash:
		return "clean-crash"
	case MidKernelCrash:
		return "mid-kernel"
	case PartialEviction:
		return "partial-evict"
	case TornWriteback:
		return "torn-lines"
	case DataBitFlips:
		return "data-bitflips"
	case StoreBitFlips:
		return "store-bitflips"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds returns every fault kind.
func AllKinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind parses a Kind's String form.
func ParseKind(s string) (Kind, error) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faultsim: unknown fault kind %q", s)
}

// MarshalJSON writes the readable String form — reported cases are
// meant to be replayed by hand.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the String form or the numeric constant.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		kk, err := ParseKind(s)
		if err != nil {
			return err
		}
		*k = kk
		return nil
	}
	var i int
	if err := json.Unmarshal(b, &i); err != nil {
		return fmt.Errorf("faultsim: fault kind must be a name or number: %s", b)
	}
	if i < 0 || i >= int(numKinds) {
		return fmt.Errorf("faultsim: fault kind %d out of range", i)
	}
	*k = Kind(i)
	return nil
}

// Case identifies one reproducible fault-injection run. Kernel, Kind and
// Seed alone determine everything; AfterBlocks and Flips are normally 0
// (derived from Seed) and are pinned only by the minimizer.
type Case struct {
	Kernel string `json:"kernel"`
	Kind   Kind   `json:"kind"`
	Seed   uint64 `json:"seed"`
	// Model selects the persistency model from the pmodel registry.
	// Empty means "lp", the legacy LP path — recorded cases from before
	// the registry replay unchanged.
	Model string `json:"model,omitempty"`
	// AfterBlocks pins the mid-kernel crash point (0 = derive from Seed).
	AfterBlocks int `json:"after_blocks,omitempty"`
	// Flips pins the injected bit-flip count (0 = derive from Seed).
	Flips int `json:"flips,omitempty"`
}

// String implements fmt.Stringer.
func (c Case) String() string {
	s := fmt.Sprintf("%s/%s seed=%#x", c.Kernel, c.Kind, c.Seed)
	if c.Model != "" {
		s += " model=" + c.Model
	}
	if c.AfterBlocks > 0 {
		s += fmt.Sprintf(" after=%d", c.AfterBlocks)
	}
	if c.Flips > 0 {
		s += fmt.Sprintf(" flips=%d", c.Flips)
	}
	return s
}

// Outcome classifies one case of any campaign. Each campaign reports the
// subset its contract admits, and the strings are what JSON failure lists
// and progress lines print.
type Outcome int

const (
	// Recovered: recovery succeeded and the durable image is bit-exact
	// against the fault-free reference (the golden run, or the crash-free
	// serving run at the same launch). A failover case recovers when
	// every job completed, the killed device's shard re-executed on a
	// survivor — the required shape at R = 1.
	Recovered Outcome = iota
	// Adopted: a failover case absorbed the failure by adopting a
	// surviving replica — zero re-execution — and the pool is bit-exact.
	// The required outcome for every R >= 2 case.
	Adopted
	// Healed: SelfHeal reported clean and the durable image is bit-exact.
	Healed
	// Degraded: the run completed in degraded mode with its typed error
	// (core.DegradedError, cluster.DegradedClusterError), and every
	// surviving region or shard is bit-exact — the honest partial
	// success. A replicated failover case must not degrade on a single
	// failure.
	Degraded
	// TypedError: the run reported a typed error (ErrUnrecoverable,
	// ErrStoreCorrupt, or a case it cannot run) instead of recovering —
	// an acceptable, honest outcome for damage beyond repair.
	TypedError
	// Unrecoverable: SelfHeal reported a typed unrecoverable error.
	Unrecoverable
	// Contract: a failover run claimed success but broke the replication
	// contract — an R >= 2 case that re-executed or degraded instead of
	// adopting, or an R = 1 case that adopted.
	Contract
	// Mismatch: the run claimed success but the durable image diverges,
	// or a serving run's admission ledger is violated — silent
	// corruption.
	Mismatch
	// Panicked: the runtime panicked.
	Panicked
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Recovered:
		return "recovered"
	case Adopted:
		return "adopted"
	case Healed:
		return "healed"
	case Degraded:
		return "degraded"
	case TypedError:
		return "typed-error"
	case Unrecoverable:
		return "unrecoverable"
	case Contract:
		return "CONTRACT"
	case Mismatch:
		return "MISMATCH"
	case Panicked:
		return "PANIC"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Failed reports whether the outcome violates its campaign's contract:
// recover or heal bit-exactly, degrade honestly, or report a typed error
// — never lie, never panic.
func (o Outcome) Failed() bool { return o == Contract || o == Mismatch || o == Panicked }

// MarshalJSON writes the readable String form.
func (o Outcome) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// Result reports one executed case.
type Result struct {
	Case    Case              `json:"case"`
	Outcome Outcome           `json:"outcome"`
	Tier    core.RecoveryTier `json:"tier"`
	// Rounds and FirstRoundFailed summarize the recovery effort; Cycles
	// is its simulated cost.
	Rounds           int   `json:"rounds"`
	FirstRoundFailed int   `json:"first_round_failed"`
	Cycles           int64 `json:"cycles"`
	// ModelTier names the recovery mechanism for non-LP model cases
	// ("replay+reexec", "release-reexec"); empty on the LP path, whose
	// mechanism is Tier.
	ModelTier string `json:"model_tier,omitempty"`
	// CrashedAfter is the number of blocks that retired before a
	// mid-kernel crash (0 for boundary crashes).
	CrashedAfter int `json:"crashed_after,omitempty"`
	// Injected counts bits flipped into the durable image.
	Injected int `json:"injected,omitempty"`
	// Err carries the error or panic text for non-Recovered outcomes.
	Err string `json:"err,omitempty"`
}

// Options fixes the simulated platform for a campaign.
type Options struct {
	// Scale is the workload input scale.
	Scale int
	// Mem and Dev configure the simulated hierarchy; Mem.CacheBytes
	// defaults to 256 KiB so natural eviction persists most of a run
	// (the realistic partial-loss scenario).
	Mem memsim.Config
	Dev gpusim.Config
	// LP selects the runtime design point (default: the paper's final
	// design).
	LP core.Config
	// MaxRounds bounds the selective tier of hardened recovery.
	MaxRounds int
}

// DefaultOptions returns the campaign platform defaults.
func DefaultOptions() Options {
	mem := memsim.DefaultConfig()
	mem.CacheBytes = 256 << 10
	return Options{
		Scale:     1,
		Mem:       mem,
		Dev:       gpusim.DefaultConfig(),
		LP:        core.DefaultConfig(),
		MaxRounds: 3,
	}
}

// Golden is the fault-free durable image of a workload's persistent
// outputs, the reference every case must reproduce bit-exactly.
type Golden struct {
	outputs [][]byte
	// written holds, per output region, the byte offsets the kernel
	// actually wrote (where the golden image differs from the
	// post-setup image). Media-error injection targets these: a flip in
	// a never-written byte is outside LP's protection contract (no
	// checksum ever covered it), so it would probe nothing.
	written [][]int
}

// Output returns the golden durable bytes of output region i.
func (g *Golden) Output(i int) []byte { return g.outputs[i] }

// GoldenRun computes the golden image for a kernel by running it on a
// fresh fault-free system and flushing everything durable.
func GoldenRun(opt Options, kernel string) (g *Golden, err error) {
	// An unknown workload name or a setup failure surfaces as a panic in
	// the kernels package; a campaign caller gets a plain error instead.
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("faultsim: golden run of %s failed: %v", kernel, r)
		}
	}()
	mem := memsim.MustNew(opt.Mem)
	dev := gpusim.MustNew(opt.Dev, mem)
	w := kernels.New(kernel, opt.Scale)
	w.Setup(dev)
	grid, blk := w.Geometry()
	initial := make([][]byte, 0, len(w.Outputs()))
	for _, r := range w.Outputs() {
		initial = append(initial, mem.PeekNVM(r.Base, r.Size))
	}
	dev.Launch(kernel, grid, blk, w.Kernel(nil))
	if f, ok := w.(kernels.Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		dev.Launch(name, fg, fb, k)
	}
	mem.FlushAll()
	if err := w.Verify(); err != nil {
		return nil, fmt.Errorf("faultsim: golden run of %s is itself wrong: %w", kernel, err)
	}
	g = &Golden{}
	for i, r := range w.Outputs() {
		img := mem.PeekNVM(r.Base, r.Size)
		g.outputs = append(g.outputs, img)
		var wr []int
		for j := range img {
			if img[j] != initial[i][j] {
				wr = append(wr, j)
			}
		}
		g.written = append(g.written, wr)
	}
	return g, nil
}

// splitmix advances a SplitMix64 state — used to derive per-case seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedAt derives a case seed from a campaign's base seed and the case's
// sweep position; each engine packs its own axes into pos, so every
// case is reproducible from its position alone.
func seedAt(base, pos uint64) uint64 { return splitmix(base ^ splitmix(pos)) }

// Strike lands one fault of the given kind on a freshly set-up system and
// is the only place a Kind strikes. MidKernelCrash arms gpusim's
// CrashAfter at afterBlocks block completions and launches kernel,
// leaving the grid partial; a crash point past the grid is an error, as
// the launch would run fault-free. Every other kind launches kernel to
// completion and then crashes the hierarchy (CleanCrash), writes a random
// subset of dirty lines back before the crash (PartialEviction), also
// tears some of those write-backs (TornWriteback), or crashes and flips
// bits: in the bytes the kernel wrote according to golden (DataBitFlips),
// or in one of the persistency model's metadata regions, which tables
// lists and is called only for this kind (StoreBitFlips). A zero
// afterBlocks or flips is drawn from rng; the draws happen in a fixed
// order, so a case replays from its seed. It returns the crash point of a
// mid-kernel crash and the number of bits flipped.
func Strike(dev *gpusim.Device, rng *rand.Rand, kind Kind, afterBlocks, flips int,
	w kernels.Workload, kernel gpusim.KernelFunc, golden *Golden, tables func() []memsim.Region) (crashedAfter, injected int, err error) {
	if kind < 0 || kind >= numKinds {
		return 0, 0, fmt.Errorf("faultsim: unknown fault kind %v", kind)
	}
	mem := dev.Mem()
	grid, blk := w.Geometry()
	if kind == MidKernelCrash {
		if afterBlocks <= 0 {
			afterBlocks = 1 + rng.Intn(grid.Size())
		}
		if afterBlocks > grid.Size() {
			return 0, 0, fmt.Errorf("faultsim: mid-kernel crash after %d blocks lies past the %d-block grid of %s", afterBlocks, grid.Size(), w.Name())
		}
		dev.CrashAfter(afterBlocks)
		dev.Launch(w.Name(), grid, blk, kernel)
		return afterBlocks, 0, nil
	}
	dev.Launch(w.Name(), grid, blk, kernel)
	switch kind {
	case CleanCrash:
		mem.Crash()
	case PartialEviction:
		mem.PartialCrash(rng, memsim.CrashProfile{EvictFrac: 0.2 + 0.6*rng.Float64()})
	case TornWriteback:
		mem.PartialCrash(rng, memsim.CrashProfile{
			EvictFrac: 0.3 + 0.5*rng.Float64(),
			TornFrac:  0.2 + 0.5*rng.Float64(),
		})
	case DataBitFlips, StoreBitFlips:
		mem.Crash()
		if flips <= 0 {
			flips = 1 + rng.Intn(4)
		}
		if kind == StoreBitFlips {
			tabs := tables()
			r := tabs[rng.Intn(len(tabs))]
			return 0, len(mem.InjectBitFlipsRange(rng, r.Base, r.Size, flips)), nil
		}
		outs := w.Outputs()
		ri := rng.Intn(len(outs))
		r := outs[ri]
		wr := golden.written[ri]
		if len(wr) == 0 {
			return 0, len(mem.InjectBitFlipsRange(rng, r.Base, r.Size, flips)), nil
		}
		// Flip bits only within bytes the kernel actually wrote: those are
		// the ones the checksums claim to cover.
		for i := 0; i < flips; i++ {
			mem.InjectBitFlipsRange(rng, r.Base+uint64(wr[rng.Intn(len(wr))]), 1, 1)
		}
		return 0, flips, nil
	}
	return 0, 0, nil
}

// RunCase executes one fault-injection case end to end: bind the case's
// persistency model after workload setup, strike the fault at its seeded
// point, recover, and compare the durable image against golden. LP
// (Model "", or any spelling pmodel.Lookup resolves to "lp") binds core
// directly, with the post-setup durable state as its checkpoint, and
// recovers with RecoverHardened; the result carries its tier, rounds
// and cycles. Every other model binds through the pmodel registry and
// is held to its whole contract: PredictDamage from the raw durable
// image must equal what Recover repairs. It never panics: a runtime
// panic is converted into the Panicked outcome.
func RunCase(opt Options, c Case, golden *Golden) (res Result) {
	res.Case = c
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Panicked
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	spec, ok := lookupModel(c.Model)
	lp := spec.Name == "lp"
	switch {
	case !ok:
		return typedError(res, fmt.Sprintf("faultsim: unknown persistency model %q", c.Model))
	case !lp && !ModelApplicable(spec.Name, c.Kernel, c.Kind):
		return typedError(res, fmt.Sprintf("faultsim: fault kind %v is not applicable to model %s on %s", c.Kind, c.Model, c.Kernel))
	}

	rng := rand.New(rand.NewSource(int64(splitmix(c.Seed))))
	mem := memsim.MustNew(opt.Mem)
	dev := gpusim.MustNew(opt.Dev, mem)
	w := kernels.New(c.Kernel, opt.Scale)
	w.Setup(dev)
	var (
		rt     *core.LP
		ck     *core.Checkpoint
		m      pmodel.Model
		kernel gpusim.KernelFunc
		tables func() []memsim.Region
	)
	if lp {
		grid, blk := w.Geometry()
		rt = core.New(dev, opt.LP, grid, blk)
		// The durable state right after setup (inputs, zeroed outputs,
		// cleared checksum store) is the restore point of last resort.
		ck = core.CaptureCheckpoint(mem)
		kernel, tables = w.Kernel(rt), rt.Store().TableRegions
	} else {
		lpCfg := opt.LP
		m = spec.New(dev, w, pmodel.Options{LP: &lpCfg, MaxRounds: opt.MaxRounds, Checkpoint: true})
		kernel, tables = m.Kernel(), m.MetadataRegions
	}

	var err error
	if res.CrashedAfter, res.Injected, err = Strike(dev, rng, c.Kind, c.AfterBlocks, c.Flips, w, kernel, golden, tables); err != nil {
		return typedError(res, err.Error())
	}
	if lp {
		var rep core.RecoveryReport
		rep, err = rt.RecoverHardened(kernel, w.Recompute(), core.RecoverOpts{MaxRounds: opt.MaxRounds, Checkpoint: ck})
		res.Tier, res.Rounds, res.Cycles = rep.Tier, rep.Rounds, rep.TotalCycles()
		if len(rep.FailedPerRound) > 0 {
			res.FirstRoundFailed = rep.FailedPerRound[0]
		}
	} else {
		// The durable-state contract: the damage the model predicts from
		// the raw NVM image alone must be exactly what its recovery
		// repairs.
		predicted := m.PredictDamage(mem.SnapshotNVM())
		var rep pmodel.Report
		rep, err = m.Recover()
		res.ModelTier, res.Cycles = rep.Tier, rep.Cycles
		if !slices.Equal(predicted, rep.Damaged) {
			err = fmt.Errorf("model %s predicted damage %v but recovery repaired %v", c.Model, head(predicted), head(rep.Damaged))
		}
	}
	if err != nil {
		res.Err = err.Error()
		if errors.Is(err, core.ErrUnrecoverable) || errors.Is(err, core.ErrStoreCorrupt) {
			res.Outcome = TypedError
		} else {
			res.Outcome = Mismatch
		}
		return res
	}

	if f, ok := w.(kernels.Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		dev.Launch(name, fg, fb, k)
	}
	mem.FlushAll()
	for i, r := range w.Outputs() {
		if !bytes.Equal(mem.PeekNVM(r.Base, r.Size), golden.outputs[i]) {
			res.Outcome = Mismatch
			res.Err = fmt.Sprintf("durable image of %s diverges from fault-free golden", r.Name)
			if !lp {
				res.Err += " under model " + c.Model
			}
			return res
		}
	}
	res.Outcome = Recovered
	return res
}

// lookupModel resolves a case's model name the way the CLIs do: empty
// means lp (cases recorded before the model axis), and any other
// spelling resolves through pmodel.Lookup.
func lookupModel(name string) (pmodel.Spec, bool) {
	if name == "" {
		name = "lp"
	}
	return pmodel.Lookup(name)
}

// typedError closes res as a TypedError outcome with the given text.
func typedError(res Result, msg string) Result {
	res.Outcome = TypedError
	res.Err = msg
	return res
}

// head renders at most eight elements of a damage set.
func head(xs []int) string {
	if len(xs) <= 8 {
		return fmt.Sprint(xs)
	}
	return fmt.Sprintf("%v… (%d total)", xs[:8], len(xs))
}
