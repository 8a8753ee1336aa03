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
	// Empty means "lp", so recorded cases from before the registry replay
	// unchanged.
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
	Case    Case    `json:"case"`
	Outcome Outcome `json:"outcome"`
	// Tier is the model's pmodel.Report.Tier: lp's escalation tier, or
	// the one mechanism of another model ("replay+reexec", "sbrp",
	// "strict"); empty when the case never reached recovery.
	Tier core.RecoveryTier `json:"tier,omitempty"`
	// Rounds and FirstRoundFailed summarize the recovery effort; Cycles
	// is its simulated cost.
	Rounds           int   `json:"rounds"`
	FirstRoundFailed int   `json:"first_round_failed"`
	Cycles           int64 `json:"cycles"`
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
	// maxBlockStores is the most stores one block of the main launch
	// made into the outputs.
	maxBlockStores int
}

// Output returns the golden durable bytes of output region i.
func (g *Golden) Output(i int) []byte { return g.outputs[i] }

// MaxBlockStores returns the most stores one block of the fault-free
// main launch (not the finalizer) made into the workload's outputs: what
// a per-block redo log must hold.
func (g *Golden) MaxBlockStores() int { return g.maxBlockStores }

// GoldenRun computes the golden image for a kernel by running it on a
// fresh fault-free system and flushing everything durable. A store hook
// counts each block's stores into the outputs during the main launch.
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
	outs := w.Outputs()
	initial := make([][]byte, 0, len(outs))
	for _, r := range outs {
		initial = append(initial, mem.PeekNVM(r.Base, r.Size))
	}
	stores := make([]int, grid.Size())
	dev.SetStoreHook(func(t *gpusim.Thread, r memsim.Region, _ int, _ uint32) {
		for _, o := range outs {
			if o.Base == r.Base {
				stores[t.Block().LinearIdx]++
				return
			}
		}
	})
	dev.Launch(kernel, grid, blk, w.Kernel(nil))
	dev.SetStoreHook(nil)
	if f, ok := w.(kernels.Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		dev.Launch(name, fg, fb, k)
	}
	mem.FlushAll()
	if err := w.Verify(); err != nil {
		return nil, fmt.Errorf("faultsim: golden run of %s is itself wrong: %w", kernel, err)
	}
	g = &Golden{maxBlockStores: slices.Max(stores)}
	for i, r := range outs {
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

// ErrCrashMissed is wrapped by Strike's error when a mid-kernel crash
// point lies past the blocks its launch retired: the watchdog stopped
// the launch first.
var ErrCrashMissed = errors.New("armed crash did not fire")

// Flight is the one launch of a bound kernel that mid-kernel crashes
// strike: LaunchFlight runs it, and Strike lands each crash on it.
type Flight struct {
	mem  *memsim.Memory
	name string
	grid int
	// retired counts the blocks the launch retired.
	retired int
	// at lists the crash points within the grid, ascending and distinct;
	// cps holds the memsim crash point taken at each one the launch
	// reached, when it kept them.
	at  []int
	cps []memsim.CrashPoint
	// crashed is the crash point the launch crashed at in flight, while
	// the memory still holds that crash and nothing was kept (0: none).
	crashed int
}

// LaunchFlight launches kernel over w's grid once on dev, with one crash
// point for each mid-kernel strike to come: points lists each strike's
// crash point in blocks retired (repeats allowed; one past the grid is
// left for Strike to refuse). full runs the launch to the grid's end,
// for a group that also strikes the launched state; otherwise the
// launch crashes in flight at the last crash point (gpusim's
// CrashAfter), and with no crash point in the grid it does not launch.
// When more than one strike will come from the launch, a heartbeat takes
// a memsim crash point at each crash point's block boundary for Strike
// to return to. A single strike lands on the in-flight crash itself, so
// its launch is a fresh system's partial launch and nothing is logged.
func LaunchFlight(dev *gpusim.Device, w kernels.Workload, kernel gpusim.KernelFunc, points []int, full bool) *Flight {
	grid, blk := w.Geometry()
	f := &Flight{mem: dev.Mem(), name: w.Name(), grid: grid.Size()}
	for _, p := range points {
		if p <= f.grid {
			f.at = append(f.at, p)
		}
	}
	keep := full || len(f.at) > 1
	slices.Sort(f.at)
	f.at = slices.Compact(f.at)
	if !full && len(f.at) == 0 {
		return f
	}
	if keep && len(f.at) > 0 {
		prev := dev.SetHeartbeat(func(hb gpusim.Heartbeat) {
			if n := len(f.cps); n < len(f.at) && hb.Blocks == f.at[n] {
				f.cps = append(f.cps, f.mem.CrashPoint())
			}
		})
		defer dev.SetHeartbeat(prev)
	}
	if !full {
		dev.CrashAfter(f.at[len(f.at)-1])
	}
	res := dev.Launch(f.name, grid, blk, kernel)
	f.retired = res.Blocks
	if !keep && res.Interrupted && res.Watchdog == nil {
		f.crashed = f.at[0]
	}
	return f
}

// land brings the memory to the crash at after blocks, which the launch
// reached: back to its memsim crash point, or, when the launch kept
// none, to the in-flight crash it still holds.
func (f *Flight) land(after int) {
	if i, ok := slices.BinarySearch(f.at, after); ok && i < len(f.cps) {
		f.mem.CrashTo(f.cps[i])
		return
	}
	if after < 1 || after != f.crashed {
		panic(fmt.Sprintf("faultsim: the flight of %s kept no crash point after %d blocks", f.name, after))
	}
	f.crashed = 0
}

// crashPointOf returns a mid-kernel case's crash point in a grid of size
// blocks: its pinned AfterBlocks, or else the first draw of its rng.
func crashPointOf(c Case, size int) int {
	if c.AfterBlocks > 0 {
		return c.AfterBlocks
	}
	return 1 + caseRNG(c).Intn(size)
}

// caseRNG returns the generator every draw of case c comes from.
func caseRNG(c Case) *rand.Rand { return rand.New(rand.NewSource(int64(splitmix(c.Seed)))) }

// Strike lands one fault of the given kind and is the only place a Kind
// strikes. MidKernelCrash lands the crash after afterBlocks block
// completions of flight, the bound kernel's launch (LaunchFlight),
// leaving the grid partial: the durable image at that block boundary,
// with every cache line dropped. A crash point past the grid is an
// error, as the launch would run fault-free, and so is one past the
// blocks the launch retired (ErrCrashMissed). The crash points of one
// flight are struck from the latest to the earliest. Every other kind
// strikes a system whose kernel launch has run to completion and
// crashes the hierarchy (CleanCrash), writes a random subset of dirty
// lines back before the crash (PartialEviction), also tears some of
// those write-backs (TornWriteback), or crashes and flips bits: in the
// bytes the kernel wrote according to golden (DataBitFlips), or in one
// of the persistency model's metadata regions, which tables lists and
// is called only for this kind (StoreBitFlips). A zero flips is drawn
// from rng; the draws happen in a fixed order, so a case replays from
// its seed (a mid-kernel crash point is its case's one draw, made before
// the launch: crashPointOf). It returns the crash point of a mid-kernel
// crash and the number of bits flipped.
func Strike(dev *gpusim.Device, rng *rand.Rand, kind Kind, afterBlocks, flips int,
	w kernels.Workload, flight *Flight, golden *Golden, tables func() []memsim.Region) (crashedAfter, injected int, err error) {
	if kind < 0 || kind >= numKinds {
		return 0, 0, fmt.Errorf("faultsim: unknown fault kind %v", kind)
	}
	mem := dev.Mem()
	switch kind {
	case MidKernelCrash:
		switch {
		case afterBlocks > flight.grid:
			return 0, 0, fmt.Errorf("faultsim: mid-kernel crash after %d blocks lies past the %d-block grid of %s", afterBlocks, flight.grid, flight.name)
		case afterBlocks > flight.retired:
			return 0, 0, fmt.Errorf("faultsim: mid-kernel crash after %d blocks of %s ended with %d blocks retired: %w", afterBlocks, flight.name, flight.retired, ErrCrashMissed)
		}
		flight.land(afterBlocks)
		return afterBlocks, 0, nil
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

// RunCase executes one fault-injection case end to end on a fresh
// system: bind the case's persistency model (lp for an empty Model)
// through the pmodel registry after workload setup, with the post-setup
// durable state as lp's checkpoint, strike the fault at its seeded
// point, hold the model to its whole contract — PredictDamage, read from
// the raw durable image in place, must equal what Recover repairs — and
// compare the recovered outputs, in place, against golden. A case that
// cannot run (an unknown model, a kind ModelApplicable excludes, a crash
// point Strike refuses) is a TypedError. It never panics: a runtime
// panic is converted into the Panicked outcome.
func RunCase(opt Options, c Case, golden *Golden) Result {
	res, err := RunAudited(opt, c, golden, 0, 0, nil)
	if err != nil {
		return typedError(res, err.Error())
	}
	return res
}

// Audit watches one case's durable image from outside the runner, as the
// crash-consistency checker's oracle does.
type Audit interface {
	// Image returns the durable image the model's PredictDamage reads.
	Image() []byte
	// Check compares the memory's real durable image with the audit's
	// own; the runner calls it after the strike and after recovery.
	Check() error
}

// RunAudited is RunCase with what the crash-consistency checker adds:
// epochs > 1 runs that many epochs, fault-free but for the last one,
// which the fault strikes; epEntries sizes ep's redo log (0: the model's
// default); and audit, when non-nil, is attached to the case's memory
// before anything is allocated on it, after which PredictDamage reads
// its Image instead of the memory's own durable image. The case is a
// group of one (see group): the same case body as a campaign's, on its
// own system, which launches the bound kernel once, partially for a
// mid-kernel crash, and never marks or takes a crash point. The error is
// non-nil only for a case that cannot run; everything else is in the
// Result.
func RunAudited(opt Options, c Case, golden *Golden, epochs, epEntries int, audit func(*memsim.Memory) Audit) (res Result, err error) {
	g := &group{opt: opt, golden: golden, epochs: epochs, epEntries: epEntries, audit: audit}
	g.run([]Case{c}, func(_ int, r Result, e error) { res, err = r, e })
	return res, err
}

// group runs cases that share one kernel and one persistency model on
// one simulated system, set up and bound once, whose bound kernel
// launches once (a Flight). Every mid-kernel case's crash point is drawn
// before the launch. The launch runs to the grid's end when some case
// strikes the launched state, and those cases strike it first, the
// memory rewound to it (memsim's Mark and Rewind) before each but the
// first; otherwise the launch crashes in flight at the last crash point.
// The mid-kernel cases then strike from the latest crash point to the
// earliest, each returning the memory to its crash point (memsim's
// CrashTo). Every Result equals the one the case gets on a fresh system.
// A group of one never marks or takes a crash point, so RunAudited's
// path is that of a fresh system: one partial or full launch.
type group struct {
	opt       Options
	golden    *Golden
	epochs    int
	epEntries int
	audit     func(*memsim.Memory) Audit

	// The system, built once: a workload set up on a fresh hierarchy,
	// with the persistency model bound, lp's checkpoint taken, and the
	// bound kernel launched (flight).
	mem    *memsim.Memory
	dev    *gpusim.Device
	w      kernels.Workload
	m      pmodel.Model
	kernel gpusim.KernelFunc
	flight *Flight
	// image is what PredictDamage reads; a, when non-nil, checks it.
	image func() []byte
	a     Audit
	// marked reports that the memory holds a mark of the launched state.
	marked bool
}

// run executes cases and passes emit each case's position in cases, its
// Result, and the error of a case that cannot run, as it completes: the
// cases with an unknown model or an inapplicable kind first, then the
// others in group order (see group), ties in the given order. After a
// panic, the cases left run each as a group of one, on a system of its
// own.
func (g *group) run(cases []Case, emit func(i int, res Result, err error)) {
	var spec pmodel.Spec
	var launched, mid []int
	for i, c := range cases {
		s, err := caseModel(c)
		switch {
		case err != nil:
			emit(i, Result{Case: c}, err)
		case c.Kind == MidKernelCrash:
			spec, mid = s, append(mid, i)
		default:
			spec, launched = s, append(launched, i)
		}
	}
	order := append(launched, mid...)
	if len(order) == 0 {
		return
	}
	after := make([]int, len(cases))
	if msg := g.launch(spec, cases, order, len(launched), after); msg != "" {
		if len(order) == 1 {
			emit(order[0], Result{Case: cases[order[0]], Outcome: Panicked, Err: msg}, nil)
			return
		}
		g.alone(cases, order, emit)
		return
	}
	slices.SortStableFunc(order[len(launched):], func(a, b int) int { return after[b] - after[a] })
	for n, i := range order {
		res, err := g.runCase(cases[i], spec, after[i], n < len(launched) && len(launched) > 1)
		emit(i, res, err)
		if res.Outcome == Panicked {
			g.alone(cases, order[n+1:], emit)
			return
		}
	}
}

// alone runs each of the listed cases as a group of one.
func (g *group) alone(cases []Case, idx []int, emit func(i int, res Result, err error)) {
	for _, i := range idx {
		one := &group{opt: g.opt, golden: g.golden, epochs: g.epochs, epEntries: g.epEntries, audit: g.audit}
		one.run(cases[i:i+1], func(_ int, res Result, err error) { emit(i, res, err) })
	}
}

// launch builds the system for cases unless it is built, draws each
// mid-kernel case's crash point into after, and launches the flight.
// order lists the runnable cases, the first nLaunched of them striking
// the launched state. It returns the text of a panic, or "".
func (g *group) launch(spec pmodel.Spec, cases []Case, order []int, nLaunched int, after []int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("panic: %v", r)
		}
	}()
	if g.mem == nil {
		g.build(spec, cases[order[0]].Kernel)
	}
	grid, _ := g.w.Geometry()
	points := make([]int, 0, len(order)-nLaunched)
	for _, i := range order[nLaunched:] {
		after[i] = crashPointOf(cases[i], grid.Size())
		points = append(points, after[i])
	}
	g.flight = LaunchFlight(g.dev, g.w, g.kernel, points, nLaunched > 0)
	return ""
}

// runCase is the case body: after is a mid-kernel case's crash point,
// and share reports that other cases strike the launched state too, so
// the first to strike it marks it and the others rewind to it.
func (g *group) runCase(c Case, spec pmodel.Spec, after int, share bool) (res Result, err error) {
	res.Case = c
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Panicked
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	var rng *rand.Rand
	if c.Kind != MidKernelCrash {
		rng = caseRNG(c)
		switch {
		case g.marked:
			g.mem.Rewind()
		case share:
			g.mem.Mark()
			g.marked = true
		}
	}
	if res.CrashedAfter, res.Injected, err = Strike(g.dev, rng, c.Kind, after, c.Flips, g.w, g.flight, g.golden, g.m.MetadataRegions); err != nil {
		return res, err
	}
	if g.a != nil {
		if err := g.a.Check(); err != nil {
			return mismatch(res, "post-crash: "+err.Error()), nil
		}
	}

	// The durable-state contract: the damage the model predicts from the
	// raw durable image alone must be exactly what its recovery repairs,
	// also when recovery then gives up.
	predicted := g.m.PredictDamage(g.image())
	rep, err := g.m.Recover()
	res.Tier, res.Rounds, res.FirstRoundFailed, res.Cycles = core.RecoveryTier(rep.Tier), rep.Rounds, len(rep.Damaged), rep.Cycles
	switch {
	case !slices.Equal(predicted, rep.Damaged):
		return mismatch(res, fmt.Sprintf("model %s predicted damage %v but recovery repaired %v", spec.Name, head(predicted), head(rep.Damaged))), nil
	case core.IsTypedRecoveryError(err):
		return typedError(res, err.Error()), nil
	case err != nil:
		return mismatch(res, err.Error()), nil
	}

	if f, ok := g.w.(kernels.Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		g.dev.Launch(name, fg, fb, k)
	}
	g.mem.FlushAll()
	img := g.mem.NVMImage()
	for i, r := range g.w.Outputs() {
		if !bytes.Equal(img[r.Base:r.Base+uint64(r.Size)], g.golden.outputs[i]) {
			return mismatch(res, fmt.Sprintf("durable image of %s diverges from fault-free golden under model %s", r.Name, spec.Name)), nil
		}
	}
	if g.a != nil {
		if err := g.a.Check(); err != nil {
			return mismatch(res, "post-recovery: "+err.Error()), nil
		}
	}
	res.Outcome = Recovered
	return res, nil
}

// caseModel resolves c's persistency model and checks that c's kind
// applies to it on c's kernel.
func caseModel(c Case) (pmodel.Spec, error) {
	spec, ok := lookupModel(c.Model)
	switch {
	case !ok:
		return spec, fmt.Errorf("faultsim: unknown persistency model %q", c.Model)
	case !ModelApplicable(spec.Name, c.Kernel, c.Kind):
		return spec, fmt.Errorf("faultsim: fault kind %v is not applicable to model %s on %s", c.Kind, spec.Name, c.Kernel)
	}
	return spec, nil
}

// build sets kernel up on a fresh hierarchy and binds the model with
// lp's checkpoint, after the audit (if any) is attached and before the
// leading epochs (if any) run.
func (g *group) build(spec pmodel.Spec, kernel string) {
	mem := memsim.MustNew(g.opt.Mem)
	g.image, g.a = mem.NVMImage, nil
	if g.audit != nil {
		g.a = g.audit(mem)
		g.image = g.a.Image
	}
	g.dev = gpusim.MustNew(g.opt.Dev, mem)
	g.w = kernels.New(kernel, g.opt.Scale)
	g.w.Setup(g.dev)
	lpCfg := g.opt.LP
	g.m = spec.New(g.dev, g.w, pmodel.Options{LP: &lpCfg, MaxRounds: g.opt.MaxRounds, Checkpoint: true, EPEntries: g.epEntries})
	g.kernel = g.m.Kernel()
	if g.epochs > 1 {
		grid, blk := g.w.Geometry()
		for ep := 0; ep+1 < g.epochs; ep++ {
			g.m.BeginEpoch(uint64(ep))
			g.dev.Launch(kernel, grid, blk, g.kernel)
			mem.FlushAll()
		}
		g.m.BeginEpoch(uint64(g.epochs - 1))
	}
	g.mem = mem
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

// mismatch closes res as a Mismatch outcome with the given text.
func mismatch(res Result, msg string) Result {
	res.Outcome = Mismatch
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
