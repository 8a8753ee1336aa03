package faultsim

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"gpulp/internal/core"
	"gpulp/internal/hashtab"
	"gpulp/internal/parwork"
)

// denseFlipKernels lists the workloads whose output regions are dense
// arrays of checksummed 32-bit values: every written byte is covered by
// the block checksums and block re-execution is byte-idempotent, so a
// media bit flip in the data image MUST be detected and repaired
// bit-exactly. Hash-structured workloads (MEGA-KV) fold only a 32-bit
// digest per operation and relocate repaired keys, so data flips there
// would probe the workload's instrumentation gap rather than LP itself.
var denseFlipKernels = map[string]bool{
	"tmm": true, "spmv": true, "tpacf": true, "cutcp": true,
	"mri-q": true, "mri-gridding": true, "sad": true,
}

// Applicable reports whether kind is a meaningful, decidable probe for
// kernel (see denseFlipKernels for the one exclusion).
func Applicable(kernel string, kind Kind) bool {
	if kind != DataBitFlips {
		return true
	}
	return denseFlipKernels[kernel]
}

// ModelApplicable reports whether kind is a meaningful, decidable probe
// for kernel under the named persistency model. For LP it defers to
// Applicable. The flag models (ep, sbrp, strict) have no checksums, so
// media bit flips are undetectable by design and excluded; their
// mid-kernel recovery re-executes whole blocks, which is only
// byte-idempotent on the dense kernels.
func ModelApplicable(model, kernel string, kind Kind) bool {
	if spec, _ := lookupModel(model); spec.Name == "lp" {
		return Applicable(kernel, kind)
	}
	switch kind {
	case DataBitFlips, StoreBitFlips:
		return false
	case MidKernelCrash:
		return denseFlipKernels[kernel]
	}
	return true
}

// Campaign sweeps seeded fault cases over kernels × fault kinds.
type Campaign struct {
	Opt Options
	// Kernels are the workloads to stress (default: tmm, spmv,
	// megakv-insert — the paper's §VII-4 application plus two dense
	// Table I kernels).
	Kernels []string
	// Kinds are the fault shapes to inject (default: all).
	Kinds []Kind
	// Models are the persistency models to sweep (pmodel registry
	// names). Empty means the legacy LP-only campaign, whose reports are
	// byte-identical to pre-registry runs. Each model sees the same
	// seeded fault at every sweep position, so model columns are
	// directly comparable.
	Models []string
	// Seeds is the number of seeded cases per applicable
	// (kernel, kind) pair.
	Seeds int
	// BaseSeed perturbs every derived case seed; a report is
	// reproducible from (BaseSeed, Kernels, Kinds, Seeds) or from any
	// single case's recorded seed.
	BaseSeed uint64
	// Minimize shrinks every failing case to its smallest reproducing
	// parameters before reporting.
	Minimize bool
	// Progress, when non-nil, observes each completed case, one call at
	// a time, as it completes. At Parallel 1 it sees the cases group by
	// group (see Run): each (kernel, model) group's cases that strike
	// the launched state, in sweep order, then its mid-kernel cases from
	// the latest crash point to the earliest, ties in sweep order. Wider,
	// groups run concurrently, so the observation order is
	// nondeterministic; the Report is not.
	Progress func(done, total int, r Result)
	// Parallel is the number of host goroutines running (kernel, model)
	// groups concurrently. Every case is seeded from its sweep position
	// alone and reports what it would on a fresh system, and results are
	// aggregated in sweep order — any value (including 1, the default)
	// produces an identical Report.
	Parallel int
}

// DefaultCampaign returns the standard regression campaign: with
// seeds = 12 it is 204 cases (3 kernels × 6 kinds, minus the one
// inapplicable pair, × 12 seeds).
func DefaultCampaign(seeds int) *Campaign {
	if seeds <= 0 {
		seeds = 12
	}
	return &Campaign{
		Opt:      DefaultOptions(),
		Kernels:  []string{"tmm", "spmv", "megakv-insert"},
		Kinds:    AllKinds(),
		Seeds:    seeds,
		BaseSeed: 0x1a2b3c4d,
		Minimize: true,
	}
}

// KindSummary aggregates one (model, kernel, kind) cell of the sweep.
// Model is empty on legacy LP-only campaigns.
type KindSummary struct {
	Model       string `json:"model,omitempty"`
	Kernel      string `json:"kernel"`
	Kind        string `json:"kind"`
	Cases       int    `json:"cases"`
	Recovered   int    `json:"recovered"`
	TypedErrors int    `json:"typed_errors"`
	Mismatches  int    `json:"mismatches"`
	Panics      int    `json:"panics"`
	// MaxTier is the highest recovery tier any case needed.
	MaxTier string `json:"max_tier"`
	// MeanRecoveryCycles is the average simulated recovery cost.
	MeanRecoveryCycles int64 `json:"mean_recovery_cycles"`
}

// Report is the structured result of a campaign run.
type Report struct {
	Total       int           `json:"total"`
	Recovered   int           `json:"recovered"`
	TypedErrors int           `json:"typed_errors"`
	Mismatches  int           `json:"mismatches"`
	Panics      int           `json:"panics"`
	Summaries   []KindSummary `json:"summaries"`
	// Failures lists every case that violated the campaign contract
	// (mismatch or panic), reproducible from its recorded Case alone.
	Failures []Result `json:"failures,omitempty"`
	// Minimized pairs each failure with its shrunk reproduction.
	Minimized []Result `json:"minimized,omitempty"`
}

// Failed reports whether any case violated the campaign contract.
func (r *Report) Failed() bool { return r.Mismatches > 0 || r.Panics > 0 }

// Run executes the campaign. Golden images are computed once per kernel.
// The cases of one (kernel, model) pair form a group that runs on one
// simulated system: the workload is set up and the model bound once,
// and the bound kernel is launched once, with a memsim crash point at
// each mid-kernel case's block boundary. Every other case strikes the
// launched state, the memory rewound to it (memsim's Mark and Rewind)
// between cases, and each mid-kernel case then strikes its crash point,
// the memory returned to it (memsim's CrashTo). Each case reports
// exactly what it would on a fresh system (RunCase). A memory with the
// media fault model enabled cannot rewind, so Run refuses it; under the
// cuckoo checksum store, whose host-side hash state a rewind would not
// restore, every case runs on a fresh system.
func (c *Campaign) Run() (*Report, error) {
	opt := c.Opt
	if opt.Scale < 1 {
		opt.Scale = 1
	}
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 3
	}
	kernels := c.Kernels
	if len(kernels) == 0 {
		kernels = []string{"tmm", "spmv", "megakv-insert"}
	}
	kinds := c.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	seeds := c.Seeds
	if seeds <= 0 {
		seeds = 12
	}
	if opt.Mem.Fault.Enabled {
		return nil, errors.New("faultsim: a crash campaign rewinds its memory between cases, which the media fault model (Opt.Mem.Fault) does not allow; the rate sweep runs that model")
	}

	// An empty model list is the legacy LP-only campaign; its cases carry
	// no model label so recorded reports stay byte-identical.
	models := c.Models
	if len(models) == 0 {
		models = []string{""}
	}

	// Flatten the sweep into an ordered case list. Seeds derive from the
	// (kernel, kind, seed) sweep position — deliberately not from the
	// model, so every model faces the same fault at the same position and
	// the cells compare directly.
	goldens := make(map[string]*Golden, len(kernels))
	var cases []Case
	for ki, name := range kernels {
		g, err := GoldenRun(opt, name)
		if err != nil {
			return nil, err
		}
		goldens[name] = g
		for kj, kind := range kinds {
			for s := 0; s < seeds; s++ {
				seed := seedAt(c.BaseSeed, uint64(ki)<<40|uint64(kj)<<20|uint64(s))
				for _, model := range models {
					if ModelApplicable(model, name, kind) {
						cases = append(cases, Case{Kernel: name, Kind: kind, Seed: seed, Model: model})
					}
				}
			}
		}
	}

	// One work item per (kernel, model) group, on a system of its own
	// that only reads its golden image; each result lands in its case's
	// sweep slot, and Progress sees each case as it completes. The cuckoo
	// checksum store keeps host state that a rewind cannot restore (its
	// hash seeds and rehash count, which a rehash during recovery would
	// carry into the next case), so under it every case is a group of
	// one, on a fresh system.
	groups := groupCases(cases, opt.LP.Store == hashtab.Cuckoo)
	results := make([]Result, len(cases))
	var mu sync.Mutex
	done := 0
	parwork.Do(len(groups), c.Parallel, func(gi int) {
		idx := groups[gi]
		own := make([]Case, len(idx))
		for j, i := range idx {
			own[j] = cases[i]
		}
		g := &group{opt: opt, golden: goldens[own[0].Kernel]}
		g.run(own, func(j int, res Result, err error) {
			if err != nil {
				res = typedError(res, err.Error())
			}
			results[idx[j]] = res
			if c.Progress != nil {
				mu.Lock()
				done++
				c.Progress(done, len(cases), res)
				mu.Unlock()
			}
		})
	})

	// Aggregate in sweep order, reproducing the serial report exactly.
	rep := &Report{Total: len(results)}
	cells := map[string]*KindSummary{}
	cellCycles := map[string]int64{}
	for _, res := range results {
		cs := res.Case
		key := cs.Model + "/" + cs.Kernel + "/" + cs.Kind.String()
		cell, ok := cells[key]
		if !ok {
			cell = &KindSummary{Model: cs.Model, Kernel: cs.Kernel, Kind: cs.Kind.String(), MaxTier: "selective"}
			cells[key] = cell
		}
		cell.Cases++
		cellCycles[key] += res.Cycles
		switch res.Outcome {
		case Recovered:
			rep.Recovered++
			cell.Recovered++
		case TypedError:
			rep.TypedErrors++
			cell.TypedErrors++
		case Mismatch:
			rep.Mismatches++
			cell.Mismatches++
		case Panicked:
			rep.Panics++
			cell.Panics++
		}
		switch {
		case res.Tier == "": // the case never reached recovery
		case tierRank(res.Tier) < 0:
			// Non-LP models have one fixed mechanism, not an escalation
			// ladder; the cell reports it directly.
			cell.MaxTier = string(res.Tier)
		case tierRank(res.Tier) > tierRank(core.RecoveryTier(cell.MaxTier)):
			cell.MaxTier = string(res.Tier)
		}
		if res.Outcome.Failed() {
			rep.Failures = append(rep.Failures, res)
			if c.Minimize {
				rep.Minimized = append(rep.Minimized, MinimizeCase(opt, res, goldens[cs.Kernel]))
			}
		}
	}
	for key, cell := range cells {
		if cell.Cases > 0 {
			cell.MeanRecoveryCycles = cellCycles[key] / int64(cell.Cases)
		}
	}
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.Summaries = append(rep.Summaries, *cells[k])
	}
	return rep, nil
}

// groupCases partitions the positions of cases into (kernel, model)
// groups, each in sweep order and the groups in order of first
// appearance; alone makes every case a group of its own.
func groupCases(cases []Case, alone bool) [][]int {
	var groups [][]int
	at := map[[2]string]int{}
	for i, cs := range cases {
		key := [2]string{cs.Kernel, cs.Model}
		g, ok := at[key]
		if alone || !ok {
			g = len(groups)
			at[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// tierRank orders lp's tiers by escalation level; any other tier ranks
// -1.
func tierRank(t core.RecoveryTier) int {
	return slices.Index([]core.RecoveryTier{core.TierSelective, core.TierFullGrid, core.TierCheckpoint}, t)
}

// MinimizeCase shrinks a failing case to the smallest reproducing
// parameters by greedy descent over the fault magnitude (crash point or
// flip count), re-running each candidate. The returned Result is the
// smallest case that still fails — or the original when no smaller one
// does. Every candidate is fully seeded, so the minimized case
// reproduces from its Case alone.
func MinimizeCase(opt Options, failing Result, golden *Golden) Result {
	best := failing
	switch failing.Case.Kind {
	case MidKernelCrash:
		// Try to reproduce at ever-earlier crash points.
		after := failing.CrashedAfter
		for step := after / 2; step >= 1; step /= 2 {
			cand := best.Case
			cand.AfterBlocks = bestAfter(best) - step
			if cand.AfterBlocks < 1 {
				continue
			}
			if r := RunCase(opt, cand, golden); r.Outcome.Failed() {
				best = r
			}
		}
	case DataBitFlips, StoreBitFlips:
		// A single flip is the minimal media error.
		for flips := 1; flips < injectedFlips(best); flips++ {
			cand := best.Case
			cand.Flips = flips
			if r := RunCase(opt, cand, golden); r.Outcome.Failed() {
				best = r
				break
			}
		}
	}
	return best
}

func bestAfter(r Result) int {
	if r.Case.AfterBlocks > 0 {
		return r.Case.AfterBlocks
	}
	return r.CrashedAfter
}

func injectedFlips(r Result) int {
	if r.Case.Flips > 0 {
		return r.Case.Flips
	}
	return r.Injected
}

// Render writes the report as an aligned text table plus failure
// reproduction lines.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "fault-injection campaign: %d cases — %d recovered, %d typed errors, %d mismatches, %d panics\n",
		r.Total, r.Recovered, r.TypedErrors, r.Mismatches, r.Panics)
	// Legacy LP-only reports keep their exact column set; model sweeps
	// lead with a model column.
	hasModel := false
	for _, s := range r.Summaries {
		if s.Model != "" {
			hasModel = true
			break
		}
	}
	header := []string{"kernel", "fault", "cases", "recovered", "typed-err", "mismatch", "panic", "max tier", "mean rec cycles"}
	if hasModel {
		header = append([]string{"model"}, header...)
	}
	rows := [][]string{header}
	for _, s := range r.Summaries {
		row := []string{
			s.Kernel, s.Kind, fmt.Sprint(s.Cases), fmt.Sprint(s.Recovered),
			fmt.Sprint(s.TypedErrors), fmt.Sprint(s.Mismatches), fmt.Sprint(s.Panics),
			s.MaxTier, fmt.Sprint(s.MeanRecoveryCycles),
		}
		if hasModel {
			model := s.Model
			if model == "" {
				model = "lp"
			}
			row = append([]string{model}, row...)
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	for i, f := range r.Failures {
		fmt.Fprintf(w, "FAILURE %d: %v -> %v (%s)\n", i+1, f.Case, f.Outcome, f.Err)
		if i < len(r.Minimized) {
			m := r.Minimized[i]
			fmt.Fprintf(w, "  minimized: %v -> %v\n", m.Case, m.Outcome)
		}
	}
}
