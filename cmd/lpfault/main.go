// Command lpfault runs a seeded fault-injection campaign against the
// Lazy Persistency runtime: for every (kernel, fault-kind, seed) case it
// runs the workload under LP, injects the fault (mid-kernel crash,
// partial eviction, torn write-backs, or NVM bit flips), recovers with
// graceful-degradation escalation, and requires the durable image to be
// bit-exact against a fault-free golden run — or an honest typed error.
// Any mismatch or panic fails the campaign (non-zero exit) and is
// minimized to its smallest reproducing case.
//
// With -ratesweep it instead arms memsim's online media-error process at
// a swept per-write fault rate and drives the self-healing recovery
// orchestrator (ECC scrub, retrying quarantine, kernel watchdog),
// reporting per-rate recovery success, scrub heal rate, quarantined bytes
// and the degraded-coverage curve.
//
// With -cluster it runs the multi-device failover campaign: N simulated
// devices under one shared clock, a seeded injector killing one device
// mid-launch (fail-stop, hang, or transient stall) in every case, and
// cross-device failover required to recover the shared durable image
// bit-exactly on the survivors — or degrade honestly to the typed
// cluster error.
//
// With -serve it runs the mid-serving crash campaign: full MEGA-KV
// serving runs (seeded load, admission, batched launches) under each
// selected persistency model, with the memory system crashed mid-way
// through a seed-derived kernel launch; the in-loop recovery must leave
// the durable store bit-exact against a crash-free run observed at the
// same launch, and the admission ledger must hold to the end.
//
// With -replicas it runs the replicated-failover campaign: a fixed-size
// cluster keeping R durable copies of every shard, a seeded injector
// killing one device mid-launch in every case, and the quorum harvest
// required to absorb every R >= 2 failure by adopting a consistent
// surviving replica — zero re-executed blocks — while R = 1 cases must
// degrade to the legacy re-execute path byte-identically. The sweep
// covers R × failure kind × placer × persistency model with a bit-exact
// durable-pool audit on every case.
//
// Every mode reads the shared flags (-seeds, -seed, -json, -progress,
// -parallel) plus its own, as listed in the mode table below; any other
// flag, two modes at once, or a budget below 1 is a usage error (exit 2).
//
//	lpfault -seeds 12                      # 204-case default campaign
//	lpfault -kernels tmm -kinds mid-kernel # one cell of the sweep
//	lpfault -model all -seeds 4            # every persistency model, same faults
//	lpfault -repro '{"kernel":"tmm","kind":"mid-kernel","seed":12345}'
//	lpfault -ratesweep -json               # media-error rate sweep
//	lpfault -ratesweep -rates 0.01,0.1 -stuckfrac 0.2 -locks
//	lpfault -cluster -devices 2,3 -seeds 4 # multi-device failover sweep
//	lpfault -cluster -failures hang -routers least-loaded -json
//	lpfault -serve -seeds 4                # mid-serving crash campaign
//	lpfault -serve -model lp,strict -json
//	lpfault -replicas -rfactors 1,2,3      # replicated failover sweep
//	lpfault -replicas -placers affinity -model lp,sbrp -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"gpulp/internal/cluster"
	"gpulp/internal/faultsim"
	"gpulp/internal/pmodel"
)

// report is what every mode produces: a text table, a JSON form (the
// value itself), and whether any case broke the mode's contract.
type report interface {
	Render(io.Writer)
	Failed() bool
}

// mode is one campaign lpfault runs.
type mode struct {
	// flag selects the mode; "" marks the default crash-shape campaign.
	flag, usage string
	// reads lists every flag the mode reads beyond sharedFlags.
	reads []string
	run   func(f *cliFlags) (report, error)
}

func (m mode) String() string {
	if m.flag == "" {
		return "the crash-shape campaign"
	}
	return "-" + m.flag
}

// sharedFlags are read by every mode.
var sharedFlags = []string{"seeds", "seed", "json", "progress", "parallel"}

// modes is the mode table: validate selects one entry and rejects every
// flag it does not read, and main runs it. modes[0], the default, has no
// selecting flag.
var modes = []mode{
	{"", "", []string{"kernels", "kinds", "model", "minimize", "repro", "scale", "cache", "maxrounds"}, runCrash},
	{"ratesweep", "run the media-error rate sweep (self-healing recovery) instead of the crash-shape campaign",
		[]string{"rates", "stuckfrac", "locks", "watchdog", "attempts", "cache"}, runRateSweep},
	{"cluster", "run the multi-device failover campaign instead of the crash-shape campaign",
		[]string{"devices", "routers", "failures", "jobs", "minalive", "cache"}, runCluster},
	{"serve", "run the mid-serving crash campaign against the MEGA-KV serving layer instead of the crash-shape campaign",
		[]string{"model"}, runServe},
	{"replicas", "run the replicated-failover campaign instead of the crash-shape campaign",
		[]string{"rfactors", "placers", "failures", "model", "rdevices", "jobs", "minalive", "cache"}, runReplicas},
}

// cliFlags holds every parsed flag.
type cliFlags struct {
	kernels, kinds, model, repro   string
	seeds, scale, cache, maxRounds int
	seed                           uint64
	json, minimize, progress       bool
	parallel                       int
	rates                          string
	stuckFrac                      float64
	locks                          bool
	watchdog                       int64
	attempts                       int
	devices, routers, failures     string
	jobs, minAlive                 int
	rfactors, placers              string
	rdevices                       int
	on                             map[string]*bool // each mode's selecting flag
}

// register defines every flag on fs, one selecting flag per mode of the
// table included.
func register(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{on: map[string]*bool{}}
	fs.StringVar(&f.kernels, "kernels", "tmm,spmv,megakv-insert", "comma-separated workloads to stress")
	fs.StringVar(&f.kinds, "kinds", "", "comma-separated fault kinds (default: all of "+names(faultsim.AllKinds())+")")
	fs.IntVar(&f.seeds, "seeds", 12, "seeded cases per campaign cell")
	fs.Uint64Var(&f.seed, "seed", 0x1a2b3c4d, "campaign base seed")
	fs.IntVar(&f.scale, "scale", 1, "workload input scale")
	fs.IntVar(&f.cache, "cache", 256<<10, "cache size in bytes")
	fs.IntVar(&f.maxRounds, "maxrounds", 3, "selective-recovery round bound before escalation (>= 1)")
	fs.BoolVar(&f.json, "json", false, "emit the report as JSON instead of a table")
	fs.BoolVar(&f.minimize, "minimize", true, "shrink failing cases to their smallest reproduction")
	fs.BoolVar(&f.progress, "progress", false, "print each case as it completes")
	fs.IntVar(&f.parallel, "parallel", 1, "host goroutines running campaign jobs concurrently: a job is one (kernel, model) group of the default campaign, or one case of any other (the report is bit-identical at any value)")
	fs.StringVar(&f.model, "model", "", "persistency models to campaign over: comma-separated from "+strings.Join(pmodel.Names(), ",")+
		", or \"all\" (default: lp only; -serve: all; -replicas: lp,sbrp)")
	fs.StringVar(&f.repro, "repro", "", "re-run a single case from its reported JSON instead of a campaign")

	fs.StringVar(&f.rates, "rates", "0.002,0.01,0.05,0.2", "comma-separated per-write transient fault rates to sweep")
	fs.Float64Var(&f.stuckFrac, "stuckfrac", 0.1, "fraction of each rate that is permanent stuck-at faults")
	fs.BoolVar(&f.locks, "locks", false, "guard each block behind a spin lock so stuck lock cells exercise the kernel watchdog")
	fs.Int64Var(&f.watchdog, "watchdog", 2_000_000, "kernel watchdog step budget for the rate sweep (>= 1)")
	fs.IntVar(&f.attempts, "attempts", 4, "self-heal attempts per rate-sweep case (>= 1)")

	fs.StringVar(&f.devices, "devices", "2,3", "comma-separated cluster sizes to sweep")
	fs.StringVar(&f.routers, "routers", "", "comma-separated dispatch routers (default: all of "+names(cluster.AllRouters())+")")
	fs.StringVar(&f.failures, "failures", "", "comma-separated device-failure kinds (default: all of "+names(cluster.AllFailureKinds())+")")
	fs.IntVar(&f.jobs, "jobs", 8, "kernel launches (shards) per cluster case")
	fs.IntVar(&f.minAlive, "minalive", 1, "cluster quorum: below this many non-dead devices the run degrades")

	fs.StringVar(&f.rfactors, "rfactors", "1,2", "comma-separated replication factors to sweep")
	fs.StringVar(&f.placers, "placers", "", "comma-separated replica placers (default: all of "+names(cluster.AllPlacers())+")")
	fs.IntVar(&f.rdevices, "rdevices", 4, "fixed cluster size for the replicated-failover campaign")

	for _, m := range modes[1:] {
		f.on[m.flag] = fs.Bool(m.flag, false, m.usage)
	}
	return f
}

// validate picks the selected mode and rejects input it would ignore or
// misread: two modes at once, a flag the mode does not read (the first
// in flag-name order), a budget below 1, or no workload.
func validate(fs *flag.FlagSet, f *cliFlags) (mode, error) {
	m := modes[0]
	for _, cand := range modes[1:] {
		if !*f.on[cand.flag] {
			continue
		}
		if m.flag != "" {
			return m, fmt.Errorf("%v and %v are exclusive modes", m, cand)
		}
		m = cand
	}
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err == nil && f.on[fl.Name] == nil && !slices.Contains(sharedFlags, fl.Name) && !slices.Contains(m.reads, fl.Name) {
			err = fmt.Errorf("-%s does not apply to %v", fl.Name, m)
		}
	})
	if err != nil {
		return m, err
	}
	for _, b := range []struct {
		name string
		v    int64
	}{
		{"seeds", int64(f.seeds)}, {"scale", int64(f.scale)}, {"cache", int64(f.cache)},
		{"maxrounds", int64(f.maxRounds)}, {"parallel", int64(f.parallel)}, {"watchdog", f.watchdog},
		{"attempts", int64(f.attempts)}, {"jobs", int64(f.jobs)}, {"minalive", int64(f.minAlive)},
		{"rdevices", int64(f.rdevices)},
	} {
		if b.v < 1 {
			return m, fmt.Errorf("-%s %d must be >= 1", b.name, b.v)
		}
	}
	if !(f.stuckFrac >= 0 && f.stuckFrac <= 1) {
		return m, fmt.Errorf("-stuckfrac %v must be in [0,1]", f.stuckFrac)
	}
	if len(splitList(f.kernels)) == 0 {
		return m, fmt.Errorf("-kernels is empty: the crash-shape campaign needs at least one workload")
	}
	return m, nil
}

func main() {
	f := register(flag.CommandLine)
	flag.Parse()
	m, err := validate(flag.CommandLine, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpfault:", err)
		flag.Usage()
		os.Exit(2)
	}
	rep, err := m.run(f)
	if err != nil {
		fatal(err)
	}
	if f.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		rep.Render(os.Stdout)
	}
	if rep.Failed() {
		os.Exit(1)
	}
}

// options is the simulated platform of every mode that runs kernels.
func (f *cliFlags) options() faultsim.Options {
	opt := faultsim.DefaultOptions()
	opt.Scale = f.scale
	opt.Mem.CacheBytes = f.cache
	opt.MaxRounds = f.maxRounds
	return opt
}

// runCrash runs the crash-shape campaign, or replays one of its cases.
func runCrash(f *cliFlags) (report, error) {
	if f.repro != "" {
		return reproduce(f)
	}
	c := &faultsim.Campaign{
		Opt:      f.options(),
		Kernels:  splitList(f.kernels),
		Seeds:    f.seeds,
		BaseSeed: f.seed,
		Minimize: f.minimize,
		Parallel: f.parallel,
		Progress: progress(f, func(r faultsim.Result) string { return fmt.Sprintf("%v -> %v", r.Case, r.Outcome) }),
	}
	var err error
	c.Models = modelNames(&err, f.model)
	c.Kinds = parseList(&err, "kinds", f.kinds, faultsim.ParseKind)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// replayed is one replayed crash-shape case.
type replayed struct{ faultsim.Result }

func (r replayed) Failed() bool { return r.Outcome.Failed() }

func (r replayed) Render(w io.Writer) {
	tier := r.Tier
	if tier == "" {
		tier = "none"
	}
	fmt.Fprintf(w, "%v -> %v (tier %v, %d rounds, %d cycles)\n", r.Case, r.Outcome, tier, r.Rounds, r.Cycles)
	if r.Err != "" {
		fmt.Fprintln(w, "  ", r.Err)
	}
}

// reproduce replays one case from its JSON form (as reported in a
// campaign's failures) on a freshly computed golden image.
func reproduce(f *cliFlags) (report, error) {
	var c faultsim.Case
	if err := json.Unmarshal([]byte(f.repro), &c); err != nil {
		return nil, fmt.Errorf("bad -repro case: %w", err)
	}
	opt := f.options()
	golden, err := faultsim.GoldenRun(opt, c.Kernel)
	if err != nil {
		return nil, err
	}
	return replayed{faultsim.RunCase(opt, c, golden)}, nil
}

// runRateSweep runs the media-error rate sweep.
func runRateSweep(f *cliFlags) (report, error) {
	s := faultsim.DefaultRateSweep(f.seeds)
	s.Opt = f.options()
	s.StuckFrac = f.stuckFrac
	s.Locks = f.locks
	s.WatchdogSteps = f.watchdog
	s.MaxAttempts = f.attempts
	s.BaseSeed = f.seed
	s.Parallel = f.parallel
	s.Progress = progress(f, func(r faultsim.RateResult) string {
		return fmt.Sprintf("rate=%v seed=%#x -> %v", r.Rate, r.Seed, r.Outcome)
	})
	var err error
	s.Rates = parseList(&err, "rates", f.rates, func(tok string) (float64, error) { return strconv.ParseFloat(tok, 64) })
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// runCluster runs the multi-device failover campaign.
func runCluster(f *cliFlags) (report, error) {
	c := faultsim.DefaultClusterCampaign(f.seeds)
	c.Opt = f.options()
	c.BaseSeed = f.seed
	c.Jobs = f.jobs
	c.MinAlive = f.minAlive
	c.Parallel = f.parallel
	c.Progress = progress(f, failoverLine)
	var err error
	c.DeviceCounts = parseList(&err, "devices", f.devices, strconv.Atoi)
	c.Routers = parseList(&err, "routers", f.routers, cluster.ParseRouterKind)
	c.Kinds = parseList(&err, "failures", f.failures, cluster.ParseFailureKind)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// runReplicas runs the replicated-failover campaign.
func runReplicas(f *cliFlags) (report, error) {
	c := faultsim.DefaultReplicaCampaign(f.seeds)
	c.Opt = f.options()
	c.BaseSeed = f.seed
	c.Devices = f.rdevices
	c.Jobs = f.jobs
	c.MinAlive = f.minAlive
	c.Parallel = f.parallel
	c.Progress = progress(f, failoverLine)
	var err error
	c.RFactors = parseList(&err, "rfactors", f.rfactors, strconv.Atoi)
	c.Placers = parseList(&err, "placers", f.placers, cluster.ParsePlacerKind)
	c.Kinds = parseList(&err, "failures", f.failures, cluster.ParseFailureKind)
	c.Models = modelNames(&err, f.model)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// runServe runs the mid-serving crash campaign.
func runServe(f *cliFlags) (report, error) {
	c := faultsim.DefaultServeCampaign(f.seeds)
	c.BaseSeed = f.seed
	c.Parallel = f.parallel
	c.Progress = progress(f, func(r faultsim.ServeResult) string { return fmt.Sprintf("%v -> %v", r.Case, r.Outcome) })
	var err error
	c.Models = modelNames(&err, f.model)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

func failoverLine(r faultsim.FailoverResult) string {
	return fmt.Sprintf("%v -> %v", r.Case, r.Outcome)
}

// progress prints each completed case to stderr under -progress.
func progress[R any](f *cliFlags, line func(R) string) func(done, total int, r R) {
	if !f.progress {
		return nil
	}
	return func(done, total int, r R) { fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, line(r)) }
}

// parseList parses every token of a comma-separated flag value whole.
// *err keeps the first bad token, so a runner parses all its lists and
// checks once.
func parseList[T any](err *error, name, value string, parse func(string) (T, error)) []T {
	var out []T
	for _, tok := range splitList(value) {
		v, perr := parse(tok)
		if perr != nil && *err == nil {
			*err = fmt.Errorf("bad -%s entry %q: %w", name, tok, perr)
		}
		out = append(out, v)
	}
	return out
}

// modelNames resolves -model to registry names ("" keeps the mode's
// default); *err keeps the first error, as in parseList.
func modelNames(err *error, value string) []string {
	if value == "" {
		return nil
	}
	specs, perr := pmodel.Parse(value)
	if perr != nil && *err == nil {
		*err = perr
	}
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// names joins the String forms of vs with commas.
func names[T fmt.Stringer](vs []T) string {
	var out []string
	for _, v := range vs {
		out = append(out, v.String())
	}
	return strings.Join(out, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpfault:", err)
	os.Exit(1)
}
