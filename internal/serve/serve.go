// Package serve is the MEGA-KV serving layer: the front-end that turns
// the paper's batch kernel (internal/megakv, §VII-4) into a service under
// a million-user-shaped load. A seeded open/closed-loop generator emits
// client requests with Poisson or Gamma inter-arrival processes, an
// admission policy accepts or sheds them, a batcher coalesces admitted
// requests into conflict-free MEGA-KV kernel launches on the gpusim/
// memsim stack with a selectable persistency model (internal/pmodel)
// underneath, and a virtual-time serving loop reports per-SLO-class
// latency percentiles, goodput, admission drops, and durability
// overhead.
//
// Everything runs in simulated cycles — no wall-clock reads, no global
// randomness — so a serving run is a pure function of its Config:
// byte-identical across reruns and across host parallelism. Each batch boundary is an epoch boundary
// (dirty lines drained, model metadata advanced or truncated), which is
// what makes a mid-serving crash recoverable to the bit by the selected
// model.
package serve

import (
	"errors"
	"fmt"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// Op is one MEGA-KV request operation.
type Op uint8

const (
	// OpNop pads partially filled batch slots; it stores a zero result.
	OpNop Op = iota
	// OpSearch looks a key up and persists the found value (0 on miss).
	OpSearch
	// OpInsert adds or overwrites a key.
	OpInsert
	// OpDelete tombstones a key.
	OpDelete
	numOps
)

func (o Op) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpSearch:
		return "search"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Request is one client operation flowing through the pipeline.
type Request struct {
	// ID is the global arrival sequence number (merged stream order).
	ID int
	// Client indexes Config.Clients; Class indexes Config.Classes.
	Client int
	Class  int
	Op     Op
	Key    uint64
	Val    uint64
	// Arrival is the request's arrival time in device cycles.
	Arrival int64
}

// SLOClass is one service-level objective bucket.
type SLOClass struct {
	// Name labels the class in reports ("interactive", "bulk", ...).
	Name string
	// BudgetCycles is the end-to-end latency budget; completions within
	// it count toward goodput.
	BudgetCycles int64
}

// ClientSpec describes one load-generating client.
type ClientSpec struct {
	// Name labels the client in traces.
	Name string
	// Class indexes Config.Classes.
	Class int
	// Process selects the inter-arrival distribution: "poisson"
	// (exponential gaps) or "gamma" (Erlang gaps of Shape stages).
	Process string
	// RatePerMCycle is the mean arrival rate in requests per million
	// cycles; the mean inter-arrival gap is 1e6/RatePerMCycle.
	RatePerMCycle float64
	// Shape is the Erlang stage count for "gamma" (ignored for
	// "poisson"; 0 means 2).
	Shape int
	// SearchW, InsertW, DeleteW weight the operation mix.
	SearchW, InsertW, DeleteW int
	// Closed switches the client to closed-loop: it keeps exactly one
	// request outstanding and thinks for a random exponential gap of
	// mean ThinkCycles between a completion and its next arrival.
	Closed bool
	// ThinkCycles is the closed-loop mean think time.
	ThinkCycles float64
}

// Config is a complete, deterministic description of one serving run.
type Config struct {
	// Seed drives every random draw in the run.
	Seed uint64
	// HorizonCycles is the arrival horizon: no request arrives after it
	// (in-flight work still completes, so reports cover every admitted
	// request).
	HorizonCycles int64
	// Classes are the SLO buckets; Clients generate the load.
	Classes []SLOClass
	Clients []ClientSpec
	// MaxBatch caps requests per kernel launch; it must be a positive
	// multiple of BlockThreads (padding slots run OpNop).
	MaxBatch int
	// MaxWaitCycles is the batching deadline: a non-empty batch launches
	// once its oldest admitted request has waited this long.
	MaxWaitCycles int64
	// LaunchOverheadCycles is the fixed host-side cost charged per
	// kernel launch (driver + dispatch).
	LaunchOverheadCycles int64
	// KeySpace is the client key universe (keys are 1..KeySpace).
	KeySpace uint64
	// StoreBuckets sizes the MEGA-KV index (rounded up to a power of
	// two; capacity is 8 slots per bucket).
	StoreBuckets int
	// Model names the persistency model protecting the store: a pmodel
	// registry name, or ""/"none" for bare (non-persistent) launches.
	Model string
	// Policy names the admission policy ("always-admit", "token-bucket").
	Policy string
	// AdmitRatePerMCycle and AdmitBurst parameterize the token bucket:
	// sustained admitted requests per million cycles and bucket depth.
	AdmitRatePerMCycle float64
	AdmitBurst         int
	// Dev and Mem configure the simulated device (zero values select the
	// package defaults).
	Dev gpusim.Config
	Mem memsim.Config
	// LP is the Lazy Persistency design point (nil = core.DefaultConfig).
	LP *core.Config
	// CrashAtLaunch, when positive, crashes the memory system (volatile
	// loss) mid-way through the Nth kernel launch of the run, after
	// CrashAfterBlocks thread blocks (default 1); the serving loop then
	// runs the model's recovery and keeps serving.
	CrashAtLaunch    int
	CrashAfterBlocks int
	// ObserveAtLaunch, when positive, snapshots the durable output
	// images right after the Nth launch's epoch drain (and, for the
	// crashed launch, after recovery). The crash campaign compares a
	// crashed run's snapshot against a crash-free run's at the same
	// launch — the instant both runs have served exactly the same
	// requests — which is the bit-exact recovery witness. (Later batches
	// re-batch around the recovery stall, so final slot-indexed scratch
	// may differ while the admission ledger still verifies.)
	ObserveAtLaunch int
}

// BlockThreads is the serving kernel's thread-block width, matching the
// batch kernels in internal/kernels (one thread per operation).
const BlockThreads = 128

// ErrConfig wraps every configuration validation failure.
var ErrConfig = errors.New("serve: invalid config")

// ErrLedger wraps every admission-ledger consistency violation: the
// durable store disagreed with what the admitted request stream implies.
var ErrLedger = errors.New("serve: ledger violation")

// DefaultConfig returns a small but fully featured serving run: two SLO
// classes, two open-loop clients (Poisson and Gamma) plus one
// closed-loop client, a token-bucket-ready rate, and the LP model's
// device defaults scaled down to keep a sweep fast.
func DefaultConfig() Config {
	dev := gpusim.DefaultConfig()
	dev.NumSMs = 8
	return Config{
		Seed:          1,
		HorizonCycles: 2_000_000,
		Classes: []SLOClass{
			{Name: "interactive", BudgetCycles: 60_000},
			{Name: "bulk", BudgetCycles: 250_000},
		},
		Clients: []ClientSpec{
			{Name: "web", Class: 0, Process: "poisson", RatePerMCycle: 60,
				SearchW: 7, InsertW: 2, DeleteW: 1},
			{Name: "loader", Class: 1, Process: "gamma", Shape: 3, RatePerMCycle: 30,
				SearchW: 2, InsertW: 6, DeleteW: 2},
			{Name: "replayer", Class: 1, Process: "poisson", Closed: true, ThinkCycles: 25_000,
				SearchW: 5, InsertW: 3, DeleteW: 2},
		},
		MaxBatch:             256,
		MaxWaitCycles:        15_000,
		LaunchOverheadCycles: 2_000,
		KeySpace:             4_096,
		StoreBuckets:         1_024,
		Model:                "lp",
		Policy:               "always-admit",
		AdmitRatePerMCycle:   70,
		AdmitBurst:           32,
		Dev:                  dev,
		Mem:                  memsim.DefaultConfig(),
	}
}

// Validate reports the first configuration problem, wrapped in
// ErrConfig, or nil.
func (c Config) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrConfig, fmt.Sprintf(format, args...))
	}
	if c.HorizonCycles <= 0 {
		return fail("HorizonCycles must be positive")
	}
	if len(c.Classes) == 0 {
		return fail("at least one SLO class required")
	}
	for i, cl := range c.Classes {
		if cl.Name == "" {
			return fail("class %d has no name", i)
		}
		if cl.BudgetCycles <= 0 {
			return fail("class %q BudgetCycles must be positive", cl.Name)
		}
	}
	if len(c.Clients) == 0 {
		return fail("at least one client required")
	}
	for i, cs := range c.Clients {
		if cs.Class < 0 || cs.Class >= len(c.Classes) {
			return fail("client %d references class %d of %d", i, cs.Class, len(c.Classes))
		}
		if cs.SearchW < 0 || cs.InsertW < 0 || cs.DeleteW < 0 || cs.SearchW+cs.InsertW+cs.DeleteW <= 0 {
			return fail("client %d needs a non-negative op mix with positive total", i)
		}
		if cs.Closed {
			if cs.ThinkCycles <= 0 {
				return fail("closed-loop client %d needs positive ThinkCycles", i)
			}
		} else {
			if cs.RatePerMCycle <= 0 {
				return fail("open-loop client %d needs positive RatePerMCycle", i)
			}
			switch cs.Process {
			case "poisson":
			case "gamma":
				if cs.Shape < 0 {
					return fail("client %d Shape must be non-negative", i)
				}
			default:
				return fail("client %d has unknown process %q (poisson, gamma)", i, cs.Process)
			}
		}
	}
	if c.MaxBatch <= 0 || c.MaxBatch%BlockThreads != 0 {
		return fail("MaxBatch must be a positive multiple of %d, got %d", BlockThreads, c.MaxBatch)
	}
	if c.MaxWaitCycles <= 0 {
		return fail("MaxWaitCycles must be positive")
	}
	if c.LaunchOverheadCycles < 0 {
		return fail("LaunchOverheadCycles must be non-negative")
	}
	if c.KeySpace < 1 || c.KeySpace >= ^uint64(0)-1 {
		return fail("KeySpace must be in [1, 2^64-2)")
	}
	if c.StoreBuckets <= 0 {
		return fail("StoreBuckets must be positive")
	}
	if !modelKnown(c.Model) {
		return fail("unknown persistency model %q", c.Model)
	}
	if _, ok := LookupPolicy(c.Policy); !ok {
		return fail("unknown admission policy %q (registered: %v)", c.Policy, PolicyNames())
	}
	if c.Policy == "token-bucket" {
		if c.AdmitRatePerMCycle <= 0 {
			return fail("token-bucket needs positive AdmitRatePerMCycle")
		}
		if c.AdmitBurst <= 0 {
			return fail("token-bucket needs positive AdmitBurst")
		}
	}
	if c.CrashAtLaunch < 0 {
		return fail("CrashAtLaunch must be non-negative")
	}
	if c.ObserveAtLaunch < 0 {
		return fail("ObserveAtLaunch must be non-negative")
	}
	if c.CrashAtLaunch > 0 && bareModel(c.Model) {
		return fail("CrashAtLaunch requires a persistency model, got %q", c.Model)
	}
	return nil
}
