package serve

import (
	"fmt"
	"math"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// server.go is the deterministic virtual-time serving loop. One pass
// interleaves three event sources — arrivals (generator + admission),
// launch deadlines (batcher), and completions (kernel launch + recovery
// + epoch drain) — on a single cycle clock. The loop serves a fleet of
// one or more devices in lockstep, one batch at a time: Run is the
// one-device fleet, RunCluster (cluster.go) a replicated one. Requests
// admitted while the fleet is busy queue for the next launch, which is
// where batching-under-load comes from.
//
// Epoch discipline: every batch boundary is a persistency epoch. After a
// launch, the cache's dirty lines are drained to NVM (charged at NVM
// bandwidth), making the previous epoch's effects durable; before the
// next launch, Model.BeginEpoch starts the next epoch (lp advances its
// checksum salt, the flag models truncate their redo logs and flags).
// A crash therefore only ever has one in-flight batch to repair, and
// the model's recovery restores the durable image bit-exactly.

// bareModel reports whether name means "no persistency model".
func bareModel(name string) bool { return name == "" || name == "none" }

// modelKnown reports whether name is bare or registered.
func modelKnown(name string) bool {
	if bareModel(name) {
		return true
	}
	_, ok := pmodel.Lookup(name)
	return ok
}

// launcher binds the workload to the selected persistency model (or to
// nothing, for the non-persistent baseline).
type launcher struct {
	kernel gpusim.KernelFunc
	model  pmodel.Model
}

func newLauncher(w *batchWorkload, cfg Config) *launcher {
	if bareModel(cfg.Model) {
		return &launcher{kernel: w.Kernel(nil)}
	}
	spec := pmodel.MustLookup(cfg.Model)
	_, blk := w.Geometry()
	m := spec.New(w.dev, w, pmodel.Options{
		LP: cfg.LP,
		// The serving kernel issues up to three 64-bit persistent stores
		// per thread (key confirm, value, result) — six hook records —
		// so EP's log needs twice its four-per-thread default.
		EPEntries: blk.Size() * 8,
		// No checkpoint tier: a bind-time checkpoint goes stale after the
		// first batch, and restoring it mid-run would erase every earlier
		// epoch. Selective re-execution and full-grid re-execution are
		// the only sound tiers under the per-batch epoch discipline.
		Checkpoint: false,
	})
	return &launcher{kernel: m.Kernel(), model: m}
}

// classStats accumulates one SLO class's counters.
type classStats struct {
	offered   int
	admitted  int
	dropped   int
	completed int
	onTime    int
	overflows int
	latencies []int64
}

// Ledger is the host-side admission ledger: the durable key-value state
// implied by every admitted request's acknowledged outcome, maintained
// in first-touch order (no map iteration anywhere near a report).
type Ledger struct {
	order   []uint64
	touched map[uint64]bool
	expect  map[uint64]uint64
	present map[uint64]bool
}

func newLedger() *Ledger {
	return &Ledger{
		touched: map[uint64]bool{},
		expect:  map[uint64]uint64{},
		present: map[uint64]bool{},
	}
}

func (l *Ledger) touch(key uint64) {
	if !l.touched[key] {
		l.touched[key] = true
		l.order = append(l.order, key)
	}
}

// Keys returns every key any request (admitted or dropped) named, in
// first-touch order.
func (l *Ledger) Keys() []uint64 { return append([]uint64(nil), l.order...) }

// apply folds one completed request's acknowledged outcome into the
// expected state, checking the result word against what the ledger
// already knows. A contradiction is an ErrLedger.
func (l *Ledger) apply(req Request, res uint64) error {
	l.touch(req.Key)
	switch req.Op {
	case OpSearch:
		want := uint64(0)
		if l.present[req.Key] {
			want = l.expect[req.Key]
		}
		if res != want {
			return fmt.Errorf("%w: search(key %#x) answered %#x, ledger expects %#x", ErrLedger, req.Key, res, want)
		}
	case OpInsert:
		switch res {
		case ResultInsertOK:
			l.expect[req.Key] = req.Val
			l.present[req.Key] = true
		case ResultOverflow:
			if l.present[req.Key] {
				return fmt.Errorf("%w: insert(key %#x) overflowed but the key is resident (overwrite cannot overflow)", ErrLedger, req.Key)
			}
		default:
			return fmt.Errorf("%w: insert(key %#x) answered unknown result %#x", ErrLedger, req.Key, res)
		}
	case OpDelete:
		if res != ResultDeleteAck {
			return fmt.Errorf("%w: delete(key %#x) answered %#x, want ack", ErrLedger, req.Key, res)
		}
		l.present[req.Key] = false
	default:
		return fmt.Errorf("%w: completed request has op %v", ErrLedger, req.Op)
	}
	return nil
}

// drop records a shed request's key so verification can also assert that
// dropped work left no trace.
func (l *Ledger) drop(req Request) { l.touch(req.Key) }

// Verify checks the durable store against the expected state, key by
// key, in first-touch order.
func (l *Ledger) Verify(store interface {
	NVMGet(key uint64) (uint64, bool)
}) error {
	for _, k := range l.order {
		got, ok := store.NVMGet(k)
		if l.present[k] {
			if !ok || got != l.expect[k] {
				return fmt.Errorf("%w: key %#x durable as %#x/%v, ledger expects %#x/true", ErrLedger, k, got, ok, l.expect[k])
			}
		} else if ok {
			return fmt.Errorf("%w: key %#x durable as %#x, ledger expects absent", ErrLedger, k, got)
		}
	}
	return nil
}

// node is one fleet member's full replica stack.
type node struct {
	id   int
	mem  *memsim.Memory
	dev  *gpusim.Device
	w    *batchWorkload
	l    *launcher
	free int64
	dead bool
}

// outputs snapshots the device's durable output regions (results, then
// the store).
func (d *node) outputs() [][]byte {
	var out [][]byte
	for _, reg := range d.w.Outputs() {
		out = append(out, d.mem.PeekNVM(reg.Base, reg.Size))
	}
	return out
}

// fleet is what a finished serving run leaves behind: its devices, the
// admission ledger, and the durable snapshot taken at ObserveAtLaunch.
// RunResult and ClusterRunResult both embed it.
type fleet struct {
	nodes    []*node
	ledger   *Ledger
	observed [][]byte
}

// lowestAlive returns the smallest-id alive device — the canonical
// replica results and snapshots are read from. At least one device is
// always alive (a last-device failure either recovers or errors out).
func (f fleet) lowestAlive() *node {
	for _, d := range f.nodes {
		if !d.dead {
			return d
		}
	}
	panic("serve: fleet has no alive device")
}

// Outputs snapshots the canonical replica's durable output regions —
// the bit-exactness witness.
func (f fleet) Outputs() [][]byte { return f.lowestAlive().outputs() }

// Observed returns the durable output snapshot taken at
// Config.ObserveAtLaunch (nil when unset or never reached).
func (f fleet) Observed() [][]byte { return f.observed }

// Ledger exposes the admission ledger.
func (f fleet) Ledger() *Ledger { return f.ledger }

// VerifyLedger checks every alive replica's durable store against the
// admission ledger — the replicas must agree with the acknowledged
// request stream and therefore with each other.
func (f fleet) VerifyLedger() error {
	for _, d := range f.nodes {
		if d.dead {
			continue
		}
		if err := f.ledger.Verify(d.w.Store()); err != nil {
			return fmt.Errorf("device %d: %w", d.id, err)
		}
	}
	return nil
}

// AliveDevices lists the ids still serving at run end.
func (f fleet) AliveDevices() []int {
	var out []int
	for _, d := range f.nodes {
		if !d.dead {
			out = append(out, d.id)
		}
	}
	return out
}

// RunResult is a finished single-device serving run: the report plus
// the handles the crash campaign and the determinism pins verify
// against.
type RunResult struct {
	Report *Report
	fleet
}

// Run executes one single-device serving run to completion. It is the
// one-device fleet: a CrashAtLaunch fault lands on the fleet's last
// alive device, which recovers in place with one attempt, and degraded
// mode (which only a lost replica enters) sheds no class.
func Run(cfg Config) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fc := ClusterConfig{
		Config:              cfg,
		Devices:             1,
		FailAtLaunch:        cfg.CrashAtLaunch,
		FailAfterBlocks:     cfg.CrashAfterBlocks,
		MaxRetries:          1,
		DegradedKeepClasses: len(cfg.Classes),
	}
	fc.CrashAtLaunch, fc.CrashAfterBlocks = 0, 0
	res, err := runFleet(fc)
	if err != nil {
		return nil, err
	}
	return &RunResult{Report: &res.Report.Report, fleet: res.fleet}, nil
}

// runFleet is the serving loop over a validated fleet configuration.
// Every batch launches on every alive device, and the batch completes
// when the slowest of them has drained it.
func runFleet(cfg ClusterConfig) (*ClusterRunResult, error) {
	nodes := make([]*node, cfg.Devices)
	for i := range nodes {
		mem := memsim.MustNew(cfg.Mem)
		dev := gpusim.MustNew(cfg.Dev, mem)
		w := newBatchWorkload(dev, cfg.StoreBuckets, cfg.MaxBatch)
		nodes[i] = &node{id: i, mem: mem, dev: dev, w: w, l: newLauncher(w, cfg.Config)}
	}
	f := fleet{nodes: nodes, ledger: newLedger()}
	gen := NewGenerator(cfg.Config)
	pol, _ := LookupPolicy(cfg.Policy)
	policy := pol.New(cfg.Config)
	bat := NewBatcher(cfg.MaxBatch)
	grid, blk := nodes[0].w.Geometry()

	stats := make([]classStats, len(cfg.Classes))
	rep := &ClusterReport{
		Report:  Report{Model: cfg.Model, Policy: cfg.Policy, Seed: cfg.Seed},
		Devices: cfg.Devices,
	}
	if bareModel(cfg.Model) {
		rep.Model = "none"
	}

	lineBytes := int64(nodes[0].mem.Config().LineSize)
	nvmBW := nodes[0].dev.Config().NVMBytesPerCycle
	// fleetFree is when every alive device can accept the next batch;
	// the fleet launches in lockstep so the replicas stay in the same
	// epoch.
	fleetFree := func() int64 {
		var free int64
		for _, d := range nodes {
			if !d.dead && d.free > free {
				free = d.free
			}
		}
		return free
	}

	injectFail := cfg.FailRecoveryAttempts
	degraded := false

	var now int64
	arr, arrOK := gen.Next()
	for {
		// When would the current queue launch?
		tLaunch := int64(math.MaxInt64)
		if bat.Len() >= cfg.MaxBatch {
			tLaunch = maxI64(now, fleetFree())
		} else if bat.Len() > 0 {
			tLaunch = maxI64(bat.OldestAdmit()+cfg.MaxWaitCycles, fleetFree())
			if !arrOK {
				// No arrival can precede the deadline: drain immediately.
				tLaunch = maxI64(now, fleetFree())
			}
		}

		// Arrivals strictly before the launch instant are processed
		// first (ties launch: the batch the request raced is full or
		// due, so the request waits for the next one).
		if arrOK && (tLaunch == int64(math.MaxInt64) || arr.Arrival < tLaunch) {
			now = maxI64(now, arr.Arrival)
			st := &stats[arr.Class]
			st.offered++
			switch {
			case degraded && arr.Class >= cfg.DegradedKeepClasses:
				// Degraded mode sheds the lower-priority classes at the
				// door, before the admission policy sees them, keeping
				// the surviving capacity for the leading (interactive)
				// classes.
				st.dropped++
				rep.DegradedSheds++
				f.ledger.drop(arr)
				if cfg.Clients[arr.Client].Closed {
					gen.Complete(arr.Client, arr.Arrival)
				}
			case policy.Admit(arr.Arrival, arr):
				st.admitted++
				bat.Add(arr, arr.Arrival)
			default:
				st.dropped++
				f.ledger.drop(arr)
				if cfg.Clients[arr.Client].Closed {
					// A shed closed-loop request completes instantly
					// from the client's point of view.
					gen.Complete(arr.Client, arr.Arrival)
				}
			}
			arr, arrOK = gen.Next()
			continue
		}
		if tLaunch == int64(math.MaxInt64) {
			break // no queue, no scheduled arrivals, nothing in flight
		}

		// Launch the batch on every alive device.
		now = tLaunch
		batch := bat.Take()
		rep.Launches++
		done := now
		for _, d := range nodes {
			if d.dead {
				continue
			}
			d.w.SetBatch(batch)
			if d.l.model != nil {
				d.l.model.BeginEpoch(uint64(rep.Launches))
			}
			if cfg.FailAtLaunch == rep.Launches && d.id == cfg.FailDevice {
				d.dev.CrashAfter(max(cfg.FailAfterBlocks, 1))
			}
			res := d.dev.Launch(fmt.Sprintf("megakv-serve#%d", rep.Launches), grid, blk, d.l.kernel)
			busy := cfg.LaunchOverheadCycles + res.Cycles
			rep.BusyCycles += res.Cycles
			if res.Interrupted {
				if len(f.AliveDevices()) > 1 {
					// Survivors already carry this batch bit-for-bit:
					// adopt their copy and drop the device. No recovery
					// launch, no stall — the whole point of replication.
					d.dead = true
					degraded = true
					rep.DeadDevices = append(rep.DeadDevices, d.id)
					rep.AdoptedBatches++
					continue
				}
				// Last device alive: recover in place under the bounded
				// retry/backoff budget.
				if d.l.model == nil {
					return nil, fmt.Errorf("%w: crash injected without a persistency model", ErrConfig)
				}
				var rrep pmodel.Report
				var rerr error
				for attempt := 1; attempt <= cfg.MaxRetries; attempt++ {
					if attempt > 1 {
						backoff := cfg.RetryBackoffCycles << uint(attempt-2)
						busy += backoff
						rep.RetryBackoffCycles += backoff
						rep.RetriesUsed++
					}
					if injectFail > 0 {
						injectFail--
						rerr = fmt.Errorf("serve: injected recovery fault (attempt %d): %w", attempt, core.ErrDegraded)
						continue
					}
					rrep, rerr = d.l.model.Recover()
					if rerr == nil {
						break
					}
				}
				if rerr != nil {
					return nil, fmt.Errorf("serve: recovery after launch %d exhausted %d attempts: %w",
						rep.Launches, cfg.MaxRetries, rerr)
				}
				rep.Recoveries++
				rep.RecoveryCycles += rrep.Cycles
				busy += rrep.Cycles
			}
			// Epoch drain: push every dirty line to NVM so this batch
			// is durable before its requests are acknowledged.
			lines := int64(d.mem.FlushAll())
			drain := int64(math.Ceil(float64(lines*lineBytes) / nvmBW))
			rep.DrainCycles += drain
			busy += drain
			d.free = now + busy
			if d.free > done {
				done = d.free
			}
		}
		if cfg.ObserveAtLaunch == rep.Launches {
			f.observed = f.Outputs()
		}

		// The batch completes when the slowest alive replica has drained
		// it — acknowledgements wait for fleet-wide durability.
		if done > rep.EndCycle {
			rep.EndCycle = done
		}
		src := f.lowestAlive()
		for i, p := range batch {
			if err := f.ledger.apply(p.req, src.w.Result(i)); err != nil {
				return nil, fmt.Errorf("serve: launch %d slot %d (%v key %#x): %w",
					rep.Launches, i, p.req.Op, p.req.Key, err)
			}
			st := &stats[p.req.Class]
			st.completed++
			if src.w.Result(i) == ResultOverflow && p.req.Op == OpInsert {
				st.overflows++
			}
			lat := done - p.req.Arrival
			st.latencies = append(st.latencies, lat)
			if lat <= cfg.Classes[p.req.Class].BudgetCycles {
				st.onTime++
			}
			gen.Complete(p.req.Client, done)
		}
		if !arrOK {
			// Completions may have scheduled new closed-loop arrivals.
			arr, arrOK = gen.Next()
		}
	}
	if rep.EndCycle < now {
		rep.EndCycle = now
	}

	rep.fillClasses(cfg.Config, stats)
	return &ClusterRunResult{Report: rep, fleet: f}, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
