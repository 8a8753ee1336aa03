// Package cluster simulates a fault-tolerant multi-GPU cluster over the
// repo's single-device stack: N gpusim devices advance under one shared
// simulated clock, a selectable router dispatches kernel launches (jobs)
// across them, and every completed job's durable bytes are published
// into a shared durable memsim image (the pool) — each job is a shard of
// the cluster's persistent state. Every job runs a slice of one dense
// kernels.Fill, so the pool's expected image is computable.
//
// The robustness core is the device-failure protocol. A seeded injector
// arms whole-device failures mid-launch, each as one gpusim CrashAfter
// at a block boundary of the job's launch: the cache is lost and the
// NVM image stays harvestable. The three kinds differ only in what the
// control plane sees afterwards: fail-stop is detected at the crash and
// the device is dead; hang is detected once the device stays silent for
// the heartbeat timeout, and the device is fenced out for good; a
// transient stall is a hang whose device rejoins later. Failover fences
// the lost shard's range in the pool, harvests the dead device's durable
// bytes — the partially-persisted data slice plus its persistency
// model's durable metadata (the Lazy Persistency checksum table encodes
// presence in-band and therefore survives a raw copy) — imports them
// into a surviving device at identical addresses, and has the model repair exactly the in-flight
// blocks there with one Model.RecoverShard call (LP validates its
// checksums and re-executes the failed blocks, EP replays its redo log
// first, and the flag models re-execute the unflagged blocks), with
// bounded retries and deterministic exponential backoff across
// survivors. When the failover budget or the MinAlive quorum is
// exhausted, the run degrades gracefully to a typed
// DegradedClusterError: completed shards stay valid and published, lost
// shards stay fenced.
//
// With Replicas > 1 every shard is additionally written to R-1 replica
// devices chosen by a deterministic Placer (spread or affinity-aware),
// each replica flushed durable within the same shared-clock loop, and
// failover upgrades to quorum harvest: the survivors' replicas are
// judged — freshest first, in placement order — against the configured
// persistency model's own durable-image contract, Model.ShardIntact (LP
// refolds the shard and compares checksums; EP checks its redo log
// against the data; SBRP/strict check release flags), and the first
// consistent replica is adopted and
// published without re-executing anything. Only when no replica passes
// does the protocol fall back to the harvest/re-execute path above.
// Devices that rejoin after a transient stall trigger online
// rebalancing: a bounded number of published shards are copied back in
// per rejoin, the destination range fenced against device stores for
// the duration of each copy.
//
// Everything is deterministic: the same Config produces a bit-identical
// report and pool image on every run and at any host GOMAXPROCS — the
// repo's determinism contract extends to whole-cluster failover.
package cluster

import (
	"fmt"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// Config fixes one cluster run.
type Config struct {
	// Devices is the number of simulated GPUs (>= 1).
	Devices int
	// Jobs is the number of kernel launches to dispatch (default 8).
	// Job j computes the shard of blocks [j*BlocksPerJob, (j+1)*BlocksPerJob).
	Jobs int
	// BlocksPerJob and BlockThreads fix the per-job geometry
	// (default 4 × 32).
	BlocksPerJob int
	// BlockThreads is the threads per block.
	BlockThreads int
	// Router selects the dispatch policy (default RoundRobin).
	Router RouterKind
	// Replicas is the number of durable copies per shard, the primary
	// included (default 1 — the original sharded placement). With
	// Replicas > 1 each job also launches on Replicas-1 placer-chosen
	// devices within the same shared-clock loop, and failover prefers
	// adopting a consistent surviving replica over re-executing.
	Replicas int
	// Placer selects the replica placement policy (default Spread);
	// CustomPlacer overrides it with a caller-provided implementation.
	Placer       PlacerKind
	CustomPlacer Placer
	// Model names the persistency model protecting every device's shard
	// writes (a pmodel registry name; default "lp"). The model's durable
	// metadata decides replica freshness during quorum harvest; "lp"
	// keeps the original checksum-table failover path bit-identically.
	Model string
	// RebalanceBudget bounds shard copy-ins per rejoin event when
	// Replicas > 1 (default 2).
	RebalanceBudget int
	// Seed salts the fill pattern and derived values.
	Seed uint64
	// Mem and Dev configure every device's private hierarchy (and the
	// pool); zero values take the platform defaults.
	Mem memsim.Config
	Dev gpusim.Config
	// LP selects the persistency design point. BlocksPerJob must be a
	// multiple of the fusion factor so shard boundaries align to regions.
	LP core.Config
	// MaxFailovers bounds the failover attempts per lost job (default 3;
	// FailoverDisabled forbids failover entirely — every lost job
	// degrades immediately).
	MaxFailovers int
	// BackoffBase is the deterministic exponential backoff unit: retry
	// attempt a (a >= 1) waits BackoffBase << (a-1) cycles (default 1024).
	BackoffBase int64
	// MaxRounds bounds each failover attempt's validate→re-execute loop
	// (default 3).
	MaxRounds int
	// MinAlive is the quorum: when fewer devices remain non-dead, the
	// cluster stops accepting and failing over work (default 1).
	MinAlive int
	// Failures are the injected device failures, keyed by job.
	Failures []FailurePlan
	// FailRecoveryAttempts is a test hook: the first N failover attempts
	// die themselves (the recovering device fail-stops before validating),
	// exercising retry, backoff and degraded paths deterministically.
	FailRecoveryAttempts int
}

// heartbeatTimeout is the silence, in simulated cycles past a hung
// device's last heartbeat, after which the control plane declares it
// lost.
const heartbeatTimeout = 25_000

// FailoverDisabled, as Config.MaxFailovers, gives failover a zero
// budget: every lost job degrades immediately (MaxFailovers = 0 keeps
// the default of 3 so legacy zero-value configs are unchanged).
const FailoverDisabled = -1

// DefaultConfig returns a 2-device round-robin cluster over the platform
// defaults.
func DefaultConfig() Config {
	return Config{
		Devices: 2,
		Mem:     memsim.DefaultConfig(),
		Dev:     gpusim.DefaultConfig(),
		LP:      core.DefaultConfig(),
	}
}

// withDefaults fills unset knobs in place.
func (c *Config) withDefaults() {
	if c.Jobs <= 0 {
		c.Jobs = 8
	}
	if c.BlocksPerJob <= 0 {
		c.BlocksPerJob = 4
	}
	if c.BlockThreads <= 0 {
		c.BlockThreads = 32
	}
	if c.MaxFailovers == 0 {
		c.MaxFailovers = 3
	}
	if c.MaxFailovers < 0 {
		c.MaxFailovers = 0 // FailoverDisabled: zero budget, degrade immediately
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Model == "" {
		c.Model = "lp"
	}
	if c.RebalanceBudget == 0 {
		c.RebalanceBudget = 2
	}
	if c.RebalanceBudget < 0 {
		c.RebalanceBudget = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 1024
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 3
	}
	if c.MinAlive <= 0 {
		c.MinAlive = 1
	}
	if c.Mem.LineSize == 0 {
		c.Mem = memsim.DefaultConfig()
	}
	if c.Dev.NumSMs == 0 {
		c.Dev = gpusim.DefaultConfig()
	}
}

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	if c.Devices < 1 {
		return fmt.Errorf("cluster: Devices must be >= 1 (got %d)", c.Devices)
	}
	if c.MinAlive > c.Devices {
		return fmt.Errorf("cluster: MinAlive %d exceeds Devices %d", c.MinAlive, c.Devices)
	}
	if c.Router < 0 || c.Router >= numRouters {
		return fmt.Errorf("cluster: unknown router kind %d", int(c.Router))
	}
	if c.Placer < 0 || c.Placer >= numPlacers {
		return fmt.Errorf("cluster: unknown placer kind %d", int(c.Placer))
	}
	if c.Replicas > c.Devices {
		return fmt.Errorf("cluster: Replicas %d exceeds Devices %d (replicas must land on distinct devices)",
			c.Replicas, c.Devices)
	}
	if c.Model != "" {
		if _, ok := pmodel.Lookup(c.Model); !ok {
			return fmt.Errorf("cluster: unknown persistency model %q (have %v)", c.Model, pmodel.Names())
		}
	}
	fusion := c.LP.Fusion
	if fusion < 1 {
		fusion = 1
	}
	if c.BlocksPerJob%fusion != 0 {
		return fmt.Errorf("cluster: BlocksPerJob %d must be a multiple of LP fusion %d (shards must align to regions)",
			c.BlocksPerJob, fusion)
	}
	seen := map[int]bool{}
	for _, p := range c.Failures {
		if p.Job < 0 || p.Job >= c.Jobs {
			return fmt.Errorf("cluster: failure plan targets job %d outside [0,%d)", p.Job, c.Jobs)
		}
		if seen[p.Job] {
			return fmt.Errorf("cluster: duplicate failure plan for job %d", p.Job)
		}
		seen[p.Job] = true
		if p.Kind < 0 || p.Kind >= numFailureKinds {
			return fmt.Errorf("cluster: failure plan for job %d has unknown kind %d", p.Job, int(p.Kind))
		}
		if p.AfterBlocks < 0 || p.AfterBlocks > c.BlocksPerJob {
			return fmt.Errorf("cluster: failure plan for job %d fails after %d blocks (job has %d)",
				p.Job, p.AfterBlocks, c.BlocksPerJob)
		}
	}
	return nil
}

// node is one device, its private simulated hierarchy, and the
// persistency model protecting its shard writes.
type node struct {
	id    int
	mem   *memsim.Memory
	dev   *gpusim.Device
	fill  *kernels.Fill
	model pmodel.Model
	state DeviceState
	// freeAt is when the device's launch queue drains; rejoinAt is when a
	// stalled device becomes routable again.
	freeAt   int64
	rejoinAt int64
	busy     int64
	jobs     int
}

// DeviceReport is the per-device slice of a cluster Report.
type DeviceReport struct {
	ID         int         `json:"id"`
	State      DeviceState `json:"state"`
	Jobs       int         `json:"jobs"`
	BusyCycles int64       `json:"busy_cycles"`
}

// Report summarizes one cluster run. It is a pure function of the
// Config — bit-identical on every run and at any GOMAXPROCS.
type Report struct {
	Devices   int        `json:"devices"`
	Jobs      int        `json:"jobs"`
	Router    RouterKind `json:"router"`
	Model     string     `json:"model"`
	Replicas  int        `json:"replicas"`
	Placer    PlacerKind `json:"placer"`
	Completed int        `json:"completed"`
	// FailedOver counts jobs recovered on a survivor; Failovers counts
	// attempts (>= FailedOver when retries or cascades happened).
	FailedOver int   `json:"failed_over"`
	Failovers  int   `json:"failovers"`
	LostJobs   []int `json:"lost_jobs,omitempty"`
	// HeartbeatTimeouts counts hang/stall detections; Rejoins counts
	// stalled devices that came back.
	HeartbeatTimeouts int `json:"heartbeat_timeouts"`
	Rejoins           int `json:"rejoins"`
	// ReexecutedBlocks is how many blocks cross-device recovery had to
	// re-execute (first-round validation failures of successful
	// failovers).
	ReexecutedBlocks int `json:"reexecuted_blocks"`
	// BackoffCycles is simulated time spent in failover retry backoff.
	BackoffCycles int64 `json:"backoff_cycles"`
	// ReplicaLaunches counts replica (non-primary) shard launches;
	// Adopted counts jobs recovered by adopting a consistent surviving
	// replica — zero re-execution, zero failover attempts.
	ReplicaLaunches int `json:"replica_launches,omitempty"`
	Adopted         int `json:"adopted,omitempty"`
	// UnderReplicated counts jobs that could not reach the configured
	// replica count; RebalancedShards counts rejoin-triggered shard
	// copy-ins.
	UnderReplicated  int `json:"under_replicated,omitempty"`
	RebalancedShards int `json:"rebalanced_shards,omitempty"`
	// ReplicaCoverage is the mean fraction of the configured replica
	// count still alive per completed shard (1.0 = fully replicated);
	// only reported when Replicas > 1.
	ReplicaCoverage float64 `json:"replica_coverage,omitempty"`
	// NVMLineWrites totals durable line writes across every device and
	// the pool — the replication write-amplification measure.
	NVMLineWrites int64 `json:"nvm_line_writes"`
	// MakespanCycles is the shared-clock completion time of the run.
	MakespanCycles int64 `json:"makespan_cycles"`
	// Coverage is completed jobs over total jobs.
	Coverage  float64        `json:"coverage"`
	PerDevice []DeviceReport `json:"per_device"`
}

// Cluster is one runnable cluster instance.
type Cluster struct {
	cfg    Config
	grid   gpusim.Dim3
	blk    gpusim.Dim3
	pool   *memsim.Memory
	nodes  []*node
	placer Placer
	plans  map[int]FailurePlan
	// base is the fill output's address, identical on every device and
	// in the pool; rrLast is round-robin routing's last pick.
	base   uint64
	rrLast int
	// holders[j] lists, in placement order, the devices holding a
	// durable copy of job j's shard (replicas, then the publisher).
	// Tracked only when Replicas > 1.
	holders [][]int

	now          int64 // shared-clock high-water mark outside device queues
	done         []bool
	lost         []int
	failRecovery int
	rep          *Report
	ran          bool
}

// splitmix advances a SplitMix64 state — seed derivation without global
// randomness.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New builds a cluster: N devices with identical memory layouts (so a
// dead device's durable bytes import into any survivor at the same
// addresses), one shared durable pool, and the configured router.
func New(cfg Config) (*Cluster, error) {
	cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool, err := memsim.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:          cfg,
		grid:         gpusim.D1(cfg.Jobs * cfg.BlocksPerJob),
		blk:          gpusim.D1(cfg.BlockThreads),
		pool:         pool,
		plans:        map[int]FailurePlan{},
		rrLast:       -1,
		done:         make([]bool, cfg.Jobs),
		holders:      make([][]int, cfg.Jobs),
		failRecovery: cfg.FailRecoveryAttempts,
	}
	salt := uint32(splitmix(cfg.Seed ^ 0xc105_7e4d))
	spec := pmodel.MustLookup(cfg.Model)
	lpCfg := cfg.LP
	for i := 0; i < cfg.Devices; i++ {
		mem, err := memsim.New(cfg.Mem)
		if err != nil {
			return nil, err
		}
		dev, err := gpusim.New(cfg.Dev, mem)
		if err != nil {
			return nil, err
		}
		dev.SetIdentity(i, fmt.Sprintf("gpu%d", i))
		nd := &node{id: i, mem: mem, dev: dev}
		nd.fill = kernels.NewFill(dev, c.grid.Size(), cfg.BlockThreads, salt, false)
		nd.model = spec.New(dev, nd.fill, pmodel.Options{
			LP:        &lpCfg,
			MaxRounds: cfg.MaxRounds,
		})
		c.nodes = append(c.nodes, nd)
		if base := nd.fill.Outputs()[0].Base; i == 0 {
			c.base = base
		} else if base != c.base {
			panic("cluster: device memory layouts diverged — cross-device import is unsound")
		}
	}
	for _, p := range cfg.Failures {
		if p.AfterBlocks <= 0 {
			p.AfterBlocks = 1
		}
		if p.Kind == TransientStall && p.RejoinCycles <= 0 {
			p.RejoinCycles = 4 * heartbeatTimeout
		}
		c.plans[p.Job] = p
	}
	c.placer = cfg.CustomPlacer
	if c.placer == nil {
		c.placer = newPlacer(cfg.Placer)
	}
	c.rep = &Report{
		Devices: cfg.Devices, Jobs: cfg.Jobs, Router: cfg.Router,
		Model: cfg.Model, Replicas: cfg.Replicas, Placer: cfg.Placer,
	}
	return c, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Pool returns the shared durable image.
func (c *Cluster) Pool() *memsim.Memory { return c.pool }

// Owner returns job j's shard owner under the affinity placement.
func (c *Cluster) Owner(j int) int { return j % c.cfg.Devices }

// Done reports whether job j completed (directly or via failover).
func (c *Cluster) Done(j int) bool { return c.done[j] }

// jobBlocks returns job j's linear block indices.
func (c *Cluster) jobBlocks(j int) []int {
	out := make([]int, c.cfg.BlocksPerJob)
	for i := range out {
		out[i] = j*c.cfg.BlocksPerJob + i
	}
	return out
}

// jobBytes is the durable footprint of one job's output slice.
func (c *Cluster) jobBytes() int { return c.cfg.BlocksPerJob * c.cfg.BlockThreads * 4 }

// jobAddr returns the job's base address — identical in every device and
// in the pool (layouts are asserted equal at construction).
func (c *Cluster) jobAddr(j int) uint64 {
	return c.base + uint64(j*c.jobBytes())
}

// alive counts the non-dead devices.
func (c *Cluster) alive() int {
	n := 0
	for _, nd := range c.nodes {
		if nd.state != Dead {
			n++
		}
	}
	return n
}

// view builds the router-visible state of nd.
func (nd *node) view() DeviceView {
	at := nd.freeAt
	if nd.state == Stalled && nd.rejoinAt > at {
		at = nd.rejoinAt
	}
	return DeviceView{ID: nd.id, AvailableAt: at, BusyCycles: nd.busy, Jobs: nd.jobs}
}

// route picks the device for job j, or nil when quorum is lost.
func (c *Cluster) route(j int) *node {
	if c.alive() < c.cfg.MinAlive {
		return nil
	}
	var cands []DeviceView
	for _, nd := range c.nodes {
		if nd.state != Dead {
			cands = append(cands, nd.view())
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return c.nodes[c.pick(j, cands)]
}

// Run dispatches every job, failing over around injected device losses.
// The error is nil on full completion, or a typed *DegradedClusterError
// (wrapping core.ErrDegraded) when jobs were lost.
func (c *Cluster) Run() (*Report, error) {
	if c.ran {
		panic("cluster: Run called twice")
	}
	c.ran = true
	for j := 0; j < c.cfg.Jobs; j++ {
		nd := c.route(j)
		if nd == nil {
			// Quorum lost before this job could run: its shard joins the
			// fenced lost set like any failover-exhausted shard.
			//lpvet:allow fencepair a quorum-lost shard stays fenced by protocol: no survivor may ever publish into an unrecovered range
			c.pool.FenceRange(fmt.Sprintf("shard-job-%d", j), c.jobAddr(j), c.jobBytes())
			c.lost = append(c.lost, j)
			continue
		}
		c.runJob(j, nd)
	}
	c.finishReport()
	if len(c.lost) > 0 {
		var deadIDs []int
		for _, nd := range c.nodes {
			if nd.state == Dead {
				deadIDs = append(deadIDs, nd.id)
			}
		}
		return c.rep, &DegradedClusterError{
			Coverage:    c.rep.Coverage,
			LostJobs:    append([]int(nil), c.lost...),
			LostBlocks:  len(c.lost) * c.cfg.BlocksPerJob,
			DeadDevices: deadIDs,
		}
	}
	return c.rep, nil
}

// revive marks a stalled device alive, charging its rejoin wait, and
// returns the adjusted start time. Under replication a rejoin triggers
// bounded rebalancing of published shards back onto the device.
func (c *Cluster) revive(nd *node, start int64) int64 {
	if nd.rejoinAt > start {
		start = nd.rejoinAt
	}
	nd.state = Alive
	nd.rejoinAt = 0
	c.rep.Rejoins++
	if c.cfg.Replicas > 1 {
		c.rebalance(nd)
	}
	return start
}

// runJob launches job j on nd, arming any injected failure, and hands a
// failed launch to the failover path.
func (c *Cluster) runJob(j int, nd *node) {
	// Replicate first: the shard's durable copies exist before the
	// primary's (possibly failure-armed) launch, so quorum harvest has
	// survivors to judge whatever happens to the primary.
	if c.cfg.Replicas > 1 {
		c.replicate(j, nd)
	}
	start := nd.freeAt
	if nd.state == Stalled {
		start = c.revive(nd, start)
	}

	// Every failure kind crashes the device at the same block boundary: a
	// hung device's volatile state is dropped exactly as its eventual
	// reclaim would leave it. The kinds differ only in the detection
	// latency and rejoin charged below.
	plan, hasPlan := c.plans[j]
	if hasPlan {
		nd.dev.CrashAfter(plan.AfterBlocks)
	}
	res := nd.dev.LaunchSelected(fmt.Sprintf("job-%d", j), c.grid, c.blk, nd.model.Kernel(), c.jobBlocks(j))
	nd.dev.CrashAfter(0)
	nd.busy += res.Cycles
	nd.jobs++
	end := start + res.Cycles
	nd.freeAt = end

	if !res.Interrupted {
		c.publish(j, nd)
		return
	}

	// The device failed mid-launch. Classify, charge detection latency,
	// and fail the in-flight shard over.
	kind := Hang // an un-planned interruption (e.g. watchdog) reads as a hang
	if hasPlan {
		kind = plan.Kind
	}
	detectAt := end
	switch kind {
	case FailStop:
		nd.state = Dead
	case Hang:
		nd.state = Dead
		detectAt = end + heartbeatTimeout
		c.rep.HeartbeatTimeouts++
	case TransientStall:
		nd.state = Stalled
		detectAt = end + heartbeatTimeout
		nd.rejoinAt = detectAt + plan.RejoinCycles
		c.rep.HeartbeatTimeouts++
	}
	if detectAt > c.now {
		c.now = detectAt
	}
	c.failover(j, nd, detectAt)
}

// replicate launches job j's shard on Replicas-1 placer-chosen devices
// besides the primary, flushing each replica durable — the shard's
// standby copies for quorum harvest.
func (c *Cluster) replicate(j int, primary *node) {
	var cands []DeviceView
	for _, nd := range c.nodes {
		if nd.state != Dead && nd.id != primary.id {
			cands = append(cands, nd.view())
		}
	}
	need := c.cfg.Replicas - 1
	if need > len(cands) {
		c.rep.UnderReplicated++
	}
	if len(cands) == 0 {
		return
	}
	for _, id := range c.placer.Replicas(j, c.Owner(j), primary.id, need, cands) {
		r := c.nodes[id]
		start := r.freeAt
		if r.state == Stalled {
			start = c.revive(r, start)
		}
		res := r.dev.LaunchSelected(fmt.Sprintf("job-%d-replica", j), c.grid, c.blk, r.model.Kernel(), c.jobBlocks(j))
		r.busy += res.Cycles
		r.jobs++
		r.freeAt = start + res.Cycles
		// The replica durability sync point: the copy must survive any
		// later loss of this device.
		r.mem.FlushAll()
		c.addHolder(j, id)
		c.rep.ReplicaLaunches++
	}
}

// addHolder records id as holding a durable copy of job j's shard.
func (c *Cluster) addHolder(j, id int) {
	if c.cfg.Replicas <= 1 {
		return
	}
	for _, h := range c.holders[j] {
		if h == id {
			return
		}
	}
	c.holders[j] = append(c.holders[j], id)
}

// rebalance restores replication onto a rejoined device: up to
// RebalanceBudget published shards whose alive copy count dropped below
// Replicas are copied back in from the durable pool, the destination
// range fenced against device stores for the duration of each copy
// (host writes pass — the copy-in is control-plane work).
func (c *Cluster) rebalance(nd *node) {
	budget := c.cfg.RebalanceBudget
	for j := 0; j < c.cfg.Jobs && budget > 0; j++ {
		if !c.done[j] || c.holdsShard(j, nd.id) || c.aliveHolders(j) >= c.cfg.Replicas {
			continue
		}
		fence := fmt.Sprintf("rebalance-job-%d-dev-%d", j, nd.id)
		nd.mem.FenceRangeHost(fence, c.jobAddr(j), c.jobBytes())
		nd.mem.HostWrite(c.jobAddr(j), c.pool.PeekNVM(c.jobAddr(j), c.jobBytes()))
		nd.mem.Unfence(fence)
		c.addHolder(j, nd.id)
		c.rep.RebalancedShards++
		budget--
	}
}

// holdsShard reports whether device id already holds job j's shard.
func (c *Cluster) holdsShard(j, id int) bool {
	for _, h := range c.holders[j] {
		if h == id {
			return true
		}
	}
	return false
}

// aliveHolders counts job j's holders on non-dead devices.
func (c *Cluster) aliveHolders(j int) int {
	n := 0
	for _, h := range c.holders[j] {
		if c.nodes[h].state != Dead {
			n++
		}
	}
	return n
}

// publish makes job j's durable bytes visible in the shared pool: flush
// the owner's cache (the per-job durability sync point), then copy the
// job's NVM slice into the pool at the identical address.
func (c *Cluster) publish(j int, nd *node) {
	nd.mem.FlushAll()
	data := nd.mem.PeekNVM(c.jobAddr(j), c.jobBytes())
	c.pool.HostWrite(c.jobAddr(j), data)
	c.addHolder(j, nd.id)
	c.done[j] = true
	c.rep.Completed++
	if nd.freeAt > c.now {
		c.now = nd.freeAt
	}
}

// adopt scans job j's surviving replicas in placement order and returns
// the first whose durable image passes its model's freshness contract —
// the quorum-harvest path that recovers without re-executing anything.
// Dead holders are skipped: their NVM is harvestable, but adoption
// publishes via the holder's cache flush, which needs a live device.
func (c *Cluster) adopt(j int, dead *node) *node {
	blocks := c.jobBlocks(j)
	for _, id := range c.holders[j] {
		r := c.nodes[id]
		if r == dead || r.state == Dead {
			continue
		}
		if r.model.ShardIntact(r.mem.NVMImage(), blocks, r.fill.FoldBlock) {
			return r
		}
	}
	return nil
}

// failover recovers job j, lost on dead at detectAt. With replicas the
// first resort is quorum harvest: adopt the freshest consistent
// surviving replica and publish it — no re-execution, no failover
// attempt spent. Otherwise (or when no replica passes its model's
// contract): fence the shard in the pool, harvest the dead device's
// durable bytes, import them into a survivor, and have its model repair
// the shard there with one RecoverShard call. Bounded attempts with
// deterministic exponential backoff; a repair that fails typedly is
// charged to the survivor's busy time but counts no job on it, and the
// next survivor is tried. On exhaustion the shard stays fenced and the
// job is recorded lost.
func (c *Cluster) failover(j int, dead *node, detectAt int64) {
	fence := fmt.Sprintf("shard-job-%d", j)
	//lpvet:allow fencepair on failover exhaustion the lost shard stays fenced by protocol (see DegradedClusterError); the success paths unfence before publish
	c.pool.FenceRange(fence, c.jobAddr(j), c.jobBytes())

	if c.cfg.Replicas > 1 {
		if r := c.adopt(j, dead); r != nil {
			c.pool.Unfence(fence)
			c.publish(j, r)
			c.rep.Adopted++
			return
		}
	}

	// Harvest: the job's (partially persisted) data slice and the whole
	// durable metadata — LP's checksum table (the GlobalArray store
	// encodes entry presence in-band, so a raw byte copy reproduces
	// lookup semantics exactly on the importing device), EP's redo log
	// and commit flags, or a flag model's release flags.
	data := dead.mem.PeekNVM(c.jobAddr(j), c.jobBytes())
	metaRegions := dead.model.MetadataRegions()
	tables := make([][]byte, len(metaRegions))
	for i, tr := range metaRegions {
		tables[i] = dead.mem.PeekNVM(tr.Base, tr.Size)
	}

	tried := map[int]bool{dead.id: true}
	for attempt := 0; attempt < c.cfg.MaxFailovers; attempt++ {
		r := c.pickRecovery(tried)
		if r == nil {
			break // quorum lost or every survivor already tried
		}
		c.rep.Failovers++
		start := detectAt
		if r.state == Stalled {
			start = c.revive(r, start)
		}
		if r.freeAt > start {
			start = r.freeAt
		}
		if attempt > 0 {
			bo := c.cfg.BackoffBase << (attempt - 1)
			start += bo
			c.rep.BackoffCycles += bo
		}

		r.mem.HostWrite(c.jobAddr(j), data)
		for i, tr := range r.model.MetadataRegions() {
			r.mem.HostWrite(tr.Base, tables[i])
		}

		if c.failRecovery > 0 {
			// Injected cascade: the recovering device dies before its
			// validation launch completes.
			c.failRecovery--
			r.state = Dead
			r.mem.Crash()
			r.freeAt = start + heartbeatTimeout
			if r.freeAt > c.now {
				c.now = r.freeAt
			}
			tried[r.id] = true
			detectAt = r.freeAt
			continue
		}

		rep, err := r.model.RecoverShard(c.jobBlocks(j), c.cfg.BackoffBase)
		r.busy += rep.Cycles
		r.freeAt = start + rep.Cycles + rep.BackoffCycles
		c.rep.BackoffCycles += rep.BackoffCycles
		if err != nil {
			// Typed failure on this survivor: try the next one.
			tried[r.id] = true
			detectAt = r.freeAt
			continue
		}
		r.jobs++
		c.rep.ReexecutedBlocks += rep.Reexecuted
		c.pool.Unfence(fence)
		c.publish(j, r)
		c.rep.FailedOver++
		return
	}
	c.lost = append(c.lost, j)
}

// pickRecovery chooses the least-loaded untried survivor (ties by lowest
// id), preferring alive devices over stalled ones; nil when quorum is
// below MinAlive or no candidate remains.
func (c *Cluster) pickRecovery(tried map[int]bool) *node {
	if c.alive() < c.cfg.MinAlive {
		return nil
	}
	var best *node
	better := func(a, b *node) bool {
		if a.state != b.state {
			return a.state == Alive
		}
		if a.busy != b.busy {
			return a.busy < b.busy
		}
		return a.id < b.id
	}
	for _, nd := range c.nodes {
		if nd.state == Dead || tried[nd.id] {
			continue
		}
		if best == nil || better(nd, best) {
			best = nd
		}
	}
	return best
}

// finishReport freezes the per-device stats and cluster totals.
func (c *Cluster) finishReport() {
	makespan := c.now
	for _, nd := range c.nodes {
		if nd.freeAt > makespan {
			makespan = nd.freeAt
		}
		c.rep.PerDevice = append(c.rep.PerDevice, DeviceReport{
			ID: nd.id, State: nd.state, Jobs: nd.jobs, BusyCycles: nd.busy,
		})
	}
	c.rep.MakespanCycles = makespan
	c.rep.LostJobs = append([]int(nil), c.lost...)
	c.rep.Coverage = float64(c.rep.Completed) / float64(c.cfg.Jobs)
	writes := c.pool.Stats().NVMLineWrites
	for _, nd := range c.nodes {
		writes += nd.mem.Stats().NVMLineWrites
	}
	c.rep.NVMLineWrites = writes
	if c.cfg.Replicas > 1 && c.rep.Completed > 0 {
		// Mean alive copies per completed shard, as a fraction of the
		// configured replica count (capped at 1 per shard).
		var sum float64
		for j := 0; j < c.cfg.Jobs; j++ {
			if !c.done[j] {
				continue
			}
			alive := c.aliveHolders(j)
			if alive > c.cfg.Replicas {
				alive = c.cfg.Replicas
			}
			sum += float64(alive) / float64(c.cfg.Replicas)
		}
		c.rep.ReplicaCoverage = sum / float64(c.rep.Completed)
	}
}

// Verify audits the shared pool: every completed job's shard must hold
// the expected fill values bit-exactly. Lost (fenced) shards are
// excluded — that exclusion is exactly the degraded-mode contract.
func (c *Cluster) Verify() error {
	fill := c.nodes[0].fill
	gid, got := fill.Diverged(c.pool.NVMImage(), func(block int) bool { return !c.done[block/c.cfg.BlocksPerJob] })
	if gid < 0 {
		return nil
	}
	wordsPerJob := c.jobBytes() / 4
	j, w := gid/wordsPerJob, gid%wordsPerJob
	return fmt.Errorf("cluster: pool image diverges at job %d word %d (addr %#x): got %#x want %#x",
		j, w, c.jobAddr(j)+uint64(w*4), got, fill.Word(gid))
}
