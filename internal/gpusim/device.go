package gpusim

import (
	"fmt"

	"gpulp/internal/memsim"
)

// KernelFunc is the body of a kernel, invoked once per thread block. b
// and the shared arrays it hands out are valid only until the call
// returns: the device reuses them for the blocks that follow.
type KernelFunc func(b *Block)

// Device is a simulated GPU attached to a simulated global memory.
type Device struct {
	cfg       Config
	mem       *memsim.Memory
	lines     *wordTimeline // device-wide atomic serialization state
	locks     []*Lock
	storeHook StoreHook
	traceSink func(LaunchTrace)
	heartbeat HeartbeatFunc
	// crashAfter is the armed CrashAfter point (0 = disarmed).
	crashAfter int
	// id and label identify the device in a multi-device topology.
	id    int
	label string
	// launchName is the name of the launch in flight, read by the watchdog
	// when it aborts and by heartbeats.
	launchName string

	// Launch scratch, reused from one launch to the next so that a warm
	// launch allocates nothing. inLaunch guards it: a launch started while
	// another is in flight on the same device panics.
	inLaunch bool
	slots    []int64 // per SM block slot: when it frees up
	order    []int   // 0, 1, 2, …: a full-grid launch dispatches a prefix
	recs     []blockRec
	events   []opEvent // flat event arena; recs[i].events are sub-slices
	block    Block     // the one block every dispatch runs in, reset each time
	sched    schedScratch
}

// Heartbeat is one liveness report from a launch in flight: the device
// emits it after every thread-block commit. Observers use the stream to
// time blocks from outside the simulator and to pick the block boundary
// of a launch to crash (CrashAfter).
type Heartbeat struct {
	// Device is the emitting device's identity (SetIdentity).
	Device int
	// Launch is the kernel name of the launch in flight.
	Launch string
	// Blocks is the number of blocks retired so far in this launch.
	Blocks int
	// Cycle is the greedy-schedule completion cycle of the latest block.
	Cycle int64
}

// HeartbeatFunc observes launch heartbeats. It runs after each block
// retires, just before an armed CrashAfter point is checked, so it must
// not mutate device memory; calling CrashAfter from inside it crashes the
// launch in flight.
type HeartbeatFunc func(hb Heartbeat)

// SetHeartbeat installs fn (nil to remove) and returns the previous one.
func (d *Device) SetHeartbeat(fn HeartbeatFunc) HeartbeatFunc {
	prev := d.heartbeat
	d.heartbeat = fn
	return prev
}

// SetIdentity names the device within a multi-device topology.
func (d *Device) SetIdentity(id int, label string) {
	d.id = id
	d.label = label
}

// ID returns the identity set by SetIdentity (0 by default).
func (d *Device) ID() int { return d.id }

// Label returns the label set by SetIdentity ("" by default).
func (d *Device) Label() string { return d.label }

// StoreHook observes every 32-bit data store a kernel performs. It is the
// mechanism behind directive-style instrumentation: a Lazy Persistency
// runtime installs a hook that folds stored values into the active
// region's checksum, so kernels need no hand-written checksum code.
type StoreHook func(t *Thread, r memsim.Region, elemIdx int, bits uint32)

// SetStoreHook installs hook (nil to remove) and returns the previous one.
func (d *Device) SetStoreHook(hook StoreHook) StoreHook {
	prev := d.storeHook
	d.storeHook = hook
	return prev
}

// New creates a Device over mem with the given configuration, returning a
// typed *ConfigError (wrapping ErrConfig) when the configuration or memory
// is invalid.
func New(cfg Config, mem *memsim.Memory) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, &ConfigError{Field: "mem", Reason: "must be non-nil"}
	}
	return &Device{cfg: cfg, mem: mem, lines: newWordTimeline()}, nil
}

// MustNew is New, panicking on error — the convenience constructor for
// tests and examples whose configuration is statically known-good.
func MustNew(cfg Config, mem *memsim.Memory) *Device {
	d, err := New(cfg, mem)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Mem returns the global memory behind the device.
func (d *Device) Mem() *memsim.Memory { return d.mem }

// Alloc allocates named global memory; a convenience forwarding to the
// memory system.
func (d *Device) Alloc(name string, size int) memsim.Region {
	return d.mem.Alloc(name, size)
}

// NewLock creates a device-wide spin lock (a location in global memory
// that threads acquire with atomic compare-and-swap). The returned Lock
// carries the simulated queueing state.
func (d *Device) NewLock(name string) *Lock {
	l := &Lock{name: name, id: len(d.locks)}
	d.locks = append(d.locks, l)
	return l
}

// LaunchResult summarizes the execution of one kernel launch.
type LaunchResult struct {
	// Name is the kernel name passed to Launch.
	Name string
	// Cycles is the simulated duration of the launch (last block
	// completion).
	Cycles int64
	// Blocks is the number of thread blocks executed.
	Blocks int
	// WarpInstrs is the total warp-instruction count.
	WarpInstrs int64
	// L2Bytes and NVMBytes are total bytes moved at each level.
	L2Bytes  int64
	NVMBytes int64
	// AtomicStallCycles is time blocks spent queued behind conflicting
	// atomics; LockStallCycles is time spent waiting for locks.
	AtomicStallCycles int64
	LockStallCycles   int64
	// MaxConcurrency is the number of SM block slots the launch could
	// occupy simultaneously.
	MaxConcurrency int
	// Interrupted reports that the launch stopped before the full grid
	// retired — an armed CrashAfter point was reached, or the watchdog
	// aborted a hung block; Blocks then counts only the blocks that
	// retired.
	Interrupted bool
	// Watchdog is non-nil when the kernel watchdog aborted the launch
	// (Config.WatchdogSteps exceeded): it identifies the runaway block.
	// The memory hierarchy has been crashed to a consistent durable image,
	// so recovery can proceed as after a power failure.
	Watchdog *WatchdogError
}

// String returns a one-line summary: the kernel name, blocks, cycles,
// warp instructions, L2 and NVM bytes, and atomic and lock stall cycles.
func (r LaunchResult) String() string {
	return fmt.Sprintf("%s: %d blocks, %d cycles, %d warp-instrs, %dB L2, %dB NVM, stalls atomic=%d lock=%d",
		r.Name, r.Blocks, r.Cycles, r.WarpInstrs, r.L2Bytes, r.NVMBytes, r.AtomicStallCycles, r.LockStallCycles)
}

// Launch runs kernel over the full grid and returns timing.
func (d *Device) Launch(name string, grid, block Dim3, kernel KernelFunc) LaunchResult {
	return d.launch(name, grid, block, kernel, nil)
}

// LaunchSelected runs kernel only for the listed linear block indices —
// the primitive used by crash recovery to re-execute failed LP regions.
func (d *Device) LaunchSelected(name string, grid, block Dim3, kernel KernelFunc, blocks []int) LaunchResult {
	if blocks == nil {
		blocks = []int{}
	}
	return d.launch(name, grid, block, kernel, blocks)
}

func (d *Device) launch(name string, grid, block Dim3, kernel KernelFunc, selected []int) LaunchResult {
	if grid.Size() <= 0 || block.Size() <= 0 {
		panic(fmt.Sprintf("gpusim: launch %q with empty grid %v or block %v", name, grid, block))
	}
	if kernel == nil {
		panic("gpusim: nil kernel")
	}
	if d.inLaunch {
		panic(fmt.Sprintf("gpusim: launch %q started from inside launch %q on the same device", name, d.launchName))
	}
	d.inLaunch = true
	defer func() {
		// An arm covers one launch: fired or not, it ends here.
		d.inLaunch, d.crashAfter = false, 0
	}()
	d.launchName = name
	threadsPerBlock := block.Size()
	perSM := d.cfg.MaxBlocksPerSM
	if byThreads := d.cfg.MaxThreadsPerSM / threadsPerBlock; byThreads < perSM {
		perSM = byThreads
	}
	if perSM < 1 {
		perSM = 1
	}
	d.slots = resize(d.slots, d.cfg.NumSMs*perSM)
	slots := d.slots
	clear(slots)

	order := selected
	if order == nil {
		if n := grid.Size(); len(d.order) < n {
			d.order = make([]int, n)
			for i := range d.order {
				d.order[i] = i
			}
		}
		order = d.order[:grid.Size()]
	}
	for _, lin := range selected {
		if lin < 0 || lin >= grid.Size() {
			panic(fmt.Sprintf("gpusim: selected block %d out of grid %v", lin, grid))
		}
	}

	res := LaunchResult{Name: name, Blocks: len(order), MaxConcurrency: len(slots)}
	// Reset per-launch state: each launch starts at t=0.
	d.lines.reset()
	for _, l := range d.locks {
		l.reset()
	}
	d.recs = d.recs[:0]
	d.events = d.events[:0]

	// Pass 1: functional execution in dispatch order, with a zero-queueing
	// greedy schedule providing approximate absolute times (used only by
	// RacyTouch race windows). Each retired block is recorded in d.recs.
	d.runBlocks(grid, block, kernel, order, slots, &res)
	res.Blocks = len(d.recs)

	// Pass 2: fixed-point timing with queueing delays.
	sr := d.schedule(d.recs, len(slots))
	res.Cycles = sr.cycles
	res.AtomicStallCycles += sr.atomicStall
	res.LockStallCycles = sr.lockStall
	d.emitTrace(name, order, d.recs, sr)
	return res
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// retire records a block that ran to completion: its serialization
// events are appended to the launch's event arena, its timing record to
// d.recs, and its charges to res.
func (d *Device) retire(b *Block, res *LaunchResult) {
	first := len(d.events)
	d.events = append(d.events, b.events...)
	d.recs = append(d.recs, blockRec{base: b.cycles, first: first, events: d.events[first:len(d.events):len(d.events)]})
	res.WarpInstrs += b.totWarpInstrs
	res.L2Bytes += b.totL2Bytes
	res.NVMBytes += b.totNVMBytes
	res.AtomicStallCycles += b.totAtomicStall
}

// runBlocks executes blocks one at a time in dispatch order. Every block
// runs in the device's one reused Block.
func (d *Device) runBlocks(grid, block Dim3, kernel KernelFunc, order []int, slots []int64, res *LaunchResult) {
	b := &d.block
	for orderIdx, lin := range order {
		// Earliest-free slot.
		slot := 0
		for i := 1; i < len(slots); i++ {
			if slots[i] < slots[slot] {
				slot = i
			}
		}
		start := slots[slot]
		// Work-distributor dispatch skew.
		if minStart := int64(orderIdx) * d.cfg.BlockDispatchCycles; start < minStart {
			start = minStart
		}
		b.reset(d, grid, block, lin, start)
		if wd := runBlockGuarded(kernel, b); wd != nil {
			// Hung block: drop all volatile state so the durable image is
			// exactly what a power failure at this dispatch point would
			// leave, and surface the typed abort. The partial block never
			// retires.
			d.mem.Crash()
			res.Interrupted = true
			res.Watchdog = wd
			break
		}
		slots[slot] = start + b.cycles
		d.retire(b, res)

		if hb := d.heartbeat; hb != nil {
			hb(Heartbeat{Device: d.id, Launch: d.launchName, Blocks: len(d.recs), Cycle: slots[slot]})
		}
		if n := d.crashAfter; n > 0 && len(d.recs) >= n {
			d.crashAfter = 0
			d.mem.Crash()
			res.Interrupted = true
			break
		}
	}
}
