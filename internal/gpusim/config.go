// Package gpusim is a deterministic functional-plus-timing simulator of a
// CUDA-style GPU, built as the execution substrate for the Lazy Persistency
// on GPUs reproduction (IISWC 2020).
//
// Functional model. A kernel is a Go function invoked once per thread
// block. Inside the kernel, code between barriers is expressed as phases:
// Block.ForAll runs a body for every thread of the block (SIMT threads),
// and Block.WarpPhase runs a body once per warp with vector (per-lane)
// register access, which is how warp shuffle reductions are written.
// Global memory is a memsim.Memory (an NVM-backed write-back hierarchy),
// so stores persist only via natural eviction — the property Lazy
// Persistency depends on. Shared memory is per-block scratch that never
// touches the hierarchy.
//
// Timing model. The simulator charges cycles with a roofline-plus-
// contention model, which preserves the three costs that drive every
// result in the paper:
//
//   - compute: warp-instructions per phase divided by SM issue width,
//     with divergence charged as the max lane cost within a warp;
//   - memory: bytes moved at L2 and at the NVM, each against a per-SM
//     bandwidth share (a phase costs max(compute, memory));
//   - serialization: atomics to the same memory word queue behind each
//     other on a device-wide discrete-event timeline, and locks are FIFO
//     resources whose hold times are measured from the critical section.
//
// Thread blocks are scheduled onto SM slots (earliest-free-slot, occupancy
// limited), so the number of concurrently running blocks — the key scaling
// variable in the paper — determines how much contention the timeline sees.
// Everything is deterministic; no wall-clock time or randomness is used.
package gpusim

// Config describes the simulated device.
type Config struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// WarpSize is the number of lanes per warp.
	WarpSize int
	// MaxBlocksPerSM limits concurrent resident blocks per SM.
	MaxBlocksPerSM int
	// MaxThreadsPerSM limits concurrent resident threads per SM.
	MaxThreadsPerSM int
	// IssueWidth is warp-instructions issued per cycle per SM.
	IssueWidth float64
	// L2BytesPerCycle is device-wide L2 bandwidth in bytes/cycle.
	L2BytesPerCycle float64
	// NVMBytesPerCycle is device-wide NVM bandwidth in bytes/cycle.
	NVMBytesPerCycle float64
	// AtomicServiceCycles is how long a memory word stays busy per atomic
	// operation; conflicting atomics queue at this spacing.
	AtomicServiceCycles int64
	// AtomicChannelCycles is the device-wide reciprocal throughput of the
	// atomic pipeline (cycles per atomic, regardless of address). Bursts
	// of atomics from many concurrent blocks queue on this channel even
	// when they touch distinct addresses.
	AtomicChannelCycles int64
	// LockHandoffCycles is the fixed cost to pass a lock between
	// owners (release store + next owner's successful acquire over the
	// spin variable).
	LockHandoffCycles int64
	// BarrierCycles is the cost of a __syncthreads barrier.
	BarrierCycles int64
	// BlockDispatchCycles is the rate at which the work distributor
	// hands blocks to SMs (cycles per block). It skews the start times
	// of same-wave blocks, as the GigaThread engine does — without it,
	// uniform-duration blocks would all hit the checksum table at the
	// exact same simulated instant.
	BlockDispatchCycles int64
	// ClockGHz converts cycles to time for reporting.
	ClockGHz float64
	// WatchdogSteps arms the kernel watchdog: a thread that charges more
	// than this many instructions within one phase is presumed hung (e.g.
	// a spin lock whose memory word is pinned by a stuck-at media fault)
	// and the launch is aborted with a typed WatchdogError plus a
	// consistent crash image, instead of livelocking the simulator. The
	// budget is counted in charged steps of the deterministic functional
	// pass — a simulated clock, never wall time — so an abort is
	// bit-identical from run to run. 0 disables the watchdog.
	WatchdogSteps int64
}

// DefaultConfig returns a Volta-class device: 80 SMs, 32-lane warps, and an
// NVM memory system matching §VII-3 of the paper (326.4 GB/s at 1.455 GHz
// ≈ 224 bytes/cycle device-wide).
func DefaultConfig() Config {
	return Config{
		NumSMs:              80,
		WarpSize:            32,
		MaxBlocksPerSM:      8,
		MaxThreadsPerSM:     2048,
		IssueWidth:          4,
		L2BytesPerCycle:     1600, // ~2.3 TB/s L2
		NVMBytesPerCycle:    224,  // 326.4 GB/s at 1.455 GHz
		AtomicServiceCycles: 24,
		AtomicChannelCycles: 4,
		LockHandoffCycles:   220,
		BarrierCycles:       16,
		BlockDispatchCycles: 2,
		ClockGHz:            1.455,
	}
}

// Validate reports the first invalid field as a *ConfigError wrapping
// ErrConfig, or nil when the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return &ConfigError{Field: "NumSMs", Reason: "must be positive"}
	case c.WarpSize <= 0:
		return &ConfigError{Field: "WarpSize", Reason: "must be positive"}
	case c.MaxBlocksPerSM <= 0:
		return &ConfigError{Field: "MaxBlocksPerSM", Reason: "must be positive"}
	case c.MaxThreadsPerSM <= 0:
		return &ConfigError{Field: "MaxThreadsPerSM", Reason: "must be positive"}
	case c.IssueWidth <= 0:
		return &ConfigError{Field: "IssueWidth", Reason: "must be positive"}
	case c.L2BytesPerCycle <= 0:
		return &ConfigError{Field: "L2BytesPerCycle", Reason: "must be positive"}
	case c.NVMBytesPerCycle <= 0:
		return &ConfigError{Field: "NVMBytesPerCycle", Reason: "must be positive"}
	case c.WatchdogSteps < 0:
		return &ConfigError{Field: "WatchdogSteps", Reason: "must be non-negative (0 disables)"}
	}
	return nil
}

// CyclesToMS converts a cycle count to milliseconds at the device clock.
func (c Config) CyclesToMS(cycles int64) float64 {
	return float64(cycles) / (c.ClockGHz * 1e9) * 1e3
}

// Dim3 is a CUDA-style 3-component extent or index.
type Dim3 struct{ X, Y, Z int }

// D1 returns a one-dimensional Dim3.
func D1(x int) Dim3 { return Dim3{x, 1, 1} }

// D2 returns a two-dimensional Dim3.
func D2(x, y int) Dim3 { return Dim3{x, y, 1} }

// D3 returns a three-dimensional Dim3.
func D3(x, y, z int) Dim3 { return Dim3{x, y, z} }

// Size returns the number of elements covered by the extent.
func (d Dim3) Size() int { return d.X * d.Y * d.Z }

// Linear returns the linearized index of idx within extent d
// (x fastest, z slowest).
func (d Dim3) Linear(idx Dim3) int {
	return (idx.Z*d.Y+idx.Y)*d.X + idx.X
}

// Unlinear is the inverse of Linear.
func (d Dim3) Unlinear(lin int) Dim3 {
	x := lin % d.X
	y := (lin / d.X) % d.Y
	z := lin / (d.X * d.Y)
	return Dim3{x, y, z}
}
