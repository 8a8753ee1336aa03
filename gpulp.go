// Package gpulp is a Go reproduction of "Scalable and Fast Lazy
// Persistency on GPUs" (IISWC 2020): a Lazy Persistency (LP) runtime for
// GPU kernels, built over a deterministic SIMT GPU simulator with an
// NVM-backed write-back memory hierarchy.
//
// Lazy Persistency makes kernel results crash-recoverable without any
// cache flushing or logging: every thread block is a recovery region
// whose persistent stores are folded into a checksum; the checksums live
// in (NVM-backed) global memory and persist through natural cache
// eviction just like the data. After a crash, a validation kernel
// recomputes each region's checksums from the durable data and
// re-executes only the regions that fail.
//
// The package is a facade over the implementation packages:
//
//   - NewSystem builds a simulated device + NVM memory;
//   - NewLP creates an LP runtime for a kernel geometry, in any point of
//     the paper's design space (checksum kind, checksum store, locking,
//     reduction strategy);
//   - Region/Instrument protect kernels (explicitly or directive-style);
//   - Validate/ValidateAndRecover implement crash recovery;
//   - Translate implements the #pragma nvm lpcuda_* source directives.
//
// See the examples/ directory for runnable walkthroughs, cmd/lpbench for
// the reproduction of every table and figure in the paper's evaluation,
// and DESIGN.md / EXPERIMENTS.md for the system inventory and measured
// results.
package gpulp

import (
	"gpulp/internal/checksum"
	"gpulp/internal/core"
	"gpulp/internal/directive"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// Re-exported simulator types.
type (
	// Device is the simulated GPU.
	Device = gpusim.Device
	// DeviceConfig describes the simulated GPU.
	DeviceConfig = gpusim.Config
	// Memory is the simulated NVM-backed memory hierarchy.
	Memory = memsim.Memory
	// MemoryConfig describes cache and NVM parameters.
	MemoryConfig = memsim.Config
	// MemRegion is a named global-memory allocation.
	MemRegion = memsim.Region
	// Block is the per-thread-block kernel context.
	Block = gpusim.Block
	// Thread is the per-thread view within a block phase.
	Thread = gpusim.Thread
	// Dim3 is a CUDA-style extent/index.
	Dim3 = gpusim.Dim3
	// KernelFunc is a kernel body, invoked once per thread block.
	KernelFunc = gpusim.KernelFunc
	// LaunchResult summarizes a kernel launch.
	LaunchResult = gpusim.LaunchResult
)

// Re-exported Lazy Persistency types.
type (
	// LP is the Lazy Persistency runtime.
	LP = core.LP
	// LPConfig selects a point in the paper's design space.
	LPConfig = core.Config
	// Region is the per-block LP context (nil is valid and inert).
	Region = core.Region
	// RecomputeFunc recomputes a block's checksums during validation.
	RecomputeFunc = core.RecomputeFunc
	// RecoveryReport summarizes a ValidateAndRecover run.
	RecoveryReport = core.RecoveryReport
	// ChecksumState is a dual (modular+parity) checksum accumulator.
	ChecksumState = checksum.State
)

// Re-exported directive-translation types.
type (
	// DirectiveOutput is the result of translating #pragma nvm source.
	DirectiveOutput = directive.Output
)

// D1, D2, D3 construct launch dimensions.
func D1(x int) Dim3       { return gpusim.D1(x) }
func D2(x, y int) Dim3    { return gpusim.D2(x, y) }
func D3(x, y, z int) Dim3 { return gpusim.D3(x, y, z) }

// DefaultDeviceConfig returns a Volta-class device configuration.
func DefaultDeviceConfig() DeviceConfig { return gpusim.DefaultConfig() }

// DefaultMemoryConfig returns the paper's NVM configuration (§VII-3).
func DefaultMemoryConfig() MemoryConfig { return memsim.DefaultConfig() }

// DefaultLPConfig returns the paper's final design: checksum global
// array, lock-free, warp-shuffle reduction, dual checksums (§V).
func DefaultLPConfig() LPConfig { return core.DefaultConfig() }

// NewSystem builds a simulated GPU over a fresh NVM-backed memory.
func NewSystem(dev DeviceConfig, mem MemoryConfig) (*Device, *Memory) {
	m := memsim.MustNew(mem)
	return gpusim.MustNew(dev, m), m
}

// NewDefaultSystem builds a system with the default configurations.
func NewDefaultSystem() (*Device, *Memory) {
	return NewSystem(DefaultDeviceConfig(), DefaultMemoryConfig())
}

// NewLP creates a Lazy Persistency runtime for kernels launched with the
// given geometry on dev.
func NewLP(dev *Device, cfg LPConfig, grid, block Dim3) *LP {
	return core.New(dev, cfg, grid, block)
}

// FloatBits is the paper's Fig. 2 float-to-integer conversion used for
// checksumming floating-point stores (3.5 -> 1080033280).
func FloatBits(v float32) uint32 { return checksum.FloatBits(v) }

// Translate processes CUDA-style source annotated with the paper's
// #pragma nvm lpcuda_* directives (§VI), returning the instrumented
// program and the generated check-and-recovery code.
func Translate(src string) (*DirectiveOutput, error) { return directive.Translate(src) }
