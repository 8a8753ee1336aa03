// Package kernels implements the paper's benchmark suite (Table I) as
// gpusim workloads: tiled matrix multiplication (TMM) and the Parboil
// kernels TPACF, MRI-GRIDDING, SPMV, SAD, HISTO, CUTCP and MRI-Q, plus
// the MEGA-KV key-value workloads of §VII-4.
//
// Every workload provides a single kernel body that serves both as the
// no-LP baseline (nil runtime) and as the LP-protected variant (explicit
// Region.Update calls next to each persistent store, the Listing 2
// pattern), a recompute function for crash validation, a host golden
// reference for output verification, and deterministic synthetic inputs.
//
// The paper runs Parboil's "biggest inputs" on a V100; inputs here are
// scaled-down synthetic equivalents whose thread-block counts preserve
// the paper's ordering (SAD ≫ MRI-GRIDDING ≫ TMM ≫ SPMV ≫ MRI-Q ≫ TPACF
// ≫ CUTCP ≫ HISTO), because block count is the variable that drives
// every contention effect in Tables II–IV. The Scale parameter grows the
// inputs for longer runs.
package kernels

import (
	"fmt"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// Info carries the Table I row for a workload.
type Info struct {
	// Description is a one-line summary of the computation.
	Description string
	// Suite is the origin of the benchmark in the paper.
	Suite string
	// Bottleneck is the paper's classification: "inst throughput" or
	// "bandwidth".
	Bottleneck string
	// Input describes the synthetic input configuration.
	Input string
}

// Workload is a benchmark that can run bare or under Lazy Persistency.
type Workload interface {
	// Name returns the benchmark's short name (lowercase).
	Name() string
	// Info returns the Table I metadata.
	Info() Info
	// Setup allocates and durably initializes inputs and outputs on a
	// fresh device, and computes the host golden reference.
	Setup(dev *gpusim.Device)
	// Geometry returns the launch dimensions.
	Geometry() (grid, block gpusim.Dim3)
	// Kernel returns the kernel body; pass nil for the baseline, or an
	// LP runtime built for this workload's geometry.
	Kernel(lp *core.LP) gpusim.KernelFunc
	// Recompute returns the crash-validation function that refolds each
	// block's persistent outputs from memory.
	Recompute() core.RecomputeFunc
	// Verify compares the coherent device output with the golden
	// reference, returning a descriptive error on the first mismatch.
	Verify() error
	// PersistBytes is the persistent application output footprint, the
	// denominator of the Table V space-overhead column.
	PersistBytes() int64
	// Outputs returns the persistent output regions — what a persistency
	// runtime (LP's Instrument or the EP baseline) must protect.
	Outputs() []memsim.Region
}

// Finalizer is implemented by workloads that need a post-processing
// kernel after the main (LP-protected) kernel — e.g. HISTO's saturating
// merge. The harness runs it identically in baseline and LP runs.
type Finalizer interface {
	FinalizeKernel() (name string, grid, block gpusim.Dim3, k gpusim.KernelFunc)
}

// Names lists the eight Table I benchmarks in the paper's order.
var Names = []string{"tmm", "tpacf", "mri-gridding", "spmv", "sad", "histo", "cutcp", "mri-q"}

// New constructs the named workload at the given scale (1 = default;
// larger values grow the input). Panics on an unknown name.
func New(name string, scale int) Workload {
	if scale < 1 {
		scale = 1
	}
	switch name {
	case "tmm":
		return newTMM(scale)
	case "tpacf":
		return newTPACF(scale)
	case "mri-gridding":
		return newMRIGridding(scale)
	case "spmv":
		return newSPMV(scale)
	case "sad":
		return newSAD(scale)
	case "histo":
		return newHISTO(scale)
	case "cutcp":
		return newCUTCP(scale)
	case "mri-q":
		return newMRIQ(scale)
	}
	if pattern, ok := megakvPatterns[name]; ok {
		return newMegaKV(name, pattern, scale)
	}
	panic(fmt.Sprintf("kernels: unknown workload %q", name))
}

// prng is SplitMix64 — deterministic, seedable input generation without
// global state.
type prng struct{ s uint64 }

func newPrng(seed uint64) *prng { return &prng{s: seed} }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f32 returns a float in [0,1).
func (p *prng) f32() float32 {
	return float32(p.next()>>40) / float32(1<<24)
}

// intn returns an int in [0,n).
func (p *prng) intn(n int) int {
	return int(p.next() % uint64(n))
}

// mismatchF32 formats a float comparison error.
func mismatchF32(name string, i int, got, want float32) error {
	return fmt.Errorf("%s: output[%d] = %v, want %v", name, i, got, want)
}

// mismatchI32 formats an int comparison error.
func mismatchI32(name string, i int, got, want int32) error {
	return fmt.Errorf("%s: output[%d] = %d, want %d", name, i, got, want)
}
