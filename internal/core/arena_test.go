package core

import (
	"testing"

	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// atomicLPKernel is the shape of a small durable launch: every thread
// loads a key, updates its own slot with one atomic (as a batch of
// requests updates distinct buckets), stores its result and folds it into
// the block's LP region.
func atomicLPKernel(lp *LP, in, out, slots memsim.Region) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			gid := t.GlobalLinear()
			v := t.LoadU32(in, gid) ^ uint32(t.AtomicAddI32(slots, gid*8, 1))
			t.StoreU32(out, gid, v)
			r.Update(t, v)
		})
		r.Commit()
	}
}

// newAtomicLPLaunch sets up atomicLPKernel on a fresh device for a grid
// of blocks of blk threads.
func newAtomicLPLaunch(grid, blk gpusim.Dim3) (*gpusim.Device, gpusim.KernelFunc) {
	dev := newTestDevice()
	in := dev.Alloc("in", grid.Size()*blk.Size()*4)
	out := dev.Alloc("out", grid.Size()*blk.Size()*4)
	slots := dev.Alloc("slots", grid.Size()*blk.Size()*32) // a 32-byte sector per thread
	in.HostZero()
	slots.HostZero()
	return dev, atomicLPKernel(New(dev, DefaultConfig(), grid, blk), in, out, slots)
}

// TestWarmLPLaunchAllocs pins the allocation count of a warm 4-block,
// 128-thread LP launch with one atomic per thread: the device reuses its
// launch scratch, its block and the block's shared arrays, so what is
// left is the one *Region header each block opens.
func TestWarmLPLaunchAllocs(t *testing.T) {
	grid, blk := gpusim.D1(4), gpusim.D1(128)
	dev, kernel := newAtomicLPLaunch(grid, blk)
	dev.Launch("warm", grid, blk, kernel)
	allocs := testing.AllocsPerRun(20, func() { dev.Launch("warm", grid, blk, kernel) })
	if allocs > float64(grid.Size()) {
		t.Fatalf("warm LP launch: %v allocs, want at most %d (one *Region per block)", allocs, grid.Size())
	}
}

// BenchmarkLaunchSmall measures one warm launch of a single 128-thread
// block under LP with one load, one store and one atomic per thread: the
// shape of a lightly loaded serving batch, where per-launch cost rather
// than per-access cost dominates.
func BenchmarkLaunchSmall(b *testing.B) {
	grid, blk := gpusim.D1(1), gpusim.D1(128)
	dev, kernel := newAtomicLPLaunch(grid, blk)
	dev.Launch("small", grid, blk, kernel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Launch("small", grid, blk, kernel)
	}
}
