package pmodel

import (
	"fmt"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// flagModel is the flag-commit family EP, SBRP and strict share. Every
// block ends with the same two-fence commit of a durable per-block
// flag, so a block whose flag is durable is fully persistent and a
// block without one re-executes. flagModel owns the flags, the commit,
// the flag scan, the re-execution and every recovery entry; a model
// adds only the store hook it runs the workload under (and ep its redo
// log).
type flagModel struct {
	dev       *gpusim.Device
	name      string
	grid, blk gpusim.Dim3
	lineSize  int
	// body is the workload's plain kernel; protected lists its output
	// regions, the only stores a model's hook persists.
	body      gpusim.KernelFunc
	protected []memsim.Region
	flags     memsim.Region
	// meta is every metadata region, the flags last.
	meta []memsim.Region
	// kernel is the instrumented kernel each model builds around body;
	// re-execution launches it too.
	kernel gpusim.KernelFunc
}

// newFlagModel binds the family's shared half to w. before lists the
// metadata regions a model allocated ahead of its flags (ep's log):
// they precede the flags in MetadataRegions and are zeroed ahead of
// them, in that order.
func newFlagModel(dev *gpusim.Device, w Workload, name string, before ...memsim.Region) *flagModel {
	grid, blk := w.Geometry()
	if grid.Size() <= 0 || blk.Size() <= 0 {
		panic(fmt.Sprintf("pmodel: %s binds an empty geometry grid=%v block=%v", name, grid, blk))
	}
	f := &flagModel{
		dev:      dev,
		name:     name,
		grid:     grid,
		blk:      blk,
		lineSize: dev.Mem().Config().LineSize,
	}
	f.flags = dev.Alloc(name+".flags", grid.Size()*8)
	f.meta = append(before, f.flags)
	for _, r := range f.meta {
		r.HostZero()
	}
	f.body, f.protected = w.Kernel(nil), w.Outputs()
	if f.body == nil {
		panic("pmodel: " + name + " wraps a nil kernel")
	}
	if len(f.protected) == 0 {
		panic("pmodel: " + name + " needs at least one protected region")
	}
	return f
}

func (f *flagModel) Name() string                     { return f.name }
func (f *flagModel) Kernel() gpusim.KernelFunc        { return f.kernel }
func (f *flagModel) MetadataRegions() []memsim.Region { return f.meta }

func (f *flagModel) MetadataBytes() int64 {
	var n int64
	for _, r := range f.meta {
		n += int64(r.Size)
	}
	return n
}

// protects reports whether reg is one of the workload's protected
// outputs.
func (f *flagModel) protects(reg memsim.Region) bool {
	for _, p := range f.protected {
		if p.Base == reg.Base {
			return true
		}
	}
	return false
}

// run executes block b of the workload body with hook seeing every
// store the block makes, then restores the block's previous hook.
func (f *flagModel) run(b *gpusim.Block, hook gpusim.StoreHook) {
	if b.GridDim != f.grid || b.BlockDim != f.blk {
		panic(fmt.Sprintf("pmodel: %s launched with grid %v block %v, bound to grid %v block %v",
			f.name, b.GridDim, b.BlockDim, f.grid, f.blk))
	}
	prev := b.SetStoreHook(hook)
	f.body(b)
	b.SetStoreHook(prev)
}

// commit is the two-fence commit that ends every block of the family,
// issued by one thread: a persist barrier drains the block's in-flight
// flushes, the flag is stored and its line flushed, and a second
// barrier orders the flag ahead of block retire.
func (f *flagModel) commit(t *gpusim.Thread, blk int, flag uint64) {
	t.PersistBarrier()
	t.StoreU64K(memsim.AccessLog, f.flags, blk, flag)
	t.FlushLine(f.flags, blk*8)
	t.PersistBarrier()
}

// release commits block b with flag 1 from its first thread.
func (f *flagModel) release(b *gpusim.Block) {
	b.ForAll(func(t *gpusim.Thread) {
		if t.Linear == 0 {
			f.commit(t, b.LinearIdx, 1)
		}
	})
}

// each calls fn for every listed block, or for every block of the grid
// when blocks is nil.
func (f *flagModel) each(blocks []int, fn func(blk int)) {
	if blocks == nil {
		for blk := 0; blk < f.grid.Size(); blk++ {
			fn(blk)
		}
		return
	}
	for _, blk := range blocks {
		fn(blk)
	}
}

// flag reads block blk's flag word as the durable image img records
// it; a nil img reads the bound device's durable memory.
func (f *flagModel) flag(img []byte, blk int) uint64 {
	if img == nil {
		return f.flags.NVMU64(blk)
	}
	return memsim.ImageU64(img, f.flags.Base+uint64(blk)*8)
}

// unflagged is the flag scan: the blocks of each(blocks) whose flag
// reads zero in img (nil: durable memory), in the order listed.
func (f *flagModel) unflagged(img []byte, blocks []int) []int {
	var out []int
	f.each(blocks, func(blk int) {
		if f.flag(img, blk) == 0 {
			out = append(out, blk)
		}
	})
	return out
}

// reexec re-executes blocks with the instrumented kernel, which commits
// each one's flag again. An interrupted launch leaves them unrepaired:
// a typed error wrapping core.ErrUnrecoverable.
func (f *flagModel) reexec(blocks []int) (int64, error) {
	if len(blocks) == 0 {
		return 0, nil
	}
	res := f.dev.LaunchSelected(f.name+"-reexec", f.grid, f.blk, f.kernel, blocks)
	if res.Interrupted {
		return res.Cycles, fmt.Errorf("pmodel: %s re-execution interrupted after %d of %d blocks: %w",
			f.name, res.Blocks, len(blocks), core.ErrUnrecoverable)
	}
	return res.Cycles, nil
}

// PredictDamage names the blocks whose flag never persisted: the commit
// makes a block's flag durable only after everything the block
// persisted, so a flagged block is never damage.
func (f *flagModel) PredictDamage(img []byte) []int { return f.unflagged(img, nil) }

// Recover re-executes the unflagged blocks; a flagged block's data is
// already durable.
func (f *flagModel) Recover() (Report, error) {
	damaged := f.unflagged(nil, nil)
	cycles, err := f.reexec(damaged)
	return Report{Damaged: damaged, Tier: f.name, Cycles: cycles}, err
}

// RecoverShard re-executes the shard's unflagged blocks; the flag models
// have no rounds to back off between.
func (f *flagModel) RecoverShard(blocks []int, _ int64) (ShardReport, error) {
	damaged := f.unflagged(nil, blocks)
	cycles, err := f.reexec(damaged)
	return ShardReport{Cycles: cycles, Reexecuted: len(damaged)}, err
}

// ShardIntact accepts the shard when every listed block's flag is
// durably set in img.
func (f *flagModel) ShardIntact(img []byte, blocks []int, _ BlockFolder) bool {
	return len(f.unflagged(img, blocks)) == 0
}

// BeginEpoch truncates the durable metadata in MetadataRegions order —
// sound because every earlier epoch's data is durable, so no recovery
// reads the old records or flags again.
func (f *flagModel) BeginEpoch(uint64) {
	for _, r := range f.meta {
		r.HostZero()
	}
}
