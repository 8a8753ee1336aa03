package kernels

import (
	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// Fill is the dense LP-protected fill the robustness layer crashes and
// audits: global thread gid stores Word(gid) into out[gid] and folds it
// into its block's checksum region. Its expected durable image is
// computable, so an audit needs no golden run, and its line→region map
// is exact, so a self-healer can quarantine precisely. With locks,
// thread 0 of each block holds a per-block spin lock around the fill: a
// stuck-at cell under a lock word then livelocks re-execution, which the
// kernel watchdog must abort.
//
// Fill satisfies pmodel.Workload, so every persistency model can bind
// it. It is not a Table I benchmark: New does not build it and Names
// does not list it.
type Fill struct {
	grid, blk gpusim.Dim3
	salt      uint32
	locked    bool
	locks     memsim.Region
	out       memsim.Region
}

// NewFill allocates a fill of blocks × threads on dev: the per-block
// lock words ("locks", only when locks is set) and then the output
// ("out"), each durably zeroed. salt offsets every stored word.
func NewFill(dev *gpusim.Device, blocks, threads int, salt uint32, locks bool) *Fill {
	f := &Fill{grid: gpusim.D1(blocks), blk: gpusim.D1(threads), salt: salt, locked: locks}
	if locks {
		f.locks = dev.Alloc("locks", blocks*8)
		f.locks.HostZero()
	}
	f.out = dev.Alloc("out", blocks*threads*4)
	f.out.HostZero()
	return f
}

// Word returns the expected durable value of global thread gid.
func (f *Fill) Word(gid int) uint32 { return uint32(gid)*2654435761 + f.salt }

// Name returns the workload's short name.
func (f *Fill) Name() string { return "fill" }

// Geometry returns the launch dimensions.
func (f *Fill) Geometry() (gpusim.Dim3, gpusim.Dim3) { return f.grid, f.blk }

// Outputs returns the one persistent output region.
func (f *Fill) Outputs() []memsim.Region { return []memsim.Region{f.out} }

// Locks returns the per-block lock words, 8 bytes per block (the zero
// Region when the fill has no locks).
func (f *Fill) Locks() memsim.Region { return f.locks }

// Kernel returns the fill body: lock acquire, lp.Begin, the stores, lock
// release, Commit. A nil lp runs it bare.
func (f *Fill) Kernel(lp *core.LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		if f.locked {
			b.ForAll(func(t *gpusim.Thread) {
				if t.Linear == 0 {
					for t.AtomicCASU64(f.locks, b.LinearIdx, 0, 1) != 0 {
						t.Op(1)
					}
				}
			})
		}
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			gid := t.GlobalLinear()
			v := f.Word(gid)
			t.StoreU32(f.out, gid, v)
			r.Update(t, v)
		})
		if f.locked {
			b.ForAll(func(t *gpusim.Thread) {
				if t.Linear == 0 {
					t.AtomicExchU64(f.locks, b.LinearIdx, 0)
				}
			})
		}
		r.Commit()
	}
}

// Recompute refolds each block's durable outputs.
func (f *Fill) Recompute() core.RecomputeFunc {
	return func(b *gpusim.Block, r *core.Region) {
		b.ForAll(func(t *gpusim.Thread) {
			r.Update(t, t.LoadU32(f.out, t.GlobalLinear()))
		})
	}
}

// FoldBlock replays one block of the fill from a raw durable image in
// thread order; it is the pmodel.BlockFolder lp refolds a replica's
// checksums with.
func (f *Fill) FoldBlock(img []byte, block int, emit func(bits uint32)) {
	threads := f.blk.Size()
	for t := 0; t < threads; t++ {
		emit(memsim.ImageU32(img, f.out.Base+uint64(block*threads+t)*4))
	}
}

// RegionOf maps a durable line address to the LP region (fusion
// consecutive blocks) whose outputs it holds, or -1 for a line outside
// the output (a lock word, or the checksum store).
func (f *Fill) RegionOf(line uint64, fusion int) int {
	if !f.out.Contains(line) {
		return -1
	}
	return int((line-f.out.Base)/uint64(f.blk.Size()*4)) / max(fusion, 1)
}

// Diverged audits a durable image: it returns the first global thread
// whose word differs from Word, with the word found, or -1 when every
// word matches. Blocks for which skip reports true are not audited; a
// nil skip audits them all.
func (f *Fill) Diverged(img []byte, skip func(block int) bool) (gid int, got uint32) {
	threads := f.blk.Size()
	for gid := 0; gid < f.grid.Size()*threads; gid++ {
		if skip != nil && skip(gid/threads) {
			continue
		}
		if got := memsim.ImageU32(img, f.out.Base+uint64(gid)*4); got != f.Word(gid) {
			return gid, got
		}
	}
	return -1, 0
}
