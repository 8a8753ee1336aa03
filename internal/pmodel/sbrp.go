package pmodel

import (
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// sbrp.go implements scoped buffered release persistency (SBRP) and the
// flag-model machinery it shares with strict persistency.
//
// SBRP posits a bounded per-scope persist buffer (the scope here is the
// thread block): protected stores enqueue their cache line instead of
// flushing it, repeated stores to a resident line coalesce for free,
// and the buffer only spills — flushing its oldest line — when a new
// line arrives at capacity. The block boundary is the release fence:
// every buffered line drains, a persist barrier orders the drain, and a
// durable per-block release flag publishes the scope. Between LP (no
// flushes at all) and EP (a flushed redo record per store), SBRP pays
// eager-flush cost only for working sets wider than the buffer.

// defaultSBRPBuffer is the persist-buffer capacity in cache lines — the
// small bounded hardware structure the model posits per scope.
const defaultSBRPBuffer = 8

// flagModel is the durable-state + recovery half shared by the models
// whose contract is a per-block release/commit flag (SBRP, strict): a
// block with a durable flag is fully persistent; a block without one
// re-executes. The kernel half differs per model and is supplied by the
// wrapper.
type flagModel struct {
	dev    *gpusim.Device
	name   string
	grid   gpusim.Dim3
	blk    gpusim.Dim3
	flags  memsim.Region
	kernel gpusim.KernelFunc
	tier   string
}

func newFlagModel(dev *gpusim.Device, w Workload, tier string) *flagModel {
	grid, blk := w.Geometry()
	f := &flagModel{
		dev:  dev,
		name: w.Name(),
		grid: grid,
		blk:  blk,
		tier: tier,
	}
	f.flags = dev.Alloc(tier+".flags", grid.Size()*8)
	f.flags.HostZero()
	return f
}

// release publishes thread block b as durable: persist barrier to drain
// any in-flight flushes, a durable release flag, a flush of the flag's
// line, and a second barrier ordering the flag ahead of block retire —
// the same two-fence commit discipline as EP's flag, minus the log.
func (f *flagModel) release(b *gpusim.Block) {
	b.ForAll(func(t *gpusim.Thread) {
		if t.Linear != 0 {
			return
		}
		t.PersistBarrier()
		t.StoreU64K(memsim.AccessLog, f.flags, b.LinearIdx, 1)
		t.FlushLine(f.flags, b.LinearIdx*8)
		t.PersistBarrier()
	})
}

func (f *flagModel) MetadataBytes() int64             { return int64(f.grid.Size()) * 8 }
func (f *flagModel) MetadataRegions() []memsim.Region { return []memsim.Region{f.flags} }
func (f *flagModel) Kernel() gpusim.KernelFunc        { return f.kernel }

// PredictDamage names the blocks whose release flag never persisted.
// A durable flag means every line the block touched was flushed and
// fenced before the flag — released blocks are never damage.
func (f *flagModel) PredictDamage(img []byte) []int {
	var damaged []int
	for blk := 0; blk < f.grid.Size(); blk++ {
		if memsim.ImageU64(img, f.flags.Base+uint64(blk)*8) == 0 {
			damaged = append(damaged, blk)
		}
	}
	return damaged
}

// Recover re-executes the unreleased blocks. Released blocks need
// nothing: their data is already durable.
func (f *flagModel) Recover() (Report, error) {
	var unreleased []int
	for blk := 0; blk < f.grid.Size(); blk++ {
		if f.flags.NVMU64(blk) == 0 {
			unreleased = append(unreleased, blk)
		}
	}
	out := Report{Damaged: unreleased, Tier: f.tier}
	if len(unreleased) > 0 {
		res := f.dev.LaunchSelected(f.name+"-reexec", f.grid, f.blk, f.kernel, unreleased)
		out.Cycles = res.Cycles
	}
	return out, nil
}

// sbrpModel is SBRP proper: flagModel recovery under a buffered kernel.
type sbrpModel struct {
	*flagModel
	lines int
}

func newSBRP(dev *gpusim.Device, w Workload, opt Options) Model {
	lines := opt.SBRPBuffer
	if lines <= 0 {
		lines = defaultSBRPBuffer
	}
	m := &sbrpModel{flagModel: newFlagModel(dev, w, "sbrp"), lines: lines}
	m.kernel = m.wrap(w.Kernel(nil), w.Outputs()...)
	return m
}

func (m *sbrpModel) Name() string { return "sbrp" }

// bufLine is one persist-buffer slot: a line-aligned offset into a
// protected region.
type bufLine struct {
	reg memsim.Region
	off int
}

// wrap instruments a plain kernel with the per-scope persist buffer.
// All buffer state is per-block-invocation (closure locals inside the
// block function), so no block ever sees another block's buffer.
func (m *sbrpModel) wrap(kernel gpusim.KernelFunc, protected ...memsim.Region) gpusim.KernelFunc {
	if kernel == nil {
		panic("pmodel: sbrp wraps a nil kernel")
	}
	if len(protected) == 0 {
		panic("pmodel: sbrp needs at least one protected region")
	}
	lineSize := m.dev.Mem().Config().LineSize
	return func(b *gpusim.Block) {
		// FIFO of buffered lines plus a residency index; head advances
		// on eviction so the slice is append-only per invocation.
		var fifo []bufLine
		head := 0
		resident := make(map[uint64]bool, m.lines)
		prev := b.SetStoreHook(func(t *gpusim.Thread, reg memsim.Region, elemIdx int, bits uint32) {
			tracked := false
			for _, p := range protected {
				if p.Base == reg.Base {
					tracked = true
					break
				}
			}
			if !tracked {
				return
			}
			off := (elemIdx * 4) / lineSize * lineSize
			key := reg.Base + uint64(off)
			if resident[key] {
				return // coalesced into the buffered line
			}
			if len(fifo)-head == m.lines {
				// Buffer full: spill the oldest line eagerly.
				old := fifo[head]
				head++
				delete(resident, old.reg.Base+uint64(old.off))
				t.FlushLine(old.reg, old.off)
			}
			fifo = append(fifo, bufLine{reg: reg, off: off})
			resident[key] = true
		})
		kernel(b)
		b.SetStoreHook(prev)

		// Release fence: drain the buffer in FIFO order, then publish.
		b.ForAll(func(t *gpusim.Thread) {
			if t.Linear != 0 {
				return
			}
			for _, l := range fifo[head:] {
				t.FlushLine(l.reg, l.off)
			}
		})
		m.release(b)
	}
}
