package pmodel

import (
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// sbrpModel is scoped buffered release persistency (SBRP). It posits a
// bounded per-scope persist buffer (the scope here is the thread
// block): protected stores enqueue their cache line instead of flushing
// it, repeated stores to a resident line coalesce for free, and the
// buffer only spills — flushing its oldest line — when a new line
// arrives at capacity. The block boundary is the release fence: every
// buffered line drains, and the family's commit publishes the scope.
// Between LP (no flushes at all) and EP (a flushed redo record per
// store), SBRP pays eager-flush cost only for working sets wider than
// the buffer.
type sbrpModel struct {
	*flagModel
	lines int
}

// defaultSBRPBuffer is the persist-buffer capacity in cache lines — the
// small bounded hardware structure the model posits per scope.
const defaultSBRPBuffer = 8

func newSBRP(dev *gpusim.Device, w Workload, opt Options) Model {
	lines := opt.SBRPBuffer
	if lines <= 0 {
		lines = defaultSBRPBuffer
	}
	m := &sbrpModel{flagModel: newFlagModel(dev, w, "sbrp"), lines: lines}
	m.kernel = m.wrap()
	return m
}

// bufLine is one persist-buffer slot: a line-aligned offset into a
// protected region.
type bufLine struct {
	reg memsim.Region
	off int
}

// wrap returns the instrumented kernel under the per-scope persist
// buffer. All buffer state is per-block-invocation (closure locals
// inside the block function), so no block ever sees another block's
// buffer.
func (m *sbrpModel) wrap() gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		// FIFO of buffered lines plus a residency index; head advances
		// on eviction so the slice is append-only per invocation.
		var fifo []bufLine
		head := 0
		resident := make(map[uint64]bool, m.lines)
		m.run(b, func(t *gpusim.Thread, reg memsim.Region, elemIdx int, bits uint32) {
			if !m.protects(reg) {
				return
			}
			off := (elemIdx * 4) / m.lineSize * m.lineSize
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
