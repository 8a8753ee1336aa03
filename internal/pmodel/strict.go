package pmodel

import (
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// newStrict binds strict persistency: every protected store is flushed
// and fenced in program order, so the durable image trails execution by
// at most one store. It is the slow, simple end of the spectrum — no
// metadata beyond a release flag, no buffering, and a full NVM-write
// stall on every store — the baseline the other three models are
// measured against. It is the bare flag-commit family.
func newStrict(dev *gpusim.Device, w Workload, opt Options) Model {
	f := newFlagModel(dev, w, "strict")
	// The hook keeps no per-block state, so every block shares one.
	hook := func(t *gpusim.Thread, reg memsim.Region, elemIdx int, bits uint32) {
		if f.protects(reg) {
			// Program-order durability: the store's line goes to NVM and
			// the thread waits for it before continuing.
			t.FlushLine(reg, elemIdx*4)
			t.PersistBarrier()
		}
	}
	f.kernel = func(b *gpusim.Block) {
		f.run(b, hook)
		f.release(b)
	}
	return f
}
