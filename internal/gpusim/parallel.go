package gpusim

import (
	"sync"
	"sync/atomic"

	"gpulp/internal/memsim"
)

// runAheadPerWorker bounds how many uncommitted speculative traces may be
// in flight per worker. The bound keeps trace memory proportional to the
// pool size rather than the grid size while still hiding worker latency
// behind the commit loop.
const runAheadPerWorker = 4

// runSpecBlock executes one block speculatively on a worker goroutine. It
// never touches the live memory hierarchy; any panic (possible when stale
// snapshot state produces garbage control flow) is absorbed into
// needReexec — a genuine fault will re-panic during the direct
// re-execution at commit.
func (d *Device) runSpecBlock(grid, block Dim3, kernel KernelFunc, lin int, snap *memsim.Snapshot) (b *Block) {
	b = &Block{
		dev:       d,
		Idx:       grid.Unlinear(lin),
		BlockDim:  block,
		GridDim:   grid,
		LinearIdx: lin,
		spec:      &specState{snap: snap, overlay: map[uint64]uint32{}},
	}
	defer func() {
		if r := recover(); r != nil {
			b.spec.needReexec = true
		}
	}()
	kernel(b)
	return b
}

// reexecBlock runs one block directly (non-speculatively) at its committed
// dispatch position — the exact code path the serial engine uses. A
// watchdog abort is returned, not propagated: the commit loop converts it
// exactly as the serial engine would.
func (d *Device) reexecBlock(grid, block Dim3, kernel KernelFunc, lin int, start int64) (*Block, *WatchdogError) {
	b := &Block{
		dev:       d,
		Idx:       grid.Unlinear(lin),
		BlockDim:  block,
		GridDim:   grid,
		LinearIdx: lin,
		startTime: start,
	}
	wd := runBlockGuarded(kernel, b)
	return b, wd
}

// runBlocksParallel is the functional pass on a host worker pool: workers
// claim blocks in dispatch order and execute them speculatively against a
// frozen snapshot; the committer (this goroutine) consumes the results in
// dispatch order, validating and replaying each trace — or re-executing
// the block directly — so every observable output is bit-identical to
// runBlocksSerial. Crash triggers are evaluated at the same points as the
// serial loop, against the same greedy schedule.
func (d *Device) runBlocksParallel(grid, block Dim3, kernel KernelFunc, order []int, slots []int64, res *LaunchResult) {
	workers := d.cfg.Workers
	if workers > len(order) {
		workers = len(order)
	}
	snap := d.mem.BeginSnapshot()

	results := make([]chan *Block, len(order))
	for i := range results {
		// Buffered so a worker's send never blocks: the committer may stop
		// consuming early when a crash trigger fires.
		results[i] = make(chan *Block, 1)
	}
	inflight := workers * runAheadPerWorker
	if inflight > len(order) {
		inflight = len(order)
	}
	tickets := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		tickets <- struct{}{}
	}
	done := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-tickets:
				case <-done:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				results[i] <- d.runSpecBlock(grid, block, kernel, order[i], snap)
			}
		}()
	}

	// finish stops the pool and deactivates the snapshot. It must run
	// before a crash trigger fires: Fire mutates the hierarchy, and no
	// worker may be reading the snapshot while it does.
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		close(done)
		wg.Wait()
		d.mem.EndSnapshot()
	}
	defer finish()

	scratch := map[uint64]uint32{}
	for orderIdx, lin := range order {
		// Earliest-free slot and dispatch skew: identical arithmetic to the
		// serial pass.
		slot := 0
		for i := 1; i < len(slots); i++ {
			if slots[i] < slots[slot] {
				slot = i
			}
		}
		start := slots[slot]
		if minStart := int64(orderIdx) * d.cfg.BlockDispatchCycles; start < minStart {
			start = minStart
		}
		if tr := d.crash; tr != nil && tr.AtCycle > 0 && start >= tr.AtCycle {
			finish()
			d.fireCrash()
			res.Interrupted = true
			return
		}

		b := <-results[orderIdx]
		if d.validateSpec(b, scratch) {
			d.replaySpec(b, start)
			for _, fn := range b.onCommit {
				fn()
			}
			b.onCommit = nil
		} else {
			// A speculative watchdog trip was absorbed into needReexec, so
			// a genuinely hung block re-trips here, at its exact dispatch
			// position — bit-identical to the serial abort.
			var wd *WatchdogError
			b, wd = d.reexecBlock(grid, block, kernel, lin, start)
			if wd != nil {
				finish()
				d.mem.Crash()
				res.Interrupted = true
				res.Watchdog = wd
				return
			}
		}

		slots[slot] = start + b.cycles
		d.retire(b, res)

		// Heartbeat and external abort: the identical observation point to
		// the serial engine (after a block commits, before crash triggers).
		if hb := d.heartbeat; hb != nil {
			hb(Heartbeat{Device: d.id, Launch: d.launchName, Blocks: len(d.recs), Cycle: slots[slot]})
		}
		if d.abortPending {
			d.abortPending = false
			finish()
			d.mem.Crash()
			res.Interrupted = true
			res.Aborted = true
			return
		}
		if tr := d.crash; tr != nil && tr.AfterBlocks > 0 && len(d.recs) >= tr.AfterBlocks {
			finish()
			d.fireCrash()
			res.Interrupted = true
			return
		}
		tickets <- struct{}{}
	}
	finish()
}
