package gpusim

import (
	"cmp"
	"slices"
)

// opEvent is a serialization-sensitive operation recorded during the
// functional pass: an atomic (which occupies its memory sector and the
// device-wide atomic channel) or a lock acquisition (which occupies the
// lock for its measured hold time).
type opEvent struct {
	// offset is the issue time relative to the block's start, before any
	// queueing delays.
	offset int64
	// addr is the memory sector for atomics (lock == nil).
	addr uint64
	// lock is non-nil for lock acquisitions; hold is the critical
	// section length including handoff.
	lock *Lock
	hold int64
}

// blockRec captures one executed block for timing reconstruction.
type blockRec struct {
	base   int64 // cycles excluding queueing delays
	events []opEvent
	stall  int64 // total queueing delay (computed)
	start  int64 // scheduled start (computed)
}

// schedule computes the launch timing as a damped fixed point: block
// start times follow from the greedy earliest-free-slot scheduler given
// block durations; durations include queueing delays; and delays follow
// from a global time-ordered sweep of all serialization events given
// start times.
//
// This two-pass structure exists because blocks execute functionally in
// dispatch order, not simulated-time order: computing delays inline
// would let a slow early-dispatched block spuriously delay operations
// that physically precede it. The damping exists because the raw
// fixed-point map oscillates — a stretched schedule relaxes contention,
// which compresses the schedule, which restores contention; averaging
// converges to the self-limiting steady state a true event-driven
// simulation reaches.
func (d *Device) schedule(blocks []blockRec, slots int) (cycles, atomicStall, lockStall int64) {
	cfg := d.cfg
	type flatEvent struct {
		time  int64
		blk   int
		idx   int
		order int
	}
	// eff is the damped per-event delay; cumBefore its prefix sums
	// (shifting later events within the same block).
	eff := make([][]int64, len(blocks))
	cumBefore := make([][]int64, len(blocks))
	nEvents := 0
	for i := range blocks {
		eff[i] = make([]int64, len(blocks[i].events))
		cumBefore[i] = make([]int64, len(blocks[i].events))
		nEvents += len(blocks[i].events)
	}

	free := make([]int64, slots)
	reschedule := func() {
		clear(free)
		for i := range blocks {
			slot := 0
			for s := 1; s < len(free); s++ {
				if free[s] < free[slot] {
					slot = s
				}
			}
			start := free[slot]
			if minStart := int64(i) * cfg.BlockDispatchCycles; start < minStart {
				start = minStart
			}
			blocks[i].start = start
			free[slot] = start + blocks[i].base + blocks[i].stall
		}
	}

	events := make([]flatEvent, 0, nEvents)
	sectorFree := map[uint64]int64{}
	lockFree := map[*Lock]int64{}

	const maxIters = 12
	for iter := 0; iter < maxIters && nEvents > 0; iter++ {
		reschedule()

		// Sweep all events in simulated-time order.
		events = events[:0]
		for i := range blocks {
			for j := range blocks[i].events {
				events = append(events, flatEvent{
					time: blocks[i].start + blocks[i].events[j].offset + cumBefore[i][j],
					blk:  i, idx: j, order: len(events),
				})
			}
		}
		// order is unique, so this is a total order: any sort algorithm
		// yields the same sequence.
		slices.SortFunc(events, func(a, b flatEvent) int {
			if c := cmp.Compare(a.time, b.time); c != 0 {
				return c
			}
			return cmp.Compare(a.order, b.order)
		})

		clear(sectorFree)
		clear(lockFree)
		var chanFree int64
		for _, l := range d.locks {
			l.contended = 0
		}
		changed := int64(0)
		for _, fe := range events {
			ev := &blocks[fe.blk].events[fe.idx]
			var delay int64
			if ev.lock != nil {
				start := fe.time
				if f := lockFree[ev.lock]; f > start {
					start = f
					ev.lock.contended++
				}
				delay = start - fe.time
				lockFree[ev.lock] = start + ev.hold
			} else {
				start := fe.time
				if f := sectorFree[ev.addr]; f > start {
					start = f
				}
				if chanFree > start {
					start = chanFree
				}
				delay = start - fe.time
				sectorFree[ev.addr] = start + cfg.AtomicServiceCycles
				if cfg.AtomicChannelCycles > 0 {
					chanFree = start + cfg.AtomicChannelCycles
				}
			}
			// Damped update toward the sweep's delay.
			next := (eff[fe.blk][fe.idx] + delay + 1) / 2
			if diff := next - eff[fe.blk][fe.idx]; diff > 0 {
				changed += diff
			} else {
				changed -= diff
			}
			eff[fe.blk][fe.idx] = next
		}

		for i := range blocks {
			var cum int64
			for j := range blocks[i].events {
				cumBefore[i][j] = cum
				cum += eff[i][j]
			}
			blocks[i].stall = cum
		}
		if changed == 0 {
			break
		}
	}

	// Recompute starts once more with the final stalls so block end times
	// are consistent with the durations the sweep settled on.
	reschedule()

	for i := range blocks {
		end := blocks[i].start + blocks[i].base + blocks[i].stall
		if end > cycles {
			cycles = end
		}
		for j, ev := range blocks[i].events {
			if ev.lock != nil {
				lockStall += eff[i][j]
			} else {
				atomicStall += eff[i][j]
			}
		}
	}
	return cycles, atomicStall, lockStall
}
