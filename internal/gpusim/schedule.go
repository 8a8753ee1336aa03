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
	base int64 // cycles excluding queueing delays
	// events is the block's slice of the launch's event arena (see
	// Device.retire); first is its offset there, which also indexes the
	// block's events in schedule's flat per-event arrays.
	events []opEvent
	first  int
	stall  int64 // total queueing delay (computed)
	start  int64 // scheduled start (computed)
}

// flatEvent is one event in schedule's global time-ordered sweep.
type flatEvent struct {
	time  int64
	blk   int
	idx   int
	order int
}

// schedScratch is schedule's working storage. It lives on the Device and
// only grows, so a schedule pass allocates nothing once it has seen a
// launch as large as the current one.
type schedScratch struct {
	// eff is the damped delay of every event of the launch, indexed by
	// blockRec.first plus the event's index in its block; cumBefore holds
	// the per-block prefix sums (shifting later events within the same
	// block).
	eff, cumBefore []int64
	free           []int64 // per slot: when it frees up
	events         []flatEvent
	sectorFree     map[uint64]int64
	lockFree       map[*Lock]int64
}

// schedResult is the outcome of one schedule pass. iters is the number
// of fixed-point iterations it ran (0 for a launch without events) and
// residual the total delay change of the last one (0 when it converged).
type schedResult struct {
	cycles, atomicStall, lockStall int64
	iters                          int
	residual                       int64
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
func (d *Device) schedule(blocks []blockRec, slots int) (sr schedResult) {
	cfg := d.cfg
	sc := &d.sched
	nEvents := 0
	for i := range blocks {
		nEvents += len(blocks[i].events)
	}
	sc.eff = resize(sc.eff, nEvents)
	sc.cumBefore = resize(sc.cumBefore, nEvents)
	clear(sc.eff)
	clear(sc.cumBefore)
	eff, cumBefore := sc.eff, sc.cumBefore

	sc.free = resize(sc.free, slots)
	free := sc.free
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

	if sc.sectorFree == nil {
		sc.sectorFree = map[uint64]int64{}
		sc.lockFree = map[*Lock]int64{}
	}
	sectorFree, lockFree := sc.sectorFree, sc.lockFree

	const maxIters = 12
	for nEvents > 0 && sr.iters < maxIters {
		sr.iters++
		reschedule()

		// Sweep all events in simulated-time order.
		events := sc.events[:0]
		for i := range blocks {
			first := blocks[i].first
			for j := range blocks[i].events {
				events = append(events, flatEvent{
					time: blocks[i].start + blocks[i].events[j].offset + cumBefore[first+j],
					blk:  i, idx: j, order: len(events),
				})
			}
		}
		sc.events = events
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
			k := blocks[fe.blk].first + fe.idx
			next := (eff[k] + delay + 1) / 2
			if diff := next - eff[k]; diff > 0 {
				changed += diff
			} else {
				changed -= diff
			}
			eff[k] = next
		}

		for i := range blocks {
			first := blocks[i].first
			var cum int64
			for j := range blocks[i].events {
				cumBefore[first+j] = cum
				cum += eff[first+j]
			}
			blocks[i].stall = cum
		}
		sr.residual = changed
		if changed == 0 {
			break
		}
	}

	// Recompute starts once more with the final stalls so block end times
	// are consistent with the durations the sweep settled on.
	reschedule()

	for i := range blocks {
		end := blocks[i].start + blocks[i].base + blocks[i].stall
		if end > sr.cycles {
			sr.cycles = end
		}
		for j, ev := range blocks[i].events {
			if ev.lock != nil {
				sr.lockStall += eff[blocks[i].first+j]
			} else {
				sr.atomicStall += eff[blocks[i].first+j]
			}
		}
	}
	return sr
}
