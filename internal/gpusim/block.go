package gpusim

import "fmt"

// Block is the per-thread-block execution context handed to a KernelFunc.
// Code between barriers is expressed as phases: ForAll (per-thread bodies)
// and WarpPhase (per-warp bodies with vector register access). Each phase
// ends with an implicit __syncthreads.
type Block struct {
	dev *Device
	// Idx is the block index within the grid; LinearIdx its linearization.
	Idx       Dim3
	LinearIdx int
	// BlockDim and GridDim are the launch dimensions.
	BlockDim Dim3
	GridDim  Dim3

	startTime int64 // pass-1 (zero-queueing) start time of the block
	cycles    int64 // cycles accumulated so far within the block

	// shared holds the block's shared-memory arrays by name. gen is the
	// block generation: the device reuses one Block and bumps gen
	// for every block it dispatches, and an array is zeroed on its first
	// use in a new generation (see sharedArray).
	shared map[string]*sharedEntry
	gen    uint64
	events []opEvent // serialization events for the post-launch sweep

	totWarpInstrs  int64
	totL2Bytes     int64
	totNVMBytes    int64
	totAtomicStall int64

	// storeHook, when set, observes this block's data stores; it shadows
	// the device-level hook (see SetStoreHook).
	storeHook StoreHook

	thread Thread // reused across iterations to avoid allocation
}

// Device returns the device executing this block.
func (b *Block) Device() *Device { return b.dev }

// NumWarps returns the number of warps in the block.
func (b *Block) NumWarps() int {
	ws := b.dev.cfg.WarpSize
	return (b.BlockDim.Size() + ws - 1) / ws
}

// Cycles returns the cycles the block has accumulated so far.
func (b *Block) Cycles() int64 { return b.cycles }

// SetStoreHook installs a per-block store hook, returning the previous
// one. The block hook shadows the device-level hook for this block's
// stores, and it lasts at most as long as the block: kernel wrappers
// (core.Instrument, ep.Wrap, the sbrp and strict models) use it rather
// than Device.SetStoreHook so that their hook can never observe another
// block's stores. They restore the previous hook without defer; if a
// watchdog abort unwinds the kernel first, the device's reset of the
// block for its next dispatch clears the hook all the same.
func (b *Block) SetStoreHook(h StoreHook) StoreHook {
	prev := b.storeHook
	b.storeHook = h
	return prev
}

// sharedEntry is one named shared-memory array of a block: a []float32,
// []uint64 or []int32, and the block generation that last zeroed it.
type sharedEntry struct {
	gen uint64
	arr any
}

// reset readies the device's reused block for its next dispatch.
// Every field starts from its zero value, as in a fresh Block, except
// the storage that outlives one block: the shared arrays, which the new
// generation re-zeroes on first use, and the events buffer.
func (b *Block) reset(d *Device, grid, block Dim3, lin int, start int64) {
	*b = Block{
		dev:       d,
		Idx:       grid.Unlinear(lin),
		BlockDim:  block,
		GridDim:   grid,
		LinearIdx: lin,
		startTime: start,
		shared:    b.shared,
		gen:       b.gen + 1,
		events:    b.events[:0],
	}
}

// sharedArray returns the block's shared array name of n elements of
// type T. The array lives as long as the Block: the first use in a block
// zeroes it (or allocates it, when the name is new or its size or type
// changed since the last block), and later uses in the same block return
// it as is. Asking for the same name with a different size or type within
// one block panics.
func sharedArray[T float32 | uint64 | int32](b *Block, name string, n int) []T {
	e := b.shared[name]
	if e != nil && e.gen == b.gen {
		s := e.arr.([]T)
		if len(s) != n {
			panic(fmt.Sprintf("gpusim: shared %q reallocated with different size %d != %d", name, n, len(s)))
		}
		return s
	}
	if e == nil {
		if b.shared == nil {
			b.shared = map[string]*sharedEntry{}
		}
		e = &sharedEntry{}
		b.shared[name] = e
	}
	e.gen = b.gen
	if s, ok := e.arr.([]T); ok && len(s) == n {
		clear(s)
		return s
	}
	s := make([]T, n)
	e.arr = s
	return s
}

// SharedF32 returns a named per-block shared memory array of n float32,
// zeroed at the block's first request. Shared memory never touches the
// global hierarchy; charge accesses with Thread.Op as kernel code would
// pay shared-memory instructions.
func (b *Block) SharedF32(name string, n int) []float32 { return sharedArray[float32](b, name, n) }

// SharedU64 returns a named per-block shared memory array of n uint64.
func (b *Block) SharedU64(name string, n int) []uint64 { return sharedArray[uint64](b, name, n) }

// SharedI32 returns a named per-block shared memory array of n int32.
func (b *Block) SharedI32(name string, n int) []int32 { return sharedArray[int32](b, name, n) }

// Barrier charges one explicit __syncthreads (phases already include an
// implicit trailing barrier; use this for extra synchronization points a
// fused phase models, e.g. between warp-partial staging and the final
// reduce).
func (b *Block) Barrier() {
	b.cycles += b.barrierCost()
}

// barrierCost scales the __syncthreads charge with the number of warps
// that must rendezvous: a one-warp block synchronizes almost for free.
func (b *Block) barrierCost() int64 {
	return min(int64(4*b.NumWarps()), b.dev.cfg.BarrierCycles)
}

// ForAll executes fn once per thread of the block and then charges the
// phase: compute cycles (divergence-aware: a warp costs its max lane),
// memory cycles (roofline against per-SM L2 and NVM bandwidth shares), and
// any serialization stalls the threads incurred, plus a barrier.
//
// Threads run in linear order, so a thread's index, warp and lane come
// from counters stepped once per thread, and warps end one after another:
// each warp's max lane is added as the warp's last lane retires.
func (b *Block) ForAll(fn func(t *Thread)) {
	ws := b.dev.cfg.WarpSize
	dim := b.BlockDim
	nt := dim.Size()
	var idx Dim3
	var warp, lane int
	var warpInstrs, warpMax, l2, nvm, aStall int64

	t := &b.thread
	t.b = b
	for lin := 0; lin < nt; lin++ {
		t.Idx, t.Linear, t.WarpID, t.Lane = idx, lin, warp, lane
		t.threadState = threadState{}
		fn(t)
		if t.lockHeld != nil {
			panic("gpusim: thread exited phase while holding lock " + t.lockHeld.name)
		}
		warpMax = max(warpMax, t.instrs)
		l2 += t.l2Bytes
		nvm += t.nvmBytes
		aStall += t.atomicStall

		if lane++; lane == ws {
			warpInstrs += warpMax
			warp, lane, warpMax = warp+1, 0, 0
		}
		if idx.X++; idx.X == dim.X {
			idx.X = 0
			if idx.Y++; idx.Y == dim.Y {
				idx.Y = 0
				idx.Z++
			}
		}
	}
	warpInstrs += warpMax // a partial last warp; 0 after a full one

	b.totAtomicStall += aStall
	b.endPhase(warpInstrs, l2, nvm, aStall)
}

// WarpPhase executes fn once per warp, giving vector access to lanes
// (used for shuffle reductions). The phase is charged like ForAll, with
// each warp's instruction count taken as issued.
func (b *Block) WarpPhase(fn func(w *Warp)) {
	ws := b.dev.cfg.WarpSize
	nt := b.BlockDim.Size()
	nw := b.NumWarps()
	var warpInstrs, l2, nvm, stall int64

	for wid := 0; wid < nw; wid++ {
		lanes := ws
		if rem := nt - wid*ws; rem < lanes {
			lanes = rem
		}
		w := Warp{b: b, ID: wid, Lanes: lanes}
		fn(&w)
		warpInstrs += w.instrs
		l2 += w.l2Bytes
		nvm += w.nvmBytes
		stall += w.stall
	}
	b.totAtomicStall += stall
	b.endPhase(warpInstrs, l2, nvm, stall)
}

// endPhase charges one phase with the roofline model: the phase costs
// the larger of its compute and its memory time, where memory time is the
// larger of its L2 and NVM bytes over the SM's share of each bandwidth.
func (b *Block) endPhase(warpInstrs, l2, nvm, stall int64) {
	cfg := &b.dev.cfg
	compute := int64(float64(warpInstrs) / cfg.IssueWidth)
	l2Cyc := int64(float64(l2) / (cfg.L2BytesPerCycle / float64(cfg.NumSMs)))
	nvmCyc := int64(float64(nvm) / (cfg.NVMBytesPerCycle / float64(cfg.NumSMs)))
	b.cycles += max(compute, l2Cyc, nvmCyc) + stall + b.barrierCost()

	b.totWarpInstrs += warpInstrs
	b.totL2Bytes += l2
	b.totNVMBytes += nvm
}
