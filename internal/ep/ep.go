// Package ep implements an Eager Persistency (EP) baseline — the
// conventional crash-consistency approach the paper contrasts Lazy
// Persistency against (§I, §II): a redo log plus cache-line write-backs
// (clwb) and persist barriers (s_fence).
//
// Every persistent store appends an (address, value) record to a
// per-block redo log whose lines are flushed to NVM as they fill; at
// block end a persist barrier drains the flushes, a per-block commit
// flag is written and flushed, and a second barrier orders it. After a
// crash, committed blocks are recovered by replaying their logs;
// uncommitted blocks re-execute.
//
// This is exactly the machinery LP exists to avoid: the log roughly
// quadruples the bytes written per store, the flushes steal NVM write
// bandwidth during normal execution, and the two barriers per thread
// block expose full NVM write latencies that the paper reports as
// 20-40% slowdowns on CPUs — and worse at GPU block counts.
package ep

import (
	"fmt"

	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// EP is an eager-persistency runtime bound to one kernel geometry.
type EP struct {
	dev        *gpusim.Device
	grid, blk  gpusim.Dim3
	perBlock   int // log entries per block
	log        memsim.Region
	flags      memsim.Region
	mem        *memsim.Memory
	lineSize   int
	entryBytes int
}

// entryWords is the redo-log record size: [address, value] as uint64s.
const entryWords = 2

// New creates an EP runtime for kernels launched with the given geometry,
// with capacity for entriesPerBlock logged stores per thread block.
func New(dev *gpusim.Device, grid, blk gpusim.Dim3, entriesPerBlock int) *EP {
	if grid.Size() <= 0 || blk.Size() <= 0 {
		panic(fmt.Sprintf("ep: empty geometry grid=%v block=%v", grid, blk))
	}
	if entriesPerBlock <= 0 {
		panic("ep: entriesPerBlock must be positive")
	}
	e := &EP{
		dev:        dev,
		grid:       grid,
		blk:        blk,
		perBlock:   entriesPerBlock,
		mem:        dev.Mem(),
		lineSize:   dev.Mem().Config().LineSize,
		entryBytes: entryWords * 8,
	}
	e.log = dev.Alloc("ep.log", grid.Size()*entriesPerBlock*e.entryBytes)
	e.flags = dev.Alloc("ep.flags", grid.Size()*8)
	e.log.HostZero()
	e.flags.HostZero()
	return e
}

// LogBytes returns the redo log footprint (EP's space overhead).
func (e *EP) LogBytes() int64 {
	return int64(e.grid.Size()) * int64(e.perBlock) * int64(e.entryBytes)
}

// MetadataRegions lists EP's durable metadata: the redo log and the
// per-block commit flags (fault-injection and oracle targets).
func (e *EP) MetadataRegions() []memsim.Region {
	return []memsim.Region{e.log, e.flags}
}

// Wrap instruments a plain kernel with eager persistency over the
// protected regions: redo-logging with line flushes during execution and
// a flushed, fenced commit flag per block.
func (e *EP) Wrap(kernel gpusim.KernelFunc, protected ...memsim.Region) gpusim.KernelFunc {
	if kernel == nil {
		panic("ep: nil kernel")
	}
	if len(protected) == 0 {
		panic("ep: Wrap needs at least one protected region")
	}
	return func(b *gpusim.Block) {
		if b.GridDim != e.grid || b.BlockDim != e.blk {
			panic("ep: block geometry does not match the EP runtime's geometry")
		}
		segBase := b.LinearIdx * e.perBlock
		n := 0
		// Per-block hook: each block logs into its own segment with its
		// own counter, and the hook never outlives the block.
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
			if n >= e.perBlock {
				panic(fmt.Sprintf("ep: block %d overflowed its %d-entry log", b.LinearIdx, e.perBlock))
			}
			entry := segBase + n
			t.StoreU64K(memsim.AccessLog, e.log, entry*entryWords, reg.Base+uint64(elemIdx)*4)
			t.StoreU64K(memsim.AccessLog, e.log, entry*entryWords+1, uint64(bits))
			// Flush the previous log line once this entry starts a new one.
			if byteOff := entry * e.entryBytes; n > 0 && byteOff%e.lineSize == 0 {
				t.FlushLine(e.log, byteOff-e.entryBytes)
			}
			n++
		})
		kernel(b)
		b.SetStoreHook(prev)

		b.ForAll(func(t *gpusim.Thread) {
			if t.Linear != 0 {
				return
			}
			if n > 0 {
				t.FlushLine(e.log, (segBase+n-1)*e.entryBytes) // tail log line
			}
			t.PersistBarrier() // log fully durable before the commit flag
			t.StoreU64K(memsim.AccessLog, e.flags, b.LinearIdx, uint64(n)+1)
			t.FlushLine(e.flags, b.LinearIdx*8)
			t.PersistBarrier() // commit flag durable before the block retires
		})
	}
}

// RecoveryReport summarizes an EP crash recovery.
type RecoveryReport struct {
	// Committed is the number of blocks whose commit flag persisted;
	// Replayed the redo records applied for them.
	Committed int
	Replayed  int
	// Uncommitted lists blocks that must re-execute.
	Uncommitted []int
}

// ImageCommitted reads the per-block commit flags from a raw durable
// image (memsim.NVMImage or an oracle shadow of it): element blk is true
// iff block blk's commit flag persisted. This is the device-free spec of
// Recover's committed/uncommitted split — the crash-consistency checker
// predicts the recovery report from its oracle image with it.
func (e *EP) ImageCommitted(img []byte) []bool {
	out := make([]bool, e.grid.Size())
	for blk := range out {
		out[blk] = memsim.ImageU64(img, e.flags.Base+uint64(blk)*8) != 0
	}
	return out
}

// Recover replays the redo logs of committed blocks into durable memory
// and returns the blocks whose commit never persisted (the caller
// re-executes them, then flushes). Call after a crash.
func (e *EP) Recover() RecoveryReport {
	var rep RecoveryReport
	for blk := 0; blk < e.grid.Size(); blk++ {
		if e.flags.NVMU64(blk) == 0 {
			rep.Uncommitted = append(rep.Uncommitted, blk)
			continue
		}
		rep.Committed++
		rep.Replayed += e.replayBlock(blk)
	}
	return rep
}

// ReplayBlocks replays the redo logs of the listed blocks (skipping
// uncommitted ones) into durable memory and returns the record count —
// the shard-scoped form of Recover. Cluster failover uses it after
// importing a harvested log onto a survivor: EP's data lines are never
// written back eagerly, so a committed block's data exists only in the
// log until replayed.
func (e *EP) ReplayBlocks(blocks []int) int {
	replayed := 0
	for _, blk := range blocks {
		if blk < 0 || blk >= e.grid.Size() || e.flags.NVMU64(blk) == 0 {
			continue
		}
		replayed += e.replayBlock(blk)
	}
	return replayed
}

// replayBlock replays one committed block's log segment, returning the
// number of records applied.
func (e *EP) replayBlock(blk int) int {
	n := int(e.flags.NVMU64(blk) - 1)
	if n > e.perBlock {
		n = e.perBlock // torn flag: bound the replay
	}
	segBase := blk * e.perBlock
	var buf [4]byte
	replayed := 0
	for i := 0; i < n; i++ {
		addr := e.log.NVMU64((segBase + i) * entryWords)
		val := e.log.NVMU64((segBase+i)*entryWords + 1)
		if addr == 0 {
			break // torn log tail
		}
		buf[0] = byte(val)
		buf[1] = byte(val >> 8)
		buf[2] = byte(val >> 16)
		buf[3] = byte(val >> 24)
		e.mem.HostWrite(addr, buf[:])
		replayed++
	}
	return replayed
}
