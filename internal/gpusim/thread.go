package gpusim

import (
	"fmt"
	"math"

	"gpulp/internal/memsim"
)

// Thread is the per-thread view inside a Block.ForAll phase. All methods
// charge the timing model as a side effect of their functional behaviour.
type Thread struct {
	b *Block
	// Idx is the thread index within the block; Linear its linearization;
	// WarpID/Lane locate it within its warp.
	Idx    Dim3
	Linear int
	WarpID int
	Lane   int

	threadState
}

// threadState is what a thread accumulates while it runs. ForAll zeroes
// it with one assignment before each thread, so per-thread state belongs
// here: a field added to Thread itself would carry over between threads.
type threadState struct {
	instrs      int64
	l2Bytes     int64
	nvmBytes    int64
	atomicStall int64 // exposed latency charged via Stall

	lockHeld       *Lock
	lockEventIdx   int
	lockStartInstr int64
}

// Block returns the enclosing block context.
func (t *Thread) Block() *Block { return t.b }

// GlobalLinear returns the grid-wide linear thread id.
func (t *Thread) GlobalLinear() int {
	return t.b.LinearIdx*t.b.BlockDim.Size() + t.Linear
}

// Op charges n ALU (or shared-memory) instructions.
func (t *Thread) Op(n int) {
	t.instrs += int64(n)
	t.wdCheck()
}

// wdCheck trips the kernel watchdog when this thread's charged
// instruction count exceeds Config.WatchdogSteps (0 disables). Every
// functional charge path calls it, so a spin loop — whose every
// iteration charges at least one instruction — cannot livelock the
// simulator: the abort unwinds as a watchdogAbort panic that the
// engines convert into a typed LaunchResult.Watchdog. The count is part
// of the deterministic functional pass, so the abort point is
// bit-identical across Workers settings (a speculative trip is absorbed
// into re-execution, where it re-trips at the same charged step).
func (t *Thread) wdCheck() {
	budget := t.b.dev.cfg.WatchdogSteps
	if budget > 0 && t.instrs > budget {
		panic(watchdogAbort{&WatchdogError{
			Kernel: t.b.dev.launchName,
			Block:  t.b.LinearIdx,
			Thread: t.Linear,
			Steps:  t.instrs,
		}})
	}
}

// Stall charges n cycles of exposed (non-hidable) latency — e.g. a chain
// of dependent memory round trips whose results gate the thread's next
// action, which the warp scheduler cannot cover with other work.
func (t *Thread) Stall(n int64) { t.atomicStall += n }

// now returns the thread's current simulated absolute time, approximating
// intra-phase progress by its instruction count. It uses the pass-1
// (zero-queueing) schedule, which is all that is available while the
// functional pass runs.
func (t *Thread) now() int64 {
	return t.b.startTime + t.b.cycles + t.instrs + t.atomicStall
}

const sectorBytes = 32 // L2 transaction granularity

// checksumBitsF32 is the Fig. 2 float-to-integer conversion used when a
// hooked float store is folded into a checksum.
func checksumBitsF32(v float32) uint32 {
	return math.Float32bits(v)
}

func (t *Thread) chargeAccess(res memsim.AccessResult) {
	t.instrs++
	t.l2Bytes += sectorBytes
	t.nvmBytes += int64(res.Bytes(t.b.dev.mem.LineSize()))
	t.wdCheck()
}

// storeHook returns the hook observing this thread's data stores: the
// per-block hook when one is installed, else the device-level hook.
func (t *Thread) storeHook() StoreHook {
	if h := t.b.storeHook; h != nil {
		return h
	}
	return t.b.dev.storeHook
}

// --- Speculative access path (Config.Workers > 1; see spec.go) ---

// specLoad performs a load against the block's speculative view (snapshot
// plus private overlay), traces it, and charges the cache-independent
// costs. NVM traffic is charged later, at replay, from real access
// results.
func (t *Thread) specLoad(kind memsim.AccessKind, r memsim.Region, idx, size int) uint64 {
	s := t.b.spec
	addr := specAddr(r, idx, size)
	var v uint64
	if size == 4 {
		v = uint64(s.read32(addr))
	} else {
		v = s.read64(addr)
	}
	s.curOps = append(s.curOps, specOp{op: opLoad, size: uint8(size), charged: true, kind: kind, addr: addr, val: v})
	t.instrs++
	t.l2Bytes += sectorBytes
	t.wdCheck()
	return v
}

// specStore applies a store to the block's private overlay and traces it.
// charged is false for the functional store half of an atomic, which the
// serial engine performs but never charges.
func (t *Thread) specStore(kind memsim.AccessKind, r memsim.Region, idx, size int, v uint64, charged bool) {
	s := t.b.spec
	addr := specAddr(r, idx, size)
	s.write(addr, size, v)
	s.curOps = append(s.curOps, specOp{op: opStore, size: uint8(size), charged: charged, kind: kind, addr: addr, val: v})
	if charged {
		t.instrs++
		t.l2Bytes += sectorBytes
		t.wdCheck()
	}
}

// --- Global memory: data accesses ---

// LoadF32 loads element idx of r as kernel data.
func (t *Thread) LoadF32(r memsim.Region, idx int) float32 {
	if t.b.spec != nil {
		return math.Float32frombits(uint32(t.specLoad(memsim.AccessData, r, idx, 4)))
	}
	v, res := r.LoadF32(memsim.AccessData, idx)
	t.chargeAccess(res)
	return v
}

// StoreF32 stores v to element idx of r as kernel data.
func (t *Thread) StoreF32(r memsim.Region, idx int, v float32) {
	if t.b.spec != nil {
		t.specStore(memsim.AccessData, r, idx, 4, uint64(math.Float32bits(v)), true)
	} else {
		res := r.StoreF32(memsim.AccessData, idx, v)
		t.chargeAccess(res)
	}
	if h := t.storeHook(); h != nil {
		h(t, r, idx, checksumBitsF32(v))
	}
}

// LoadI32 loads element idx of r as kernel data.
func (t *Thread) LoadI32(r memsim.Region, idx int) int32 {
	if t.b.spec != nil {
		return int32(uint32(t.specLoad(memsim.AccessData, r, idx, 4)))
	}
	v, res := r.LoadI32(memsim.AccessData, idx)
	t.chargeAccess(res)
	return v
}

// StoreI32 stores v to element idx of r as kernel data.
func (t *Thread) StoreI32(r memsim.Region, idx int, v int32) {
	if t.b.spec != nil {
		t.specStore(memsim.AccessData, r, idx, 4, uint64(uint32(v)), true)
	} else {
		res := r.StoreI32(memsim.AccessData, idx, v)
		t.chargeAccess(res)
	}
	if h := t.storeHook(); h != nil {
		h(t, r, idx, uint32(v))
	}
}

// LoadU32 loads element idx of r as kernel data.
func (t *Thread) LoadU32(r memsim.Region, idx int) uint32 {
	if t.b.spec != nil {
		return uint32(t.specLoad(memsim.AccessData, r, idx, 4))
	}
	v, res := r.LoadU32(memsim.AccessData, idx)
	t.chargeAccess(res)
	return v
}

// StoreU32 stores v to element idx of r as kernel data.
func (t *Thread) StoreU32(r memsim.Region, idx int, v uint32) {
	if t.b.spec != nil {
		t.specStore(memsim.AccessData, r, idx, 4, uint64(v), true)
	} else {
		res := r.StoreU32(memsim.AccessData, idx, v)
		t.chargeAccess(res)
	}
	if h := t.storeHook(); h != nil {
		h(t, r, idx, v)
	}
}

// LoadU64 loads element idx of r as kernel data.
func (t *Thread) LoadU64(r memsim.Region, idx int) uint64 {
	if t.b.spec != nil {
		return t.specLoad(memsim.AccessData, r, idx, 8)
	}
	v, res := r.LoadU64(memsim.AccessData, idx)
	t.chargeAccess(res)
	return v
}

// StoreU64 stores v to element idx of r as kernel data. A store hook
// observes it as two 32-bit halves (low, then high), so directive-style
// instrumentation covers 64-bit persistent stores too.
func (t *Thread) StoreU64(r memsim.Region, idx int, v uint64) {
	if t.b.spec != nil {
		t.specStore(memsim.AccessData, r, idx, 8, v, true)
	} else {
		res := r.StoreU64(memsim.AccessData, idx, v)
		t.chargeAccess(res)
	}
	if h := t.storeHook(); h != nil {
		h(t, r, idx*2, uint32(v))
		h(t, r, idx*2+1, uint32(v>>32))
	}
}

// --- Global memory: tagged accesses (Lazy Persistency machinery) ---

// LoadU64K / StoreU64K are like LoadU64/StoreU64 but tag the access (used
// by the checksum table code so write amplification can be attributed).
func (t *Thread) LoadU64K(kind memsim.AccessKind, r memsim.Region, idx int) uint64 {
	if t.b.spec != nil {
		return t.specLoad(kind, r, idx, 8)
	}
	v, res := r.LoadU64(kind, idx)
	t.chargeAccess(res)
	return v
}

// StoreU64K stores a tagged uint64.
func (t *Thread) StoreU64K(kind memsim.AccessKind, r memsim.Region, idx int, v uint64) {
	if t.b.spec != nil {
		t.specStore(kind, r, idx, 8, v, true)
		return
	}
	res := r.StoreU64(kind, idx, v)
	t.chargeAccess(res)
}

// --- Persistency instructions (Eager Persistency baseline) ---

// FlushLine issues a cache-line write-back (clwb) for the line holding
// element idx (elemSize bytes each) of r, charging the NVM write traffic
// when the line was dirty. Lazy Persistency never uses this — it exists
// for the Eager Persistency comparison baseline.
func (t *Thread) FlushLine(r memsim.Region, byteOff int) {
	t.instrs++
	if s := t.b.spec; s != nil {
		// Whether the flush writes back depends on cache state at the
		// block's dispatch position; trace it and let replay perform the
		// real FlushAddr (charging the line if it was dirty).
		s.curOps = append(s.curOps, specOp{op: opFlush, addr: r.Base + uint64(byteOff)})
		return
	}
	if t.b.dev.mem.FlushAddr(r.Base + uint64(byteOff)) {
		t.nvmBytes += int64(t.b.dev.mem.LineSize())
	}
}

// PersistBarrier models an s_fence/persist barrier: the thread stalls
// until its outstanding flushes reach the NVM. The charge is one NVM
// write latency of exposed stall (round-trip to the persistence domain).
func (t *Thread) PersistBarrier() {
	t.Stall(int64(t.b.dev.mem.NVMWriteNS() * t.b.dev.cfg.ClockGHz))
}

// --- Atomics ---

// recordAtomic registers a serialization event for an atomic on the
// sector containing byte byteOff of r. The caller performs the
// read-modify-write functionally; queueing delays are computed after the
// launch by the global time-ordered sweep (see schedule.go).
func (t *Thread) recordAtomic(r memsim.Region, byteOff int) {
	addr := (r.Base + uint64(byteOff)) &^ (sectorBytes - 1)
	if s := t.b.spec; s != nil {
		s.curEv = append(s.curEv, specEvent{intra: t.instrs + t.atomicStall, addr: addr})
		return
	}
	t.b.events = append(t.b.events, opEvent{
		offset: t.b.cycles + t.instrs + t.atomicStall,
		addr:   addr,
	})
}

// AtomicCASU64 performs an atomic compare-and-swap on element idx of r,
// returning the old value. Models CUDA atomicCAS on the L2.
func (t *Thread) AtomicCASU64(r memsim.Region, idx int, compare, swap uint64) uint64 {
	t.recordAtomic(r, idx*8)
	if t.b.spec != nil {
		old := t.specLoad(memsim.AccessAtomic, r, idx, 8)
		if old == compare {
			t.specStore(memsim.AccessAtomic, r, idx, 8, swap, false)
		}
		return old
	}
	old, res := r.LoadU64(memsim.AccessAtomic, idx)
	if old == compare {
		r.StoreU64(memsim.AccessAtomic, idx, swap)
	}
	t.chargeAccess(res)
	return old
}

// AtomicExchU64 atomically exchanges element idx of r with v, returning
// the old value. Models CUDA atomicExch.
func (t *Thread) AtomicExchU64(r memsim.Region, idx int, v uint64) uint64 {
	t.recordAtomic(r, idx*8)
	if t.b.spec != nil {
		old := t.specLoad(memsim.AccessAtomic, r, idx, 8)
		t.specStore(memsim.AccessAtomic, r, idx, 8, v, false)
		return old
	}
	old, res := r.LoadU64(memsim.AccessAtomic, idx)
	r.StoreU64(memsim.AccessAtomic, idx, v)
	t.chargeAccess(res)
	return old
}

// AtomicAddI32 atomically adds v to element idx of r, returning the old
// value. Models CUDA atomicAdd on int.
func (t *Thread) AtomicAddI32(r memsim.Region, idx int, v int32) int32 {
	t.recordAtomic(r, idx*4)
	if t.b.spec != nil {
		old := int32(uint32(t.specLoad(memsim.AccessAtomic, r, idx, 4)))
		t.specStore(memsim.AccessAtomic, r, idx, 4, uint64(uint32(old+v)), false)
		return old
	}
	old, res := r.LoadI32(memsim.AccessAtomic, idx)
	r.StoreI32(memsim.AccessAtomic, idx, old+v)
	t.chargeAccess(res)
	return old
}

// AtomicAddF32 atomically adds v to element idx of r, returning the old
// value. Models CUDA atomicAdd on float.
func (t *Thread) AtomicAddF32(r memsim.Region, idx int, v float32) float32 {
	t.recordAtomic(r, idx*4)
	if t.b.spec != nil {
		old := math.Float32frombits(uint32(t.specLoad(memsim.AccessAtomic, r, idx, 4)))
		t.specStore(memsim.AccessAtomic, r, idx, 4, uint64(math.Float32bits(old+v)), false)
		return old
	}
	old, res := r.LoadF32(memsim.AccessAtomic, idx)
	r.StoreF32(memsim.AccessAtomic, idx, old+v)
	t.chargeAccess(res)
	return old
}

// AtomicAddU64 atomically adds v to element idx of r, returning the old
// value.
func (t *Thread) AtomicAddU64(r memsim.Region, idx int, v uint64) uint64 {
	t.recordAtomic(r, idx*8)
	if t.b.spec != nil {
		old := t.specLoad(memsim.AccessAtomic, r, idx, 8)
		t.specStore(memsim.AccessAtomic, r, idx, 8, old+v, false)
		return old
	}
	old, res := r.LoadU64(memsim.AccessAtomic, idx)
	r.StoreU64(memsim.AccessAtomic, idx, old+v)
	t.chargeAccess(res)
	return old
}

// AtomicXorU64 atomically XORs v into element idx of r, returning the
// old value.
func (t *Thread) AtomicXorU64(r memsim.Region, idx int, v uint64) uint64 {
	t.recordAtomic(r, idx*8)
	if t.b.spec != nil {
		old := t.specLoad(memsim.AccessAtomic, r, idx, 8)
		t.specStore(memsim.AccessAtomic, r, idx, 8, old^v, false)
		return old
	}
	old, res := r.LoadU64(memsim.AccessAtomic, idx)
	r.StoreU64(memsim.AccessAtomic, idx, old^v)
	t.chargeAccess(res)
	return old
}

// AtomicMinI32 atomically computes min into element idx of r, returning
// the old value.
func (t *Thread) AtomicMinI32(r memsim.Region, idx int, v int32) int32 {
	t.recordAtomic(r, idx*4)
	if t.b.spec != nil {
		old := int32(uint32(t.specLoad(memsim.AccessAtomic, r, idx, 4)))
		if v < old {
			t.specStore(memsim.AccessAtomic, r, idx, 4, uint64(uint32(v)), false)
		}
		return old
	}
	old, res := r.LoadI32(memsim.AccessAtomic, idx)
	if v < old {
		r.StoreI32(memsim.AccessAtomic, idx, v)
	}
	t.chargeAccess(res)
	return old
}

// SerializeOn records a serialization event on the sector containing
// byte offset byteOff of r without performing an atomic operation. It
// models unsynchronized read-modify-write emulations (§IV-D.3): even
// without atomic instructions, the stores still serialize at the L2
// partition and consume atomic-pipeline slots, so removing atomics does
// not remove the queueing — it adds traffic on top.
func (t *Thread) SerializeOn(r memsim.Region, byteOff int) {
	t.recordAtomic(r, byteOff)
}

// RacyTouch records an unsynchronized access to the sector containing
// byte offset byteOff of r and reports whether another unsynchronized
// access touched the same sector within the last window cycles. It is the
// simulator's deterministic model for the data races a check-then-act
// insertion suffers when atomic instructions are removed (§IV-D.3): the
// caller must treat a true result as a lost update and redo its work.
//
// The answer depends on what earlier blocks did to the shared timeline,
// so it cannot be speculated: a speculative block that calls RacyTouch is
// flagged for direct re-execution at its dispatch slot, where the serial
// semantics apply untouched.
func (t *Thread) RacyTouch(r memsim.Region, byteOff int, window int64) bool {
	if s := t.b.spec; s != nil {
		s.needReexec = true
		return false
	}
	addr := (r.Base + uint64(byteOff)) &^ (sectorBytes - 1)
	return t.b.dev.lines.touch(addr, t.now(), window, t.b.LinearIdx)
}

// --- Locks ---

// LockAcquire registers a lock-acquisition event; the FIFO queueing wait
// is computed by the post-launch sweep (schedule.go). The matching
// LockRelease fills in the measured critical-section length.
func (t *Thread) LockAcquire(l *Lock) {
	if t.lockHeld != nil {
		panic(fmt.Sprintf("gpusim: thread %d acquiring %q while holding %q", t.Linear, l.name, t.lockHeld.name))
	}
	if s := t.b.spec; s != nil {
		s.curEv = append(s.curEv, specEvent{intra: t.instrs + t.atomicStall, lock: l})
		t.lockHeld = l
		t.lockEventIdx = len(s.curEv) - 1
		t.lockStartInstr = t.instrs
		// l.acquisitions is bumped at commit (replaySpec), keeping the
		// shared counter single-writer.
		return
	}
	t.b.events = append(t.b.events, opEvent{
		offset: t.b.cycles + t.instrs + t.atomicStall,
		lock:   l,
	})
	t.lockHeld = l
	t.lockEventIdx = len(t.b.events) - 1
	t.lockStartInstr = t.instrs
	l.acquisitions++
}

// LockRelease releases the lock, recording the hold time (critical
// section instructions plus the handoff cost) on the acquisition event.
func (t *Thread) LockRelease(l *Lock) {
	if t.lockHeld != l {
		panic(fmt.Sprintf("gpusim: thread %d releasing %q it does not hold", t.Linear, l.name))
	}
	hold := (t.instrs - t.lockStartInstr) + t.b.dev.cfg.LockHandoffCycles
	if s := t.b.spec; s != nil {
		s.curEv[t.lockEventIdx].hold = hold
	} else {
		t.b.events[t.lockEventIdx].hold = hold
	}
	t.lockHeld = nil
}
