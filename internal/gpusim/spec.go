package gpusim

import (
	"encoding/binary"
	"fmt"

	"gpulp/internal/memsim"
)

// Speculative block execution.
//
// When Config.Workers > 1, blocks run functionally on a host worker pool
// before their dispatch-order turn. A speculative block never touches the
// live memory hierarchy: it reads through a frozen memsim.Snapshot plus a
// private write overlay, and records everything it did — every memory
// operation with its observed value, every phase's charge inputs, every
// serialization event — into a trace. The commit loop (parallel.go)
// consumes traces strictly in dispatch order: it validates that each
// recorded load still observes the recorded value against the live
// hierarchy, replays the operation stream through the real memsim.Memory
// (reconstructing the exact cache, statistics, and NVM trajectory the
// serial engine would have produced), and recomputes the timing from the
// recorded charge inputs plus the replay's real NVM traffic. A block
// whose loads went stale — or that used an order-sensitive primitive like
// RacyTouch — is simply re-executed directly at its committed position,
// which is bit-identical to serial execution by construction.

// specOpKind tags one traced memory operation.
type specOpKind uint8

const (
	opLoad specOpKind = iota
	opStore
	opFlush
)

// specOp is one traced memory operation of a speculative block.
type specOp struct {
	op   specOpKind
	size uint8 // access size in bytes (4 or 8); unused for opFlush
	// charged reports whether the access was charged to the thread
	// (instruction + L2 sector + NVM traffic). The functional store half
	// of an atomic mutates memory but is not charged — only the load half
	// is (mirroring the serial engine's single chargeAccess per atomic).
	charged bool
	kind    memsim.AccessKind
	addr    uint64
	val     uint64 // value loaded (opLoad) or stored (opStore)
}

// specEvent is a traced serialization event (atomic or lock acquisition).
// intra is the event's offset within its phase (instructions + exposed
// stall at record time); the commit loop adds the replay-computed cycle
// count at phase start, reproducing the serial engine's event offsets.
type specEvent struct {
	intra int64
	addr  uint64
	lock  *Lock
	hold  int64
}

// phaseRec captures one completed phase (ForAll/WarpPhase) or an explicit
// Barrier of a speculative block. warpInstrs, l2 and stall are the charge
// inputs that do not depend on cache state; NVM traffic is deliberately
// absent — it is recomputed during replay from real access results.
type phaseRec struct {
	barrierOnly bool
	warpInstrs  int64
	l2          int64
	stall       int64
	ops         []specOp
	events      []specEvent
}

// specState is the per-block speculative execution context.
type specState struct {
	snap    *memsim.Snapshot
	overlay map[uint64]uint32 // 4-byte-word address -> speculatively stored value
	phases  []phaseRec
	curOps  []specOp
	curEv   []specEvent
	// needReexec is set when the block used a primitive whose outcome
	// depends on cross-block execution order (RacyTouch), or when the
	// speculative run panicked on stale state; the commit loop then
	// discards the trace and re-executes the block directly.
	needReexec bool
}

// read32 returns the speculative view of the 4-aligned word at addr.
func (s *specState) read32(addr uint64) uint32 {
	if v, ok := s.overlay[addr]; ok {
		return v
	}
	return s.snap.ReadU32(addr)
}

// read64 returns the speculative view of the 8-aligned word at addr,
// combining per-word overlay entries with the snapshot (a 64-bit load may
// observe one half written by a 32-bit store).
func (s *specState) read64(addr uint64) uint64 {
	lo, okLo := s.overlay[addr]
	hi, okHi := s.overlay[addr+4]
	if !okLo || !okHi {
		base := s.snap.ReadU64(addr)
		if !okLo {
			lo = uint32(base)
		}
		if !okHi {
			hi = uint32(base >> 32)
		}
	}
	return uint64(lo) | uint64(hi)<<32
}

// write applies a speculative store to the overlay at word granularity.
func (s *specState) write(addr uint64, size int, val uint64) {
	s.overlay[addr] = uint32(val)
	if size == 8 {
		s.overlay[addr+4] = uint32(val >> 32)
	}
}

// specAddr resolves a region element address with the same bounds
// discipline as memsim's accessors. A speculative out-of-range access
// (possible when stale snapshot data produced garbage indices) panics;
// the worker recovers it into needReexec, and a genuine out-of-range
// access re-panics during the direct re-execution.
func specAddr(r memsim.Region, idx, elemSize int) uint64 {
	off := idx * elemSize
	if idx < 0 || off+elemSize > r.Size {
		panic(fmt.Sprintf("memsim: region %q index %d (elem %dB) out of range (size %dB)", r.Name, idx, elemSize, r.Size))
	}
	return r.Base + uint64(off)
}

// barrierCostFor is Block.barrierCost as a pure function, shared between
// direct execution and trace replay so both charge identical arithmetic.
func barrierCostFor(cfg Config, numWarps int) int64 {
	cost := int64(4 * numWarps)
	if max := cfg.BarrierCycles; cost > max {
		cost = max
	}
	return cost
}

// phaseCost is the roofline charge of one phase as a pure function,
// shared between direct execution and trace replay.
func phaseCost(cfg Config, warpInstrs, l2, nvm int64) int64 {
	compute := int64(float64(warpInstrs) / cfg.IssueWidth)
	l2Cyc := int64(float64(l2) / (cfg.L2BytesPerCycle / float64(cfg.NumSMs)))
	nvmCyc := int64(float64(nvm) / (cfg.NVMBytesPerCycle / float64(cfg.NumSMs)))
	mem := l2Cyc
	if nvmCyc > mem {
		mem = nvmCyc
	}
	phase := compute
	if mem > phase {
		phase = mem
	}
	return phase
}

// validateSpec replays b's traced loads read-only against the live
// hierarchy (plus the block's own earlier stores), reporting whether every
// load still observes the value the speculative run saw. scratch is a
// reusable word-overlay map (cleared here).
func (d *Device) validateSpec(b *Block, scratch map[uint64]uint32) bool {
	s := b.spec
	if s.needReexec {
		return false
	}
	clear(scratch)
	mem := d.mem
	word := func(addr uint64) uint32 {
		if v, ok := scratch[addr]; ok {
			return v
		}
		return mem.PeekCoherentU32(addr)
	}
	for pi := range s.phases {
		ops := s.phases[pi].ops
		for oi := range ops {
			op := &ops[oi]
			switch op.op {
			case opLoad:
				if op.size == 4 {
					if word(op.addr) != uint32(op.val) {
						return false
					}
				} else if uint64(word(op.addr))|uint64(word(op.addr+4))<<32 != op.val {
					return false
				}
			case opStore:
				scratch[op.addr] = uint32(op.val)
				if op.size == 8 {
					scratch[op.addr+4] = uint32(op.val >> 32)
				}
			}
		}
	}
	return true
}

// replaySpec commits a validated speculative block: it replays the traced
// operation stream through the real memory hierarchy (reproducing the
// exact cache, statistics and NVM trajectory of serial execution),
// recomputes the block's timing from the recorded charge inputs plus the
// replay's real NVM traffic, and materializes the serialization events at
// serial-identical offsets.
func (d *Device) replaySpec(b *Block, start int64) {
	s := b.spec
	cfg := d.cfg
	mem := d.mem
	lineSize := mem.LineSize()
	nw := b.NumWarps()

	var cycles, totWI, totL2, totNVM, totStall int64
	var events []opEvent
	var buf [8]byte
	for pi := range s.phases {
		ph := &s.phases[pi]
		if ph.barrierOnly {
			cycles += barrierCostFor(cfg, nw)
			continue
		}
		var nvm int64
		for oi := range ph.ops {
			op := &ph.ops[oi]
			switch op.op {
			case opLoad:
				data, res := mem.Load(op.kind, op.addr, int(op.size))
				var v uint64
				if op.size == 4 {
					v = uint64(binary.LittleEndian.Uint32(data))
				} else {
					v = binary.LittleEndian.Uint64(data)
				}
				if v != op.val {
					panic(fmt.Sprintf("gpusim: replay divergence at block %d: load %#x = %#x, traced %#x",
						b.LinearIdx, op.addr, v, op.val))
				}
				if op.charged {
					nvm += int64(res.Bytes(lineSize))
				}
			case opStore:
				var res memsim.AccessResult
				if op.size == 4 {
					binary.LittleEndian.PutUint32(buf[:4], uint32(op.val))
					res = mem.Store(op.kind, op.addr, buf[:4])
				} else {
					binary.LittleEndian.PutUint64(buf[:], op.val)
					res = mem.Store(op.kind, op.addr, buf[:])
				}
				if op.charged {
					nvm += int64(res.Bytes(lineSize))
				}
			case opFlush:
				if mem.FlushAddr(op.addr) {
					nvm += int64(lineSize)
				}
			}
		}
		for _, ev := range ph.events {
			events = append(events, opEvent{offset: cycles + ev.intra, addr: ev.addr, lock: ev.lock, hold: ev.hold})
			if ev.lock != nil {
				ev.lock.acquisitions++
			}
		}
		cycles += phaseCost(cfg, ph.warpInstrs, ph.l2, nvm) + ph.stall + barrierCostFor(cfg, nw)
		totWI += ph.warpInstrs
		totL2 += ph.l2
		totNVM += nvm
		totStall += ph.stall
	}

	b.startTime = start
	b.cycles = cycles
	b.events = events
	b.totWarpInstrs = totWI
	b.totL2Bytes = totL2
	b.totNVMBytes = totNVM
	b.totAtomicStall = totStall
	b.spec = nil
}
