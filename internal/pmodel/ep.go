package pmodel

import (
	"encoding/binary"
	"fmt"

	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// epModel is Eager Persistency, the conventional crash-consistency
// design the paper contrasts Lazy Persistency against (§I, §II): a redo
// log in front of the family's commit. Every protected store appends an
// (address, value) record to its block's log segment, and each log line
// is flushed as the next record starts a new one; the commit flushes
// the tail line before its first barrier and stores the record count
// plus one as the flag. After a crash, committed blocks replay their
// logs and uncommitted blocks re-execute.
//
// This is the machinery LP exists to avoid: the log roughly quadruples
// the bytes written per store, the flushes steal NVM write bandwidth
// during normal execution, and the two barriers per thread block expose
// full NVM write latencies.
type epModel struct {
	*flagModel
	log      memsim.Region
	perBlock int // log records per block
}

// epRecordBytes is one redo-log record: [address, value] as uint64s.
const epRecordBytes = 16

func newEP(dev *gpusim.Device, w Workload, opt Options) Model {
	grid, blk := w.Geometry()
	entries := opt.EPEntries
	if entries <= 0 {
		// Four logged stores per thread covers every Table I kernel.
		entries = blk.Size() * 4
	}
	log := dev.Alloc("ep.log", grid.Size()*entries*epRecordBytes)
	m := &epModel{flagModel: newFlagModel(dev, w, "ep", log), log: log, perBlock: entries}
	m.kernel = m.wrap()
	return m
}

// wrap returns the instrumented kernel: the workload body under the
// logging hook, then the tail flush and the commit.
func (m *epModel) wrap() gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		segBase := b.LinearIdx * m.perBlock
		n := 0
		// Per-block hook: each block logs into its own segment with its
		// own counter, and the hook never outlives the block.
		m.run(b, func(t *gpusim.Thread, reg memsim.Region, elemIdx int, bits uint32) {
			if !m.protects(reg) {
				return
			}
			if n >= m.perBlock {
				panic(fmt.Sprintf("pmodel: ep block %d overflowed its %d-entry log", b.LinearIdx, m.perBlock))
			}
			entry := segBase + n
			t.StoreU64K(memsim.AccessLog, m.log, entry*2, reg.Base+uint64(elemIdx)*4)
			t.StoreU64K(memsim.AccessLog, m.log, entry*2+1, uint64(bits))
			// Flush the previous log line once this entry starts a new one.
			if byteOff := entry * epRecordBytes; n > 0 && byteOff%m.lineSize == 0 {
				t.FlushLine(m.log, byteOff-epRecordBytes)
			}
			n++
		})
		b.ForAll(func(t *gpusim.Thread) {
			if t.Linear != 0 {
				return
			}
			if n > 0 {
				t.FlushLine(m.log, (segBase+n-1)*epRecordBytes) // tail log line
			}
			m.commit(t, b.LinearIdx, uint64(n)+1)
		})
	}
}

// replay applies the redo logs of the committed blocks among blocks
// (every block when nil) to durable memory and returns the record
// count. EP never writes data lines back eagerly, so a committed
// block's data may exist only in its log until replayed.
func (m *epModel) replay(blocks []int) int {
	replayed := 0
	var buf [4]byte
	m.each(blocks, func(blk int) {
		n := int(m.flag(nil, blk)) - 1 // -1 for an uncommitted block
		if n > m.perBlock {
			n = m.perBlock // torn flag: bound the replay
		}
		seg := blk * m.perBlock
		for i := 0; i < n; i++ {
			addr := m.log.NVMU64((seg + i) * 2)
			val := m.log.NVMU64((seg+i)*2 + 1)
			if addr == 0 {
				break // torn log tail
			}
			binary.LittleEndian.PutUint32(buf[:], uint32(val))
			m.dev.Mem().HostWrite(addr, buf[:])
			replayed++
		}
	})
	return replayed
}

// Recover replays the committed blocks' logs, then re-executes the
// uncommitted blocks.
func (m *epModel) Recover() (Report, error) {
	replayed := m.replay(nil)
	rep, err := m.flagModel.Recover()
	rep.Replayed, rep.Tier = replayed, "replay+reexec"
	return rep, err
}

// RecoverShard replays the shard's committed logs — imported from a
// lost device, they hold data its NVM never received — then
// re-executes the shard's uncommitted blocks.
func (m *epModel) RecoverShard(blocks []int, backoff int64) (ShardReport, error) {
	m.replay(blocks)
	return m.flagModel.RecoverShard(blocks, backoff)
}

// ShardIntact accepts the shard when every listed block committed AND
// its durable data agrees with its redo log. EP persists the log, not
// the data lines, before the commit flag — a committed block's data may
// still be un-written-back — so the judge replays each durable log
// record against the same image and rejects on any divergence rather
// than trusting the flag alone.
func (m *epModel) ShardIntact(img []byte, blocks []int, _ BlockFolder) bool {
	for _, blk := range blocks {
		n := int(m.flag(img, blk)) - 1
		if n < 0 || n > m.perBlock {
			return false
		}
		seg := uint64(blk * m.perBlock)
		for i := uint64(0); i < uint64(n); i++ {
			rec := m.log.Base + (seg+i)*epRecordBytes
			if uint64(memsim.ImageU32(img, memsim.ImageU64(img, rec))) != memsim.ImageU64(img, rec+8) {
				return false
			}
		}
	}
	return true
}
