// Fault-injection surface of the memory model: richer crash shapes than
// the all-or-nothing Crash, plus NVM media-error injection and whole-image
// snapshot/restore. These primitives exist for the fault-injection
// campaign engine (internal/faultsim): Lazy Persistency's correctness
// claim is that validation detects exactly the regions whose stores never
// became durable, and that claim is only testable when the durable image
// after a crash can take every shape real hardware produces — arbitrary
// eviction subsets and orderings, torn line write-backs, and bit flips in
// the NVM media itself (the false-negative analysis of Fig. 2).
package memsim

import (
	"fmt"
	"math/rand"
)

// CrashProfile shapes a PartialCrash.
type CrashProfile struct {
	// EvictFrac is the probability that a dirty line is written back to
	// NVM before power is lost (natural eviction racing the failure).
	// 0 makes PartialCrash equivalent to Crash; 1 evicts everything.
	EvictFrac float64
	// TornFrac is the probability that an evicted line's write-back is
	// torn: only a random prefix of the line reaches NVM, the tail keeps
	// its previous durable contents. Real NVM DIMMs guarantee only 8-byte
	// atomicity, so a 128-byte line write-back is 16 independently
	// persisted chunks.
	TornFrac float64
}

// CrashReport summarizes what a PartialCrash did.
type CrashReport struct {
	// Dirty is the number of dirty lines held at the crash instant.
	Dirty int
	// Evicted counts dirty lines fully written back before the drop.
	Evicted int
	// Torn counts dirty lines only partially written back.
	Torn int
	// Dropped counts dirty lines that never reached NVM at all.
	Dropped int
}

// String implements fmt.Stringer.
func (r CrashReport) String() string {
	return fmt.Sprintf("crash: %d dirty (%d evicted, %d torn, %d dropped)",
		r.Dirty, r.Evicted, r.Torn, r.Dropped)
}

// PartialCrash simulates a power failure preceded by a burst of natural
// eviction in arbitrary order: each dirty line is independently written
// back (fully or torn, per p) before every cached line is discarded. The
// eviction subset and order, and each torn line's cut point, are drawn
// from rng, so a seeded rng reproduces the exact durable image. A nil rng
// or zero profile degenerates to Crash.
func (m *Memory) PartialCrash(rng *rand.Rand, p CrashProfile) CrashReport {
	var rep CrashReport
	if rng == nil || p.EvictFrac <= 0 {
		rep.Dirty = m.DirtyLines()
		rep.Dropped = rep.Dirty
		m.Crash()
		return rep
	}
	dirty := make([]*line, 0, m.dirtyLines)
	m.forEachDirty(func(l *line) { dirty = append(dirty, l) })
	rep.Dirty = len(dirty)
	// Arbitrary write-back order: the cache controller owes no ordering
	// between independent lines.
	rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
	for _, l := range dirty {
		if rng.Float64() >= p.EvictFrac {
			rep.Dropped++
			continue
		}
		if rng.Float64() < p.TornFrac {
			m.tornWriteBack(l, rng)
			rep.Torn++
			continue
		}
		m.writeBack(l)
		rep.Evicted++
	}
	m.Crash()
	return rep
}

// tornWriteBack persists only a random non-empty proper prefix of l,
// aligned to 8 bytes (the media's atomic write unit). It counts as one
// NVM line write for traffic accounting.
func (m *Memory) tornWriteBack(l *line, rng *rand.Rand) {
	chunks := m.cfg.LineSize / 8
	if chunks < 2 {
		// Lines of one atomic unit cannot tear.
		m.writeBack(l)
		return
	}
	n := (1 + rng.Intn(chunks-1)) * 8
	m.ensureNVM(l.tag)
	data := l.data[:n]
	if m.media != nil {
		// A torn write is still a write of its prefix: the fault process
		// advances and stuck cells override the persisted chunk.
		data = m.mediaEffective(l.tag, data)
	}
	m.mutateNVM(l.tag, data)
	m.notify(PersistEvent{Kind: EvTornWriteBack, Addr: l.tag, Data: data})
	m.stats.NVMLineWrites++
	if m.stats.NVMWritesByRegion == nil {
		m.stats.NVMWritesByRegion = make(map[string]int64)
	}
	m.stats.NVMWritesByRegion[m.regionNameFor(l.tag)]++
	m.markClean(l)
}

// InjectBitFlipsRange flips n uniformly random bits within the durable
// image of [base, base+size), modeling NVM media errors (retention or
// disturb faults). Cached copies are not touched: a flip surfaces only to
// post-crash readers, which is when media errors matter to Lazy
// Persistency. Returns the flipped byte addresses (with repetition when
// rng lands twice on one byte).
func (m *Memory) InjectBitFlipsRange(rng *rand.Rand, base uint64, size, n int) []uint64 {
	if size <= 0 || n <= 0 {
		return nil
	}
	last := (base + uint64(size) - 1) &^ uint64(m.cfg.LineSize-1)
	m.ensureNVM(last)
	flipped := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		bit := rng.Intn(size * 8)
		addr := base + uint64(bit/8)
		m.FlipBit(addr, uint8(bit%8))
		flipped = append(flipped, addr)
	}
	return flipped
}

// FlipBit flips one bit of the durable image at addr, the deterministic
// primitive behind InjectBitFlips. A cached copy of the line keeps the
// pre-flip byte: flips surface only to durable readers.
func (m *Memory) FlipBit(addr uint64, bit uint8) {
	m.ensureNVM(addr &^ uint64(m.cfg.LineSize-1))
	bit %= 8
	if m.mediaAbsorbsFlip(addr, bit) {
		// A stuck cell cannot change state: the disturb is absorbed, no
		// durable mutation happens, and no event fires (the oracle's xor
		// semantics would otherwise diverge from the unchanged image).
		return
	}
	// With an active media model the flip is ECC-detectable: record the
	// pre-flip bytes as the line's intended contents so Scrub can heal it.
	m.mediaTrackFlip(addr)
	b := m.nvm[addr] ^ (1 << bit)
	m.mutateNVM(addr, []byte{b})
	m.notify(PersistEvent{Kind: EvBitFlip, Addr: addr, Bit: bit})
}

// InjectBitFlips flips n random bits anywhere in the allocated durable
// image.
func (m *Memory) InjectBitFlips(rng *rand.Rand, n int) []uint64 {
	base := uint64(m.cfg.LineSize) // address 0 is never allocated
	if m.next <= base {
		return nil
	}
	return m.InjectBitFlipsRange(rng, base, int(m.next-base), n)
}

// SnapshotNVM returns a copy of the entire durable image — a restore
// point for checkpoint-based recovery. Callers that need the snapshot to
// reflect all logical state must FlushAll first.
func (m *Memory) SnapshotNVM() []byte {
	out := make([]byte, len(m.nvm))
	copy(out, m.nvm)
	return out
}

// RestoreNVM overwrites the durable image with a prior SnapshotNVM and
// discards every cached line, exactly as a checkpoint restore after a
// crash would. Bytes allocated after the snapshot was taken are zeroed.
func (m *Memory) RestoreNVM(img []byte) {
	m.growNVM(len(img))
	m.mutateNVM(0, img)
	if len(m.nvm) > len(img) {
		m.mutateNVM(uint64(len(img)), make([]byte, len(m.nvm)-len(img)))
	}
	m.notify(PersistEvent{Kind: EvRestore, Data: img})
	// Stuck-at cells survive an image restore: re-assert them over the
	// restored bytes (after the EvRestore, so the oracle replays the same
	// sequence) and adopt the restored image as the new intended contents.
	m.mediaAfterRestore()
	m.Crash()
}
