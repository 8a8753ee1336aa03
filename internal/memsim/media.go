// Online NVM media-error model: time-distributed transient and permanent
// (stuck-at) faults that strike while the system runs, not only at crash
// time. Real NVM exhibits retention drift, read/write disturb, and worn
// cells; the paper's recovery story (§V) assumes a single fail-stop crash,
// so a self-healing runtime needs the other half — detect media errors
// online, heal what is healable, and quarantine what is not.
//
// The model is deterministic: a seeded splitmix counter advances once per
// written line (full or torn write-back), and each draw decides whether
// this write suffers a transient single-bit error (the NVM cells capture a
// flipped bit; the next write of the line is clean) or gains a permanent
// stuck-at bit (the cell is pinned forever; every later write of that bit
// is overridden). Faults are evaluated at write-back time, and gpusim runs
// blocks one at a time in dispatch order, so the write-back order — and
// with it the fault sequence — is bit-identical from run to run. Faults
// manifest at read
// time naturally: the NVM array holds the effective (faulted) bytes, so
// any fill, peek, or post-crash read observes them.
//
// Detection is ECC-style: for every line that has deviated from its
// intended durable contents the model keeps the intended bytes (what a
// fault-free medium would hold). Scrub sweeps that metadata, rewrites
// correctable lines through the ordinary persistency-event path
// (EvScrubRepair), and reports lines a rewrite cannot fix because a stuck
// cell holds the wrong value — the quarantine candidates.
//
// Cache lines stay pristine throughout: faults perturb only the durable
// array, via a Memory-owned scratch buffer, never the caller's cache-line
// bytes. All durable mutations route through mutateNVM, and every
// mutation event carries the effective bytes so the persistcheck oracle
// stays exact.
package memsim

import (
	"bytes"
	"fmt"
	"sort"
)

// FaultConfig drives the online media-error model.
type FaultConfig struct {
	// Enabled turns the seeded fault process on. PlantStuckAt works even
	// when the process is disabled (explicit planting is orthogonal).
	Enabled bool
	// Seed makes the fault sequence reproducible: the same seed and the
	// same write-back sequence produce the same faults.
	Seed uint64
	// TransientPerWrite is the probability (0..1) that one written line
	// captures a transient single-bit error: the NVM cells hold a flipped
	// bit until the line is next written or scrubbed.
	TransientPerWrite float64
	// StuckPerWrite is the probability (0..1) that one written line gains
	// a permanent stuck-at bit, pinned to the complement of the bit being
	// written so the fault manifests immediately and on every later write.
	StuckPerWrite float64
}

// validate reports the first invalid FaultConfig field.
func (f FaultConfig) validate() error {
	if !f.Enabled {
		return nil
	}
	if f.TransientPerWrite < 0 || f.TransientPerWrite > 1 {
		return &ConfigError{Field: "Fault.TransientPerWrite",
			Reason: fmt.Sprintf("must be in [0,1], got %g", f.TransientPerWrite)}
	}
	if f.StuckPerWrite < 0 || f.StuckPerWrite > 1 {
		return &ConfigError{Field: "Fault.StuckPerWrite",
			Reason: fmt.Sprintf("must be in [0,1], got %g", f.StuckPerWrite)}
	}
	return nil
}

// MediaStats are cumulative media-error counters (not reset by ResetStats:
// media state is a property of the medium, not of a measurement window).
type MediaStats struct {
	// Writes counts fault-process draws (written lines while Enabled).
	Writes int64
	// Transient counts transient bit errors captured by NVM cells.
	Transient int64
	// Stuck counts permanent stuck-at bits created (process + planted).
	Stuck int64
	// Scrubs counts Scrub sweeps; Healed counts corrupt lines fully
	// restored by them.
	Scrubs int64
	Healed int64
}

// mediaLine is the per-line fault metadata.
type mediaLine struct {
	// intended is the full line a fault-free medium would hold — the
	// ECC-style detection metadata. The line is corrupt exactly when the
	// durable array deviates from it.
	intended []byte
	// stuckMask/stuckVal pin cells: bits set in stuckMask are forever held
	// at the corresponding stuckVal bit. nil when the line has none.
	stuckMask []byte
	stuckVal  []byte
}

// mediaState is the media-error model attached to a Memory. It exists
// when the fault process is enabled or any stuck-at bit has been planted.
type mediaState struct {
	cfg             FaultConfig
	transientThresh uint64 // cfg.TransientPerWrite scaled to 2^32
	stuckThresh     uint64
	writes          uint64 // fault-process counter
	lines           map[uint64]*mediaLine
	scratch         []byte // effective-bytes buffer; cache lines stay pristine
	stats           MediaStats
}

func newMediaState(cfg FaultConfig, lineSize int) *mediaState {
	return &mediaState{
		cfg:             cfg,
		transientThresh: uint64(cfg.TransientPerWrite * float64(1<<32)),
		stuckThresh:     uint64(cfg.StuckPerWrite * float64(1<<32)),
		lines:           map[uint64]*mediaLine{},
		scratch:         make([]byte, lineSize),
	}
}

// splitmix64 is the SplitMix64 mixer — the deterministic fault process.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mediaEnsure returns the media state, creating an inactive one on first
// use (explicit planting with the fault process disabled).
func (m *Memory) mediaEnsure() *mediaState {
	if m.media == nil {
		m.media = newMediaState(m.cfg.Fault, m.cfg.LineSize)
	}
	return m.media
}

// ensureLine returns the metadata entry for lineAddr, seeding intended
// from the current durable bytes (a line becomes tracked the moment its
// first fault strikes; until then NVM equals intent by definition).
func (md *mediaState) ensureLine(m *Memory, lineAddr uint64) *mediaLine {
	ml := md.lines[lineAddr]
	if ml == nil {
		ml = &mediaLine{intended: append([]byte(nil),
			m.nvm[lineAddr:lineAddr+uint64(m.cfg.LineSize)]...)}
		md.lines[lineAddr] = ml
	}
	return ml
}

// ensureStuck allocates the stuck masks of ml.
func (ml *mediaLine) ensureStuck(lineSize int) {
	if ml.stuckMask == nil {
		ml.stuckMask = make([]byte, lineSize)
		ml.stuckVal = make([]byte, lineSize)
	}
}

// applyStuck overrides the pinned bits of buf (line offset off) in place.
func (ml *mediaLine) applyStuck(buf []byte, off int) {
	if ml.stuckMask == nil {
		return
	}
	for i := range buf {
		mask := ml.stuckMask[off+i]
		if mask != 0 {
			buf[i] = (buf[i] &^ mask) | (ml.stuckVal[off+i] & mask)
		}
	}
}

// mediaEffective folds the media-error model into one line write of
// data at line offset 0 (full write-backs and torn prefixes both start
// at the line base): it advances the fault process, updates the line's
// intended bytes, applies stuck-at masks, and captures any new transient
// flip. The returned slice is what the NVM cells will actually hold; it
// aliases either data (fault-free) or the internal scratch buffer, never
// mutating the caller's bytes.
func (m *Memory) mediaEffective(lineAddr uint64, data []byte) []byte {
	md := m.media
	ml := md.lines[lineAddr]
	var draw uint64
	if md.cfg.Enabled {
		md.writes++
		md.stats.Writes++
		draw = splitmix64(md.cfg.Seed ^ md.writes)
	}

	// Permanent fault: pin one written bit at the complement of its
	// intended value, so the fault manifests on this very write.
	if md.cfg.Enabled && draw&0xffffffff < md.stuckThresh {
		pick := splitmix64(draw ^ 0x57c)
		bit := int(pick % uint64(len(data)*8))
		byteOff, b := bit/8, uint8(bit%8)
		ml = md.ensureLine(m, lineAddr)
		ml.ensureStuck(m.cfg.LineSize)
		if ml.stuckMask[byteOff]&(1<<b) == 0 {
			ml.stuckMask[byteOff] |= 1 << b
			if data[byteOff]&(1<<b) == 0 {
				ml.stuckVal[byteOff] |= 1 << b
			} else {
				ml.stuckVal[byteOff] &^= 1 << b
			}
			md.stats.Stuck++
		}
	}

	// Transient fault: one bit of this write is captured flipped.
	transientBit := -1
	if md.cfg.Enabled && (draw>>32)&0xffffffff < md.transientThresh {
		pick := splitmix64(draw ^ 0x7a4)
		transientBit = int(pick % uint64(len(data)*8))
		ml = md.ensureLine(m, lineAddr)
	}

	if ml == nil {
		return data // untracked line, no new fault: bytes land verbatim
	}

	// The write updates the intended durable contents regardless of what
	// the cells end up holding.
	copy(ml.intended[:len(data)], data)

	eff := md.scratch[:len(data)]
	copy(eff, data)
	ml.applyStuck(eff, 0)
	if transientBit >= 0 {
		byteOff, b := transientBit/8, uint8(transientBit%8)
		// A stuck cell absorbs the disturb: it cannot flip.
		if ml.stuckMask == nil || ml.stuckMask[byteOff]&(1<<b) == 0 {
			eff[byteOff] ^= 1 << b
			md.stats.Transient++
		}
	}
	return eff
}

// mediaHostEffective folds stuck-at masks into a host write (host writes
// do not advance the fault process — they model DMA from the host, whose
// payload still lands on possibly-pinned cells). Returns buf itself when
// no tracked line is touched.
func (m *Memory) mediaHostEffective(addr uint64, buf []byte) []byte {
	if m.media == nil || len(m.media.lines) == 0 {
		return buf
	}
	var eff []byte
	ls := uint64(m.cfg.LineSize)
	for done := 0; done < len(buf); {
		a := addr + uint64(done)
		lineAddr := a &^ (ls - 1)
		n := int(lineAddr + ls - a)
		if n > len(buf)-done {
			n = len(buf) - done
		}
		if ml := m.media.lines[lineAddr]; ml != nil {
			copy(ml.intended[a-lineAddr:], buf[done:done+n])
			if ml.stuckMask != nil {
				if eff == nil {
					eff = append([]byte(nil), buf...)
				}
				ml.applyStuck(eff[done:done+n], int(a-lineAddr))
			}
		}
		done += n
	}
	if eff == nil {
		return buf
	}
	return eff
}

// mediaAbsorbsFlip reports whether a stuck cell pins the bit at addr,
// absorbing an external disturb (FlipBit of a pinned cell is a no-op: the
// cell cannot change, so no durable mutation and no event).
func (m *Memory) mediaAbsorbsFlip(addr uint64, bit uint8) bool {
	if m.media == nil {
		return false
	}
	lineAddr := addr &^ uint64(m.cfg.LineSize-1)
	ml := m.media.lines[lineAddr]
	return ml != nil && ml.stuckMask != nil && ml.stuckMask[addr-lineAddr]&(1<<bit) != 0
}

// mediaTrackFlip records ECC detection metadata for an external FlipBit
// (intended bytes are the pre-flip durable contents), so a later Scrub
// can heal it. Only lines of an active media model are tracked; with no
// model the legacy FlipBit semantics are untouched.
func (m *Memory) mediaTrackFlip(addr uint64) {
	if m.media == nil {
		return
	}
	m.media.ensureLine(m, addr&^uint64(m.cfg.LineSize-1))
}

// PlantStuckAt pins one NVM cell for checker self-tests and watchdog
// acceptance tests: the bit at addr (bit index 0-7) is stuck at val
// (0 or 1) from now on — every write of that bit is overridden, scrub
// rewrites cannot heal it, and checkpoint restores re-assert it. If the
// current durable bit disagrees it is forced immediately (through the
// COW path, with an EvStuckAt event). Works with the fault process
// disabled; planting is orthogonal to the seeded model.
func (m *Memory) PlantStuckAt(addr uint64, bit uint8, val uint8) {
	bit %= 8
	lineAddr := addr &^ uint64(m.cfg.LineSize-1)
	m.ensureNVM(lineAddr)
	md := m.mediaEnsure()
	ml := md.ensureLine(m, lineAddr)
	ml.ensureStuck(m.cfg.LineSize)
	off := addr - lineAddr
	if ml.stuckMask[off]&(1<<bit) == 0 {
		md.stats.Stuck++
	}
	ml.stuckMask[off] |= 1 << bit
	if val != 0 {
		ml.stuckVal[off] |= 1 << bit
	} else {
		ml.stuckVal[off] &^= 1 << bit
	}
	cur := m.nvm[addr]
	want := (cur &^ (1 << bit)) | (ml.stuckVal[off] & (1 << bit))
	if want != cur {
		m.mutateNVM(addr, []byte{want})
		m.notify(PersistEvent{Kind: EvStuckAt, Addr: addr, Data: []byte{want}, Bit: bit})
	}
}

// MediaStats returns the cumulative media-error counters.
func (m *Memory) MediaStats() MediaStats {
	if m.media == nil {
		return MediaStats{}
	}
	return m.media.stats
}

// MediaFaultyLines returns the tracked faulty line addresses in sorted
// order: lines currently deviating from their intended bytes plus lines
// carrying stuck-at cells (which can deviate again at any write).
func (m *Memory) MediaFaultyLines() []uint64 {
	if m.media == nil {
		return nil
	}
	out := make([]uint64, 0, len(m.media.lines))
	for la := range m.media.lines {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ScrubReport summarizes one Scrub sweep.
type ScrubReport struct {
	// LinesScanned counts tracked lines examined.
	LinesScanned int
	// Corrupt counts lines whose durable bytes deviated from intent.
	Corrupt int
	// Healed counts corrupt lines fully restored by the rewrite.
	Healed int
	// Uncorrectable counts lines still deviating after the rewrite —
	// stuck cells hold the wrong value. UncorrectableLines lists their
	// line addresses in ascending order (the quarantine candidates).
	Uncorrectable      int
	UncorrectableLines []uint64
}

// Clean reports whether the sweep left no uncorrectable lines.
func (r ScrubReport) Clean() bool { return r.Uncorrectable == 0 }

// String implements fmt.Stringer.
func (r ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d scanned, %d corrupt, %d healed, %d uncorrectable",
		r.LinesScanned, r.Corrupt, r.Healed, r.Uncorrectable)
}

// Scrub sweeps the ECC detection metadata: every tracked line is compared
// against its intended bytes, deviating lines are rewritten through the
// ordinary COW/persistency-event paths (EvScrubRepair, counted as NVM
// line writes), and lines a rewrite cannot fix — a stuck cell pins the
// wrong value — are reported as uncorrectable. Healed transient-only
// lines leave the tracking map; stuck lines stay tracked forever. Scrub
// is an owner-goroutine operation like every other mutator.
func (m *Memory) Scrub() ScrubReport {
	var rep ScrubReport
	if m.media == nil {
		return rep
	}
	md := m.media
	md.stats.Scrubs++
	ls := uint64(m.cfg.LineSize)
	for _, lineAddr := range m.MediaFaultyLines() {
		ml := md.lines[lineAddr]
		rep.LinesScanned++
		cur := m.nvm[lineAddr : lineAddr+ls]
		if bytes.Equal(cur, ml.intended) {
			if ml.stuckMask == nil {
				delete(md.lines, lineAddr) // healed by overwrite since tracking
			}
			continue
		}
		rep.Corrupt++
		eff := md.scratch[:ls]
		copy(eff, ml.intended)
		ml.applyStuck(eff, 0)
		if !bytes.Equal(cur, eff) {
			m.mutateNVM(lineAddr, eff)
			m.notify(PersistEvent{Kind: EvScrubRepair, Addr: lineAddr, Data: eff})
			m.stats.NVMLineWrites++
			if m.stats.NVMWritesByRegion == nil {
				m.stats.NVMWritesByRegion = make(map[string]int64)
			}
			m.stats.NVMWritesByRegion[m.regionNameFor(lineAddr)]++
		}
		if bytes.Equal(m.nvm[lineAddr:lineAddr+ls], ml.intended) {
			rep.Healed++
			md.stats.Healed++
			if ml.stuckMask == nil {
				delete(md.lines, lineAddr)
			}
		} else {
			rep.Uncorrectable++
			rep.UncorrectableLines = append(rep.UncorrectableLines, lineAddr)
		}
	}
	return rep
}

// mediaAfterRestore re-asserts every stuck-at cell after a checkpoint
// restore replaced the durable image: the restored bytes become the new
// intended contents, transient-only tracking is dropped (the restore
// overwrote any captured flips), and pinned cells that disagree with the
// restored image are forced back (EvStuckAt events after the EvRestore,
// so the oracle replays the same sequence).
func (m *Memory) mediaAfterRestore() {
	if m.media == nil {
		return
	}
	md := m.media
	ls := uint64(m.cfg.LineSize)
	for _, lineAddr := range m.MediaFaultyLines() {
		ml := md.lines[lineAddr]
		copy(ml.intended, m.nvm[lineAddr:lineAddr+ls])
		if ml.stuckMask == nil {
			delete(md.lines, lineAddr)
			continue
		}
		for i := 0; i < int(ls); i++ {
			mask := ml.stuckMask[i]
			if mask == 0 {
				continue
			}
			addr := lineAddr + uint64(i)
			cur := m.nvm[addr]
			want := (cur &^ mask) | (ml.stuckVal[i] & mask)
			if want != cur {
				bit := uint8(0)
				for b := uint8(0); b < 8; b++ {
					if (cur^want)&(1<<b) != 0 {
						bit = b
						break
					}
				}
				m.mutateNVM(addr, []byte{want})
				m.notify(PersistEvent{Kind: EvStuckAt, Addr: addr, Data: []byte{want}, Bit: bit})
			}
		}
	}
}
