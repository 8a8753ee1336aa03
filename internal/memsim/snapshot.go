package memsim

import (
	"encoding/binary"
	"sync"
)

// snapStripes is the number of address stripes guarding the copy-on-write
// map. Striping bounds contention: workers reading disjoint lines almost
// never share a mutex with the committer's write-backs.
const snapStripes = 64

type snapStripe struct {
	mu  sync.Mutex
	cow map[uint64][]byte // line address -> line bytes frozen at snapshot time
}

// Snapshot is a frozen coherent view of a Memory (cache contents where
// present, NVM otherwise, as of BeginSnapshot), readable from many
// goroutines while the owning goroutine continues to mutate the live
// hierarchy. The freeze is copy-on-write: dirty cache lines are captured
// eagerly (their bytes exist nowhere durable), and NVM lines are captured
// lazily the moment a write-back or host write first overwrites them.
type Snapshot struct {
	mem     *Memory
	nvm     []byte // the durable array as of BeginSnapshot
	lineSz  uint64
	stripes [snapStripes]snapStripe
}

func (s *Snapshot) stripeOf(lineAddr uint64) *snapStripe {
	return &s.stripes[(lineAddr/s.lineSz)%snapStripes]
}

// BeginSnapshot freezes the current coherent view and returns it. Exactly
// one snapshot may be active at a time; the caller must EndSnapshot before
// beginning another. While active, only the snapshot's read methods may be
// called from other goroutines — every Memory method remains owned by the
// goroutine that called BeginSnapshot.
func (m *Memory) BeginSnapshot() *Snapshot {
	if m.snap != nil {
		panic("memsim: BeginSnapshot with a snapshot already active")
	}
	s := &Snapshot{mem: m, nvm: m.nvm, lineSz: uint64(m.cfg.LineSize)}
	for i := range s.stripes {
		s.stripes[i].cow = map[uint64][]byte{}
	}
	// Dirty lines are the only state whose coherent value differs from the
	// durable array (a clean cached line was filled from NVM and not
	// modified since), so they are the only eager copies needed.
	m.forEachDirty(func(l *line) {
		cp := make([]byte, m.cfg.LineSize)
		copy(cp, l.data)
		s.stripeOf(l.tag).cow[l.tag] = cp
	})
	m.snap = s
	return s
}

// EndSnapshot deactivates the snapshot. Reads through it after the end are
// invalid (concurrent mutation is no longer intercepted).
func (m *Memory) EndSnapshot() {
	m.snap = nil
}

// mutateNVMLine overwrites one full line of the durable array with data,
// first preserving the line's pre-mutation bytes in the active snapshot.
// The stripe mutex is held across preserve-and-copy so a concurrent
// snapshot reader sees either the old bytes directly or the COW entry —
// never a torn mixture.
func (m *Memory) mutateNVMLine(lineAddr uint64, data []byte) {
	s := m.snap
	if s == nil {
		copy(m.nvm[lineAddr:lineAddr+uint64(m.cfg.LineSize)], data)
		return
	}
	st := s.stripeOf(lineAddr)
	st.mu.Lock()
	if _, ok := st.cow[lineAddr]; !ok {
		cp := make([]byte, m.cfg.LineSize)
		if int(lineAddr) < len(s.nvm) {
			copy(cp, s.nvm[lineAddr:])
		}
		st.cow[lineAddr] = cp
	}
	copy(m.nvm[lineAddr:lineAddr+uint64(m.cfg.LineSize)], data)
	st.mu.Unlock()
}

// mutateNVM is mutateNVMLine for an arbitrary (possibly unaligned,
// multi-line) byte range.
func (m *Memory) mutateNVM(addr uint64, buf []byte) {
	s := m.snap
	if s == nil {
		copy(m.nvm[addr:], buf)
		return
	}
	ls := uint64(m.cfg.LineSize)
	for done := 0; done < len(buf); {
		a := addr + uint64(done)
		lineAddr := a &^ (ls - 1)
		n := int(lineAddr + ls - a)
		if n > len(buf)-done {
			n = len(buf) - done
		}
		st := s.stripeOf(lineAddr)
		st.mu.Lock()
		if _, ok := st.cow[lineAddr]; !ok {
			cp := make([]byte, ls)
			if int(lineAddr) < len(s.nvm) {
				copy(cp, s.nvm[lineAddr:])
			}
			st.cow[lineAddr] = cp
		}
		copy(m.nvm[a:], buf[done:done+n])
		st.mu.Unlock()
		done += n
	}
}

// read copies size bytes at addr (which must not cross a line boundary)
// into out. Safe to call concurrently with the owner's mutations.
func (s *Snapshot) read(addr uint64, out []byte) {
	lineAddr := addr &^ (s.lineSz - 1)
	st := s.stripeOf(lineAddr)
	st.mu.Lock()
	if cp, ok := st.cow[lineAddr]; ok {
		copy(out, cp[addr-lineAddr:])
	} else if int(addr)+len(out) <= len(s.nvm) {
		// Reading the shared durable array is safe here: any write to this
		// line takes the same stripe mutex and inserts a COW entry first,
		// so a line reachable on this branch has not been written since
		// the snapshot began.
		copy(out, s.nvm[addr:])
	} else {
		for i := range out {
			out[i] = 0
		}
	}
	st.mu.Unlock()
}

// ReadU32 reads the frozen 32-bit value at a 4-aligned address.
func (s *Snapshot) ReadU32(addr uint64) uint32 {
	var b [4]byte
	s.read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// ReadU64 reads the frozen 64-bit value at an 8-aligned address.
func (s *Snapshot) ReadU64(addr uint64) uint64 {
	var b [8]byte
	s.read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}
