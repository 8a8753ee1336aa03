// Package memsim provides a byte-accurate simulation of a GPU global-memory
// hierarchy backed by non-volatile memory (NVM).
//
// The model is the one assumed by the Lazy Persistency paper (IISWC 2020,
// "Scalable and Fast Lazy Persistency on GPUs"): all device data lives in a
// flat global address space whose durable backing store is NVM, fronted by a
// write-back, write-allocate, set-associative cache (think of it as the L2).
// Stores dirty cache lines; lines reach the NVM only through natural
// eviction or an explicit whole-cache flush. A crash discards the cache, so
// the durable state after a crash is exactly the set of lines that happened
// to have been written back — which is the failure model Lazy Persistency
// is designed to detect and recover from.
//
// A Memory belongs to one goroutine: the GPU simulator that drives it runs
// thread blocks one at a time, and determinism is a feature (experiments
// are reproducible bit-for-bit). Use one Memory per simulated device.
// Every change to the durable array goes through mutateNVM, the one point
// the persist observer and the media model hook into.
package memsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Config describes the cache and NVM characteristics of a Memory.
type Config struct {
	// LineSize is the cache line (and NVM write) granularity in bytes.
	LineSize int
	// CacheBytes is the total capacity of the write-back cache.
	CacheBytes int
	// Ways is the set associativity of the cache.
	Ways int
	// NVMReadNS and NVMWriteNS are the NVM access latencies in
	// nanoseconds. They are bookkeeping only at this layer; the GPU
	// timing model converts them to cycles.
	NVMReadNS  float64
	NVMWriteNS float64
	// NVMBandwidthGBs is the sustainable NVM bandwidth in GB/s.
	NVMBandwidthGBs float64
	// Fault configures the online media-error model (see media.go). The
	// zero value disables the fault process.
	Fault FaultConfig
}

// DefaultConfig mirrors the NVM parameters used in §VII-3 of the paper
// (GPGPU-sim modeling a Titan V with NVM: 326.4 GB/s, 160 ns read,
// 480 ns write) with a 4 MiB, 16-way L2 of 128-byte lines.
func DefaultConfig() Config {
	return Config{
		LineSize:        128,
		CacheBytes:      4 << 20,
		Ways:            16,
		NVMReadNS:       160,
		NVMWriteNS:      480,
		NVMBandwidthGBs: 326.4,
	}
}

// AccessKind distinguishes the statistics buckets for device accesses.
type AccessKind int

const (
	// AccessData is an ordinary data load/store issued by kernel code.
	AccessData AccessKind = iota
	// AccessChecksum is a load/store that belongs to the Lazy
	// Persistency machinery (checksum table maintenance). Keeping it
	// separate lets the write-amplification experiment attribute every
	// extra NVM write to LP.
	AccessChecksum
	// AccessAtomic is an atomic read-modify-write.
	AccessAtomic
	// AccessLog is persistency-log traffic (the Eager Persistency
	// baseline's redo log), kept separate so its write amplification is
	// attributable.
	AccessLog
	numAccessKinds
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case AccessData:
		return "data"
	case AccessChecksum:
		return "checksum"
	case AccessAtomic:
		return "atomic"
	case AccessLog:
		return "log"
	}
	return fmt.Sprintf("AccessKind(%d)", int(k))
}

// AccessResult reports what a single device access did to the hierarchy,
// so the GPU timing model can charge cycles and bandwidth.
type AccessResult struct {
	// Hit is true when the access was serviced entirely from cache.
	Hit bool
	// LinesFetched is the number of lines read from NVM (fill).
	LinesFetched int
	// LinesWrittenBack is the number of dirty lines evicted to NVM to
	// make room.
	LinesWrittenBack int
}

// Bytes returns the number of bytes moved between cache and NVM.
func (r AccessResult) Bytes(lineSize int) int {
	return (r.LinesFetched + r.LinesWrittenBack) * lineSize
}

// Stats aggregates traffic counters for a Memory.
type Stats struct {
	// Loads and Stores count device accesses by kind.
	Loads  [numAccessKinds]int64
	Stores [numAccessKinds]int64
	// Hits and Misses count cache outcomes over all accesses.
	Hits   int64
	Misses int64
	// NVMLineReads and NVMLineWrites count line-granularity NVM traffic.
	NVMLineReads  int64
	NVMLineWrites int64
	// NVMWritesByRegion attributes NVM line write-backs to the
	// allocation whose address range contains the line. Keyed by
	// region name.
	NVMWritesByRegion map[string]int64
	// FlushedLines counts lines written back by explicit FlushAll calls
	// (checkpoints), separately from natural evictions.
	FlushedLines int64
}

// NVMBytesWritten returns total bytes written to NVM.
func (s *Stats) NVMBytesWritten(lineSize int) int64 {
	return s.NVMLineWrites * int64(lineSize)
}

// HitRate returns the cache hit rate over all accesses, or 0 when idle.
func (s *Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type line struct {
	tag   uint64 // line-aligned base address
	valid bool
	dirty bool
	lru   uint64
	data  []byte
}

type cacheSet struct {
	ways []line
}

// Memory is a simulated NVM-backed global memory with a write-back cache.
type Memory struct {
	cfg     Config
	nvm     []byte
	sets    []cacheSet
	numSets int
	lruTick uint64
	next    uint64 // allocation cursor
	regions []Region
	stats   Stats

	// lineShift is log2(LineSize). setMask is numSets-1 when setPow2 (the
	// set count is a power of two); otherwise setIndex falls back to %.
	lineShift uint
	setMask   uint64
	setPow2   bool

	// observer receives every durable-image mutation (see observe.go).
	observer func(PersistEvent)
	// plantDropNth/plantWBCount implement PlantDropWriteBack.
	plantDropNth int
	plantWBCount int
	// media is the online media-error model (see media.go); nil until the
	// fault process is enabled or a stuck-at cell is planted.
	media *mediaState
	// fences are the active write-fenced ranges (see fence.go); nil until
	// a fence is erected.
	fences []FencedRange

	// The dirty-set index (see dirty.go): per-set dirty-way counts, a
	// bitmap of the sets holding at least one dirty line, and the total.
	setDirty   []int32
	dirtySets  []uint64
	dirtyLines int
	// scratch is the staging buffer the Region host writers encode into
	// (HostWrite copies out of its argument and never retains it).
	scratch []byte
}

// New creates a Memory with the given configuration. A bad configuration
// returns a *ConfigError wrapping ErrConfig.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{
		cfg:       cfg,
		numSets:   cfg.CacheBytes / cfg.LineSize / cfg.Ways,
		next:      uint64(cfg.LineSize), // keep address 0 unused
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
	}
	if m.numSets&(m.numSets-1) == 0 {
		m.setMask, m.setPow2 = uint64(m.numSets-1), true
	}
	m.sets = make([]cacheSet, m.numSets)
	for i := range m.sets {
		m.sets[i].ways = make([]line, cfg.Ways)
	}
	m.setDirty = make([]int32, m.numSets)
	m.dirtySets = make([]uint64, (m.numSets+63)/64)
	if cfg.Fault.Enabled {
		m.media = newMediaState(cfg.Fault, cfg.LineSize)
	}
	return m, nil
}

// MustNew is New for configurations known to be valid (tests, defaults);
// it panics on a configuration error.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// LineSize returns the cache line size in bytes. Per-access callers use
// it (and NVMWriteNS) instead of copying the whole Config.
func (m *Memory) LineSize() int { return m.cfg.LineSize }

// NVMWriteNS returns the configured NVM write latency in nanoseconds.
func (m *Memory) NVMWriteNS() float64 { return m.cfg.NVMWriteNS }

// Stats returns a snapshot of the traffic counters.
func (m *Memory) Stats() Stats {
	s := m.stats
	s.NVMWritesByRegion = make(map[string]int64, len(m.stats.NVMWritesByRegion))
	for k, v := range m.stats.NVMWritesByRegion {
		s.NVMWritesByRegion[k] = v
	}
	return s
}

// ResetStats zeroes the traffic counters without touching memory contents.
func (m *Memory) ResetStats() {
	m.stats = Stats{}
}

// Alloc reserves size bytes of global memory under the given name and
// returns a Region handle. Allocations are line-aligned so write-back
// attribution per region is exact.
func (m *Memory) Alloc(name string, size int) Region {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: Alloc(%q) with non-positive size %d", name, size))
	}
	ls := uint64(m.cfg.LineSize)
	base := (m.next + ls - 1) &^ (ls - 1)
	end := base + uint64(size)
	m.next = (end + ls - 1) &^ (ls - 1)
	m.growNVM(int(m.next))
	r := Region{mem: m, Name: name, Base: base, Size: size}
	m.regions = append(m.regions, r)
	return r
}

// regionNameFor finds the allocation containing addr, for write-back
// attribution. Returns "(unattributed)" when no region matches.
func (m *Memory) regionNameFor(addr uint64) string {
	// Regions are allocated in increasing address order.
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].Base+uint64(m.regions[i].Size) > addr
	})
	if i < len(m.regions) && addr >= m.regions[i].Base {
		return m.regions[i].Name
	}
	return "(unattributed)"
}

func (m *Memory) setIndex(lineAddr uint64) int {
	n := lineAddr >> m.lineShift
	if m.setPow2 {
		return int(n & m.setMask)
	}
	return int(n % uint64(m.numSets))
}

// findLine returns the valid cached line for lineAddr, or nil. It touches
// neither the LRU state nor the statistics.
func (m *Memory) findLine(lineAddr uint64) *line {
	ways := m.sets[m.setIndex(lineAddr)].ways
	for i := range ways {
		if l := &ways[i]; l.tag == lineAddr && l.valid {
			return l
		}
	}
	return nil
}

// fillLine brings lineAddr into the cache (evicting LRU if needed) and
// returns the line plus the access cost.
func (m *Memory) fillLine(lineAddr uint64) (*line, AccessResult) {
	var res AccessResult
	set := &m.sets[m.setIndex(lineAddr)]
	// Choose invalid way first, else LRU.
	victim := &set.ways[0]
	for i := range set.ways {
		l := &set.ways[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	if victim.valid && victim.dirty {
		m.writeBack(victim)
		res.LinesWrittenBack++
	}
	if victim.data == nil {
		victim.data = make([]byte, m.cfg.LineSize)
	}
	m.ensureNVM(lineAddr)
	copy(victim.data, m.nvm[lineAddr:lineAddr+uint64(m.cfg.LineSize)])
	m.stats.NVMLineReads++
	res.LinesFetched++
	// The victim is clean here: an invalid way is never dirty, and a dirty
	// one was just written back.
	victim.tag = lineAddr
	victim.valid = true
	m.lruTick++
	victim.lru = m.lruTick
	return victim, res
}

// ensureNVM extends the durable array to cover the line at lineAddr.
func (m *Memory) ensureNVM(lineAddr uint64) {
	m.growNVM(int(lineAddr) + m.cfg.LineSize)
}

// growNVM extends the durable array to at least end bytes; the new bytes
// are zero. Every growth goes through here. append grows the capacity
// geometrically, so a run of allocations copies the image a logarithmic
// number of times, not once per allocation.
func (m *Memory) growNVM(end int) {
	if end > len(m.nvm) {
		m.nvm = append(m.nvm, make([]byte, end-len(m.nvm))...)
	}
}

// mutateNVM overwrites the durable array at addr with buf. It is the one
// place the durable image changes (growth only appends zeros): the
// persistbarrier analyzer rejects any other write to m.nvm, so every
// mutation stays next to the persist event its caller emits.
func (m *Memory) mutateNVM(addr uint64, buf []byte) {
	copy(m.nvm[addr:], buf)
}

func (m *Memory) writeBack(l *line) {
	m.ensureNVM(l.tag)
	data := l.data
	if m.media != nil {
		// The media model may perturb the bytes the cells capture; the
		// event carries the effective bytes so the durable oracle stays
		// exact, and l.data itself is never touched.
		data = m.mediaEffective(l.tag, l.data)
	}
	if !m.plantShouldDrop() {
		m.mutateNVM(l.tag, data)
	}
	m.notify(PersistEvent{Kind: EvWriteBack, Addr: l.tag, Data: data})
	m.stats.NVMLineWrites++
	if m.stats.NVMWritesByRegion == nil {
		m.stats.NVMWritesByRegion = make(map[string]int64)
	}
	m.stats.NVMWritesByRegion[m.regionNameFor(l.tag)]++
	m.markClean(l)
}

// access performs the cache maneuver for [addr, addr+size) and returns the
// line holding addr. size must not cross a line boundary. A hit marks the
// line most recently used.
func (m *Memory) access(addr uint64, size int) (*line, AccessResult) {
	lineAddr := addr &^ uint64(m.cfg.LineSize-1)
	if (addr+uint64(size)-1)&^uint64(m.cfg.LineSize-1) != lineAddr {
		panic(fmt.Sprintf("memsim: access at %#x size %d crosses a line boundary", addr, size))
	}
	l := m.findLine(lineAddr)
	if l == nil {
		m.stats.Misses++
		return m.fillLine(lineAddr)
	}
	m.lruTick++
	l.lru = m.lruTick
	m.stats.Hits++
	return l, AccessResult{Hit: true}
}

// Load reads size bytes at addr through the cache as a device access.
func (m *Memory) Load(kind AccessKind, addr uint64, size int) ([]byte, AccessResult) {
	m.stats.Loads[kind]++
	l, res := m.access(addr, size)
	off := addr - l.tag
	return l.data[off : off+uint64(size)], res
}

// Store writes buf at addr through the cache as a device access
// (write-allocate, write-back).
func (m *Memory) Store(kind AccessKind, addr uint64, buf []byte) AccessResult {
	if m.fences != nil {
		m.checkFence("device store", addr, len(buf), false)
	}
	m.stats.Stores[kind]++
	l, res := m.access(addr, len(buf))
	off := addr - l.tag
	copy(l.data[off:], buf)
	m.markDirty(l)
	return res
}

// Crash simulates a power failure: every cached line — including dirty
// lines that were never written back — is discarded. The durable contents
// afterwards are exactly the NVM image.
func (m *Memory) Crash() {
	m.forEachDirty(m.markClean)
	for i := range m.sets {
		for j := range m.sets[i].ways {
			m.sets[i].ways[j].valid = false
		}
	}
	m.notify(PersistEvent{Kind: EvCrash})
}

// FlushAddr writes the line containing addr back to NVM if it is cached
// and dirty (the clwb/clflushopt primitive Eager Persistency relies on),
// returning whether a write-back happened. The line stays cached.
func (m *Memory) FlushAddr(addr uint64) bool {
	l := m.findLine(addr &^ uint64(m.cfg.LineSize-1))
	if l == nil || !l.dirty {
		return false
	}
	m.writeBack(l)
	return true
}

// FlushAll writes every dirty line back to NVM and leaves the lines clean
// (a whole-cache flush, i.e. the checkpoint boundary from §IV-A). It
// returns the number of lines flushed. Its host cost follows the dirty
// lines, not the cache size; the write-back order is set-major, way-minor.
func (m *Memory) FlushAll() int {
	n := 0
	m.forEachDirty(func(l *line) {
		m.writeBack(l)
		m.stats.FlushedLines++
		n++
	})
	return n
}

// DirtyLines returns the number of dirty (unpersisted) lines in the cache.
func (m *Memory) DirtyLines() int { return m.dirtyLines }

// PeekCoherent reads the current logical value of [addr, addr+size) —
// cache contents if present, NVM otherwise — without touching statistics
// or cache state. It is a host-side debugging view.
func (m *Memory) PeekCoherent(addr uint64, size int) []byte {
	out := make([]byte, size)
	ls := uint64(m.cfg.LineSize)
	for done := 0; done < size; {
		a := addr + uint64(done)
		lineAddr := a &^ (ls - 1)
		off := a - lineAddr
		n := int(ls - off)
		if n > size-done {
			n = size - done
		}
		if l := m.findLine(lineAddr); l != nil {
			copy(out[done:done+n], l.data[off:])
		} else {
			m.ensureNVM(lineAddr)
			copy(out[done:done+n], m.nvm[a:])
		}
		done += n
	}
	return out
}

// PeekCoherentU32 reads the current logical 32-bit value at addr without
// touching statistics, cache state, or the heap. addr must be 4-aligned.
// It is the primitive behind the allocation-free Region.PeekU32 view.
func (m *Memory) PeekCoherentU32(addr uint64) uint32 {
	lineAddr := addr &^ uint64(m.cfg.LineSize-1)
	if l := m.findLine(lineAddr); l != nil {
		return binary.LittleEndian.Uint32(l.data[addr-lineAddr:])
	}
	if int(addr)+4 > len(m.nvm) {
		return 0
	}
	return binary.LittleEndian.Uint32(m.nvm[addr:])
}

// PeekCoherentU64 is PeekCoherentU32 for an 8-aligned 64-bit word.
func (m *Memory) PeekCoherentU64(addr uint64) uint64 {
	lineAddr := addr &^ uint64(m.cfg.LineSize-1)
	if l := m.findLine(lineAddr); l != nil {
		return binary.LittleEndian.Uint64(l.data[addr-lineAddr:])
	}
	if int(addr)+8 > len(m.nvm) {
		return 0
	}
	return binary.LittleEndian.Uint64(m.nvm[addr:])
}

// NVMImage returns a copy of the full durable image — what a post-crash
// reader would see across every allocation. Determinism tests compare
// these images bit-for-bit across repeated runs.
func (m *Memory) NVMImage() []byte {
	out := make([]byte, len(m.nvm))
	copy(out, m.nvm)
	return out
}

// PeekNVM reads the durable (persisted) value of [addr, addr+size),
// ignoring any cached copy. This is what a post-crash reader would see.
func (m *Memory) PeekNVM(addr uint64, size int) []byte {
	end := int(addr) + size
	if end > len(m.nvm) {
		m.ensureNVM(uint64(end-1) &^ uint64(m.cfg.LineSize-1))
	}
	out := make([]byte, size)
	copy(out, m.nvm[addr:end])
	return out
}

// HostWrite writes buf directly to NVM at addr, invalidating any cached
// copy. It models pre-loading persistent input data (cudaMemcpy to a
// persistent heap before kernel launch) and is not counted as device
// traffic.
func (m *Memory) HostWrite(addr uint64, buf []byte) {
	if m.fences != nil {
		m.checkFence("host write", addr, len(buf), true)
	}
	end := int(addr) + len(buf)
	if end > len(m.nvm) {
		m.ensureNVM(uint64(end-1) &^ uint64(m.cfg.LineSize-1))
	}
	data := m.mediaHostEffective(addr, buf)
	m.mutateNVM(addr, data)
	m.notify(PersistEvent{Kind: EvHostWrite, Addr: addr, Data: data})
	ls := uint64(m.cfg.LineSize)
	first := addr &^ (ls - 1)
	last := (addr + uint64(len(buf)) - 1) &^ (ls - 1)
	for la := first; la <= last; la += ls {
		if l := m.findLine(la); l != nil {
			m.markClean(l)
			l.valid = false
		}
	}
}

// Float32Bits helpers shared by typed region views.

func f32FromBytes(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func f32ToBytes(dst []byte, v float32) {
	binary.LittleEndian.PutUint32(dst, math.Float32bits(v))
}
