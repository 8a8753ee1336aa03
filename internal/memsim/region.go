package memsim

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Region is a named, line-aligned allocation in simulated global memory.
// Typed accessors index the region as an array of the named element type;
// Load*/Store* go through the cache as device traffic, Peek*/NVM* are
// host-side views, and HostWrite* pre-load durable input data.
type Region struct {
	mem  *Memory
	Name string
	Base uint64
	Size int
}

// Memory returns the Memory this region was allocated from.
func (r Region) Memory() *Memory { return r.mem }

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + uint64(r.Size) }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

func (r Region) addr(idx, elemSize int) uint64 {
	off := idx * elemSize
	if idx < 0 || off+elemSize > r.Size {
		panic(fmt.Sprintf("memsim: region %q index %d (elem %dB) out of range (size %dB)", r.Name, idx, elemSize, r.Size))
	}
	return r.Base + uint64(off)
}

// --- Device accesses (cached, counted) ---

// LoadU32 reads element idx as a uint32 through the cache.
func (r Region) LoadU32(kind AccessKind, idx int) (uint32, AccessResult) {
	b, res := r.mem.Load(kind, r.addr(idx, 4), 4)
	return binary.LittleEndian.Uint32(b), res
}

// StoreU32 writes element idx as a uint32 through the cache.
func (r Region) StoreU32(kind AccessKind, idx int, v uint32) AccessResult {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return r.mem.Store(kind, r.addr(idx, 4), buf[:])
}

// LoadU64 reads element idx as a uint64 through the cache.
func (r Region) LoadU64(kind AccessKind, idx int) (uint64, AccessResult) {
	b, res := r.mem.Load(kind, r.addr(idx, 8), 8)
	return binary.LittleEndian.Uint64(b), res
}

// StoreU64 writes element idx as a uint64 through the cache.
func (r Region) StoreU64(kind AccessKind, idx int, v uint64) AccessResult {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return r.mem.Store(kind, r.addr(idx, 8), buf[:])
}

// LoadF32 reads element idx as a float32 through the cache.
func (r Region) LoadF32(kind AccessKind, idx int) (float32, AccessResult) {
	b, res := r.mem.Load(kind, r.addr(idx, 4), 4)
	return f32FromBytes(b), res
}

// StoreF32 writes element idx as a float32 through the cache.
func (r Region) StoreF32(kind AccessKind, idx int, v float32) AccessResult {
	var buf [4]byte
	f32ToBytes(buf[:], v)
	return r.mem.Store(kind, r.addr(idx, 4), buf[:])
}

// LoadI32 reads element idx as an int32 through the cache.
func (r Region) LoadI32(kind AccessKind, idx int) (int32, AccessResult) {
	v, res := r.LoadU32(kind, idx)
	return int32(v), res
}

// StoreI32 writes element idx as an int32 through the cache.
func (r Region) StoreI32(kind AccessKind, idx int, v int32) AccessResult {
	return r.StoreU32(kind, idx, uint32(v))
}

// --- Host-side coherent views (no stats, no cache mutation) ---
//
// The single-element views are allocation-free: elements are naturally
// aligned, and an in-region address always lies inside the durable array
// (Alloc grows it to cover every region), so the word peeks never need
// PeekCoherent's array growth.

// PeekU32 returns the current logical uint32 at element idx.
func (r Region) PeekU32(idx int) uint32 {
	return r.mem.PeekCoherentU32(r.addr(idx, 4))
}

// PeekU64 returns the current logical uint64 at element idx.
func (r Region) PeekU64(idx int) uint64 {
	return r.mem.PeekCoherentU64(r.addr(idx, 8))
}

// PeekF32 returns the current logical float32 at element idx.
func (r Region) PeekF32(idx int) float32 {
	return math.Float32frombits(r.PeekU32(idx))
}

// PeekI32 returns the current logical int32 at element idx.
func (r Region) PeekI32(idx int) int32 { return int32(r.PeekU32(idx)) }

// PeekF32s returns the current logical value of the whole region as
// float32s (n elements from the start).
func (r Region) PeekF32s(n int) []float32 {
	raw := r.mem.PeekCoherent(r.Base, n*4)
	out := make([]float32, n)
	for i := range out {
		out[i] = f32FromBytes(raw[i*4:])
	}
	return out
}

// PeekI32s returns the current logical value of n int32 elements.
func (r Region) PeekI32s(n int) []int32 {
	raw := r.mem.PeekCoherent(r.Base, n*4)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

// --- Durable (post-crash) views ---

// NVMU32 returns the persisted uint32 at element idx.
func (r Region) NVMU32(idx int) uint32 {
	return binary.LittleEndian.Uint32(r.mem.PeekNVM(r.addr(idx, 4), 4))
}

// NVMU64 returns the persisted uint64 at element idx.
func (r Region) NVMU64(idx int) uint64 {
	return binary.LittleEndian.Uint64(r.mem.PeekNVM(r.addr(idx, 8), 8))
}

// NVMF32 returns the persisted float32 at element idx.
func (r Region) NVMF32(idx int) float32 {
	return f32FromBytes(r.mem.PeekNVM(r.addr(idx, 4), 4))
}

// --- Host initialization (direct to NVM, cache-invalidating) ---

// HostWriteF32s writes vals to the region starting at element 0, directly
// into NVM (persistent input data).
func (r Region) HostWriteF32s(vals []float32) {
	buf := make([]byte, len(vals)*4)
	for i, v := range vals {
		f32ToBytes(buf[i*4:], v)
	}
	r.boundsCheck(len(buf))
	r.mem.HostWrite(r.Base, buf)
}

// HostWriteI32s writes vals to the region starting at element 0.
func (r Region) HostWriteI32s(vals []int32) {
	buf := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
	}
	r.boundsCheck(len(buf))
	r.mem.HostWrite(r.Base, buf)
}

// HostWriteU64s writes vals to the region starting at element 0. It
// encodes into the Memory's staging buffer (see hostScratch), so a
// per-launch input write allocates nothing.
func (r Region) HostWriteU64s(vals []uint64) {
	r.boundsCheck(len(vals) * 8)
	buf := r.mem.hostScratch(len(vals) * 8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	r.mem.HostWrite(r.Base, buf)
}

// HostPutU64 durably writes one uint64 element (direct to NVM,
// invalidating any cached copy) — used to pre-populate persistent data
// structures element by element.
func (r Region) HostPutU64(idx int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	r.mem.HostWrite(r.addr(idx, 8), buf[:])
}

// HostZero zeroes the whole region durably, staging the zeros in the
// Memory's reused buffer (see HostWriteU64s).
func (r Region) HostZero() {
	buf := r.mem.hostScratch(r.Size)
	clear(buf)
	r.mem.HostWrite(r.Base, buf)
}

// HostFillU64 durably fills the region with a repeated uint64 pattern
// (e.g. a NaN-like sentinel for checksum tables). The region size must be
// a multiple of 8.
func (r Region) HostFillU64(v uint64) {
	if r.Size%8 != 0 {
		panic(fmt.Sprintf("memsim: HostFillU64 on region %q with size %d not a multiple of 8", r.Name, r.Size))
	}
	buf := make([]byte, r.Size)
	for off := 0; off < r.Size; off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], v)
	}
	r.mem.HostWrite(r.Base, buf)
}

// maxHostScratch bounds the staging buffer a Memory keeps. Per-launch
// staging (serving batches, epoch metadata truncation) fits well below
// it; a one-time set-up write of a large region gets a buffer that dies
// with the call instead of pinning its size for the Memory's lifetime.
const maxHostScratch = 64 << 10

// hostScratch returns an n-byte staging buffer for a host write, reused
// across calls up to maxHostScratch bytes. Its contents are only valid
// until the next call.
func (m *Memory) hostScratch(n int) []byte {
	if n > maxHostScratch {
		return make([]byte, n)
	}
	if cap(m.scratch) < n {
		m.scratch = make([]byte, n)
	}
	return m.scratch[:n]
}

func (r Region) boundsCheck(n int) {
	if n > r.Size {
		panic(fmt.Sprintf("memsim: host write of %dB overflows region %q (%dB)", n, r.Name, r.Size))
	}
}
