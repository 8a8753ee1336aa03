package hashtab

import (
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// globalArray is the paper's hash-table-less checksum store (§V): one
// entry per thread block, indexed directly by block id. Because every LP
// region owns a distinct entry, the design is collision-free and
// race-free by construction — no atomics, no locks, no probing — and
// runs at a 100% load factor, the minimum possible space.
//
// In merge-count mode (region fusion, §IV-A) an entry is shared by a
// group of blocks that each fold a partial checksum into it with atomic
// add/xor; a third word counts contributors so validation can tell a
// fully-merged entry from a partially-persisted one (or from all-zero
// data over a zeroed entry).
type globalArray struct {
	region memsim.Region
	nKeys  int
	merge  bool
	stats  Stats
}

// gaWords is the plain entry size in uint64 words: [modular, parity].
// Merge-count mode adds a third word: [modular, parity, contributors].
const gaWords = 2

const gaMergeWords = 3

// gaSentinel is the initialization value of every plain-mode entry word —
// the "checksum initialized to NaN" of §II-A. Without it, a block whose
// data and checksum both failed to persist over zero-initialized memory
// would recompute {0,0} and falsely validate against the zeroed entry.
// Merge-count mode instead zero-initializes (the identity for add/xor)
// and relies on the contributor count for the same protection.
const gaSentinel = ^uint64(0)

func newGlobalArray(dev *gpusim.Device, name string, cfg Config) *globalArray {
	words := gaWords
	if cfg.MergeCount {
		words = gaMergeWords
	}
	r := dev.Alloc(name, cfg.NumKeys*words*8)
	g := &globalArray{region: r, nKeys: cfg.NumKeys, merge: cfg.MergeCount}
	g.Clear()
	return g
}

func (g *globalArray) words() int {
	if g.merge {
		return gaMergeWords
	}
	return gaWords
}

func (g *globalArray) Kind() Kind        { return GlobalArray }
func (g *globalArray) Stats() *Stats     { return &g.stats }
func (g *globalArray) TableBytes() int64 { return int64(g.nKeys) * int64(g.words()) * 8 }

// TableRegions implements Store.
func (g *globalArray) TableRegions() []memsim.Region { return []memsim.Region{g.region} }

// Clear durably re-initializes the table.
func (g *globalArray) Clear() {
	if g.merge {
		g.region.HostZero()
	} else {
		g.region.HostFillU64(gaSentinel)
	}
}

func (g *globalArray) check(key uint64) {
	if key >= uint64(g.nKeys) {
		panic(fmt.Sprintf("hashtab: global array key %d out of range [0,%d)", key, g.nKeys))
	}
}

// Insert implements Store: two plain stores to the block's own entry.
func (g *globalArray) Insert(t *gpusim.Thread, key uint64, sum checksum.State) {
	g.check(key)
	g.stats.Inserts++
	g.stats.Probes++
	t.Op(1) // index arithmetic
	w := g.words()
	t.StoreU64K(memsim.AccessChecksum, g.region, int(key)*w, sum.Mod)
	t.StoreU64K(memsim.AccessChecksum, g.region, int(key)*w+1, sum.Par)
	if g.merge {
		t.StoreU64K(memsim.AccessChecksum, g.region, int(key)*w+2, 1)
	}
}

// MergeInsert folds a partial checksum into key's entry instead of
// overwriting it — the primitive behind region fusion (§IV-A: thread
// blocks "can be enlarged if needed, e.g. through thread block fusion"),
// where several blocks share one LP region and each contributes its
// partial checksums with atomic add/xor. Both checksum components are
// commutative, so contribution order is irrelevant; the contributor
// count lets validation require exactly groupSize contributions.
func (g *globalArray) MergeInsert(t *gpusim.Thread, key uint64, sum checksum.State) {
	if !g.merge {
		panic("hashtab: MergeInsert on a global array built without MergeCount")
	}
	g.check(key)
	g.stats.Inserts++
	g.stats.Probes++
	t.Op(1)
	t.AtomicAddU64(g.region, int(key)*gaMergeWords, sum.Mod)
	t.AtomicXorU64(g.region, int(key)*gaMergeWords+1, sum.Par)
	t.AtomicAddU64(g.region, int(key)*gaMergeWords+2, 1)
}

// LookupCount retrieves the merged checksum and the contributor count.
func (g *globalArray) LookupCount(t *gpusim.Thread, key uint64) (checksum.State, uint64) {
	if !g.merge {
		panic("hashtab: LookupCount on a global array built without MergeCount")
	}
	g.check(key)
	g.stats.Lookups++
	t.Op(1)
	mod := t.LoadU64K(memsim.AccessChecksum, g.region, int(key)*gaMergeWords)
	par := t.LoadU64K(memsim.AccessChecksum, g.region, int(key)*gaMergeWords+1)
	count := t.LoadU64K(memsim.AccessChecksum, g.region, int(key)*gaMergeWords+2)
	return checksum.State{Mod: mod, Par: par}, count
}

// HostResetEntry durably re-initializes key's entry. Recovery of a fused
// region must reset its entry before the member blocks re-execute and
// re-merge their contributions.
func (g *globalArray) HostResetEntry(key uint64) {
	g.check(key)
	w := g.words()
	init := gaSentinel
	if g.merge {
		init = 0
	}
	for i := 0; i < w; i++ {
		g.region.HostPutU64(int(key)*w+i, init)
	}
}

// Lookup implements Store. In plain mode, an entry still holding the
// initialization sentinel means the block's checksum store never
// persisted (ok=false); any other stale contents simply fail the
// caller's checksum comparison, exactly as in the paper's recovery flow.
// In merge-count mode, ok requires a nonzero contributor count.
func (g *globalArray) Lookup(t *gpusim.Thread, key uint64) (checksum.State, bool) {
	g.check(key)
	if g.merge {
		st, count := g.LookupCount(t, key)
		return st, count > 0
	}
	g.stats.Lookups++
	t.Op(1)
	mod := t.LoadU64K(memsim.AccessChecksum, g.region, int(key)*gaWords)
	par := t.LoadU64K(memsim.AccessChecksum, g.region, int(key)*gaWords+1)
	if mod == gaSentinel && par == gaSentinel {
		return checksum.State{}, false
	}
	return checksum.State{Mod: mod, Par: par}, true
}
