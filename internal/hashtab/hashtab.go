// Package hashtab implements the checksum stores explored by the Lazy
// Persistency on GPUs paper (§IV-C and §V): an open-addressing quadratic
// probing hash table, a two-table cuckoo hash table, and the paper's
// proposed hash-table-less global array. Each store lives in simulated
// GPU global memory (so its contents are subject to the same lazy
// persistency as the data it protects), supports a lock-free variant
// built on atomics, a lock-based variant, and — for the §IV-D.3 ablation
// — an unsafe variant with the atomics removed.
//
// A store maps a unique key (the LP region id, i.e. the thread block id)
// to a dual checksum. Insertion is on the critical path of normal
// execution; lookup happens only during crash recovery.
package hashtab

import (
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// Kind selects the checksum store organization.
type Kind int

const (
	// Quad is open addressing with (triangular) quadratic probing.
	Quad Kind = iota
	// Cuckoo is two-table cuckoo hashing with eviction chains.
	Cuckoo
	// GlobalArray is the paper's proposal (§V): one slot per thread
	// block, indexed directly by block id — collision-free, race-free,
	// 100% load factor.
	GlobalArray
	// Chained is the original CPU LP design (§II-A): buckets of linked
	// lists. Feasible at CPU core counts, pathological at GPU thread
	// counts — implemented for the characterization.
	Chained
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Quad:
		return "quad"
	case Cuckoo:
		return "cuckoo"
	case GlobalArray:
		return "global-array"
	case Chained:
		return "chained"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LockMode selects the synchronization discipline for insertions.
type LockMode int

const (
	// LockFree uses atomicCAS (quad) / atomicExch (cuckoo) per probe.
	LockFree LockMode = iota
	// LockBased serializes insertions behind a single table lock, as in
	// the CPU LP design the paper starts from.
	LockBased
	// NoAtomic replaces the atomics with plain check-then-act sequences
	// (§IV-D.3); races become retries, and each probe costs extra
	// verification traffic.
	NoAtomic
)

// String implements fmt.Stringer.
func (m LockMode) String() string {
	switch m {
	case LockFree:
		return "lock-free"
	case LockBased:
		return "lock-based"
	case NoAtomic:
		return "no-atomic"
	}
	return fmt.Sprintf("LockMode(%d)", int(m))
}

// Stats counts insertion behaviour; Collisions is the Table II metric
// (occupied slots encountered while inserting).
type Stats struct {
	Inserts    int64
	Lookups    int64
	Collisions int64
	Probes     int64
	MaxProbe   int64
	Rehashes   int64
	RaceRedos  int64
	// Overflows counts inserts dropped because the store ran out of
	// space — reachable only when its allocation state is corrupted
	// (e.g. a bit-flipped bump cursor), since capacity covers one node
	// per key. A dropped insert surfaces as a validation failure, which
	// recovery escalation repairs by rebuilding the store.
	Overflows int64
}

// Store is a checksum table in device global memory.
type Store interface {
	// Kind returns the organization of the store.
	Kind() Kind
	// Insert stores the checksum for key; called by one thread per LP
	// region at region end. key must be unique per region.
	Insert(t *gpusim.Thread, key uint64, sum checksum.State)
	// Lookup retrieves the durably stored checksum for key during crash
	// recovery. ok is false when the key is absent (its insertion never
	// persisted).
	Lookup(t *gpusim.Thread, key uint64) (sum checksum.State, ok bool)
	// ImageLookup is Lookup over a raw durable image (NVMImage or an
	// oracle shadow of it) through plain byte reads — no device, no
	// traffic, no stats. It must agree with Lookup run over the same
	// durable bytes; the crash-consistency checker holds the two paths
	// against each other.
	ImageLookup(img []byte, key uint64) (sum checksum.State, ok bool)
	// TableBytes is the global-memory footprint of the store, used for
	// the Table V space-overhead column.
	TableBytes() int64
	// TableRegions returns the global-memory allocations backing the
	// store, so fault-injection campaigns can target checksum-store
	// corruption directly.
	TableRegions() []memsim.Region
	// Stats returns the mutable statistics of the store.
	Stats() *Stats
	// Clear durably empties the store (host-side, between runs).
	Clear()
}

// Merger is implemented by stores that support accumulating partial
// checksums into a shared entry (required for fused LP regions, where
// several thread blocks contribute to one checksum). Only the global
// array supports it: hash tables would need claim-then-merge races that
// defeat their purpose.
type Merger interface {
	Store
	// MergeInsert folds a partial checksum into key's entry.
	MergeInsert(t *gpusim.Thread, key uint64, sum checksum.State)
	// LookupCount retrieves the merged checksum and contributor count.
	LookupCount(t *gpusim.Thread, key uint64) (checksum.State, uint64)
	// HostResetEntry durably re-initializes key's entry (recovery).
	HostResetEntry(key uint64)
}

// Config parameterizes store construction.
type Config struct {
	// Kind and LockMode choose the design point.
	Kind     Kind
	LockMode LockMode
	// NumKeys is the number of LP regions (thread blocks) the store
	// must hold; capacities are derived from it with each design's
	// load-factor rule (§IV-C: quad ≤ 70%, cuckoo ≤ 50%, array 100%).
	NumKeys int
	// PerfectSlot forces every first probe to land on an empty slot
	// (the §IV-D.2 "remove collision" experiment). Implemented by
	// direct-indexing while keeping the instruction sequence intact.
	PerfectSlot bool
	// Seed perturbs the hash functions.
	Seed uint64
	// QuadLoadPct overrides the quadratic-probing table's target load
	// factor in percent (default 70, the paper's limit). Used by the
	// load-factor ablation; capacities still round up to powers of two.
	QuadLoadPct int
	// MergeCount builds the global array with a third, contributor-count
	// word per entry, enabling MergeInsert for fused LP regions.
	MergeCount bool
}

// slotWords is the number of uint64 words per table slot:
// [key+1, modular checksum, parity checksum, reserved]. 32 bytes — one L2
// sector, so atomic conflicts resolve per slot.
const slotWords = 4

const slotBytes = slotWords * 8

// raceWindowCycles is how close (in cycles) two unsynchronized accesses to
// a slot must be for the NoAtomic variants to count a destructive race.
const raceWindowCycles = 400

// noAtomicStallCycles is the exposed latency of one emulated
// compare-and-swap: a load, a dependent store, and a dependent
// verification read-back form a chain of L2 round trips the warp
// scheduler cannot hide, unlike a single pipelined atomic (§IV-D.3 found
// removing atomics makes insertion dramatically slower).
const noAtomicStallCycles = 480

// retryStallCycles is the exposed latency of one additional probe after
// a collision: the next probe's address depends on the previous atomic's
// result, so the L2 round trip is on the critical path of the inserting
// thread.
const retryStallCycles = 240

// New builds a Store on dev per cfg. The table region is durably zeroed.
func New(dev *gpusim.Device, name string, cfg Config) Store {
	if cfg.NumKeys <= 0 {
		panic(fmt.Sprintf("hashtab: NumKeys must be positive, got %d", cfg.NumKeys))
	}
	switch cfg.Kind {
	case Quad:
		return newQuad(dev, name, cfg)
	case Cuckoo:
		return newCuckoo(dev, name, cfg)
	case GlobalArray:
		return newGlobalArray(dev, name, cfg)
	case Chained:
		return newChained(dev, name, cfg)
	}
	panic(fmt.Sprintf("hashtab: unknown kind %v", cfg.Kind))
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// mix64 is SplitMix64, a high-quality 64-bit mixer used as the hash
// function family (seeded).
func mix64(x, seed uint64) uint64 {
	x += 0x9e3779b97f4a7c15 + seed
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slotIO centralizes typed access to slot words in a table region.
type slotIO struct {
	region memsim.Region
	cap    int
}

func makeTable(dev *gpusim.Device, name string, capacity int) slotIO {
	r := dev.Alloc(name, capacity*slotBytes)
	r.HostZero()
	return slotIO{region: r, cap: capacity}
}

func (s slotIO) keyIdx(slot int) int { return slot * slotWords }
func (s slotIO) modIdx(slot int) int { return slot*slotWords + 1 }
func (s slotIO) parIdx(slot int) int { return slot*slotWords + 2 }

// storeChecksums writes the checksum payload of slot (plain stores,
// tagged as checksum traffic).
func (s slotIO) storeChecksums(t *gpusim.Thread, slot int, sum checksum.State) {
	t.StoreU64K(memsim.AccessChecksum, s.region, s.modIdx(slot), sum.Mod)
	t.StoreU64K(memsim.AccessChecksum, s.region, s.parIdx(slot), sum.Par)
}

// loadChecksums reads the checksum payload of slot.
func (s slotIO) loadChecksums(t *gpusim.Thread, slot int) checksum.State {
	mod := t.LoadU64K(memsim.AccessChecksum, s.region, s.modIdx(slot))
	par := t.LoadU64K(memsim.AccessChecksum, s.region, s.parIdx(slot))
	return checksum.State{Mod: mod, Par: par}
}

func (s slotIO) clear() { s.region.HostZero() }
