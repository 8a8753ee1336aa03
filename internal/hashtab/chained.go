package hashtab

import (
	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// chainedStore is the original CPU Lazy Persistency checksum table
// (§II-A, Fig. 3 left): buckets of linked lists, collisions handled by
// chaining new nodes. The paper explains why this design is feasible on
// CPUs ("since CPUs only [have] a small number of cores ... hash table
// insertion and chaining for handling collision are a feasible
// strategy") and why it is not on GPUs: pointer chasing and
// synchronization on shared entries. It is implemented here so the
// characterization can show exactly that (the cpulp experiment).
//
// Layout in device memory: a bucket array of head indices (0 = empty)
// and a node pool of [key, mod, par, next] records allocated with an
// atomic bump cursor. LockFree pushes nodes with compare-and-swap on the
// head; LockBased serializes insertions behind a table lock as the CPU
// implementation did.
type chainedStore struct {
	dev     *gpusim.Device
	heads   memsim.Region // uint64 per bucket: node index + 1, 0 = empty
	pool    memsim.Region // nodes: [key+1, mod, par, next] uint64s
	cursor  memsim.Region // uint64 bump allocator
	buckets int
	mask    int
	cap     int
	seed    uint64
	mode    LockMode
	lock    *gpusim.Lock
	stats   Stats
}

const chainNodeWords = 4

// chainPointerStall is the exposed latency of following one chain link:
// the next node's address depends on the previous load (§IV-C: chaining
// "requires pointer chasing").
const chainPointerStall = 240

func newChained(dev *gpusim.Device, name string, cfg Config) *chainedStore {
	// CPU-style sizing: buckets ≈ keys (load factor ~1 with chains).
	buckets := nextPow2(cfg.NumKeys)
	c := &chainedStore{
		dev:     dev,
		buckets: buckets,
		mask:    buckets - 1,
		cap:     cfg.NumKeys,
		seed:    cfg.Seed,
		mode:    cfg.LockMode,
	}
	c.heads = dev.Alloc(name+".heads", buckets*8)
	c.pool = dev.Alloc(name+".pool", cfg.NumKeys*chainNodeWords*8)
	c.cursor = dev.Alloc(name+".cursor", 8)
	c.Clear()
	if cfg.LockMode == LockBased {
		c.lock = dev.NewLock(name + ".lock")
	}
	return c
}

func (c *chainedStore) Kind() Kind    { return Chained }
func (c *chainedStore) Stats() *Stats { return &c.stats }
func (c *chainedStore) TableBytes() int64 {
	return int64(c.buckets)*8 + int64(c.cap)*chainNodeWords*8 + 8
}

// TableRegions implements Store.
func (c *chainedStore) TableRegions() []memsim.Region {
	return []memsim.Region{c.heads, c.pool, c.cursor}
}

// Clear durably empties buckets and the node pool cursor.
func (c *chainedStore) Clear() {
	c.heads.HostZero()
	c.pool.HostZero()
	c.cursor.HostZero()
}

func (c *chainedStore) bucketOf(key uint64) int {
	return int(mix64(key, c.seed)) & c.mask
}

// Insert implements Store: update the key's node in place when the chain
// already holds one (re-commits — later epochs, recovery re-execution —
// must not consume pool space), otherwise allocate a node from the pool
// and push it at the bucket head.
func (c *chainedStore) Insert(t *gpusim.Thread, key uint64, sum checksum.State) {
	st := &c.stats
	st.Inserts++
	if c.mode == LockBased {
		t.LockAcquire(c.lock)
		defer t.LockRelease(c.lock)
	}
	bucketIdx := c.bucketOf(key)
	t.Op(4)
	cur := t.LoadU64K(memsim.AccessChecksum, c.heads, bucketIdx)
	for depth := 0; cur != 0 && cur <= uint64(c.cap) && depth <= c.cap; depth++ {
		nb := int(cur-1) * chainNodeWords
		if t.LoadU64K(memsim.AccessChecksum, c.pool, nb) == PackKey(key) {
			t.StoreU64K(memsim.AccessChecksum, c.pool, nb+1, sum.Mod)
			t.StoreU64K(memsim.AccessChecksum, c.pool, nb+2, sum.Par)
			return
		}
		cur = t.LoadU64K(memsim.AccessChecksum, c.pool, nb+3)
		t.Stall(chainPointerStall)
	}
	node := t.AtomicAddU64(c.cursor, 0, 1)
	if node >= uint64(c.cap) {
		// Out of nodes: only reachable when the durable cursor is
		// corrupted (capacity covers one node per key). Drop the insert
		// — validation will flag the region and recovery escalation
		// rebuilds the store from a clean Clear().
		st.Overflows++
		return
	}
	base := int(node) * chainNodeWords
	t.StoreU64K(memsim.AccessChecksum, c.pool, base, PackKey(key))
	t.StoreU64K(memsim.AccessChecksum, c.pool, base+1, sum.Mod)
	t.StoreU64K(memsim.AccessChecksum, c.pool, base+2, sum.Par)
	bucket := bucketIdx
	st.Probes++

	if c.mode == LockFree {
		// CAS push: link to the current head, then swing the head.
		for {
			head := t.LoadU64K(memsim.AccessChecksum, c.heads, bucket)
			t.StoreU64K(memsim.AccessChecksum, c.pool, base+3, head)
			if t.AtomicCASU64(c.heads, bucket, head, node+1) == head {
				if head != 0 {
					st.Collisions++
				}
				return
			}
			st.Collisions++
			t.Stall(retryStallCycles)
		}
	}
	// Lock-based (or unsafely unsynchronized): plain head push.
	head := t.LoadU64K(memsim.AccessChecksum, c.heads, bucket)
	if head != 0 {
		st.Collisions++
	}
	t.StoreU64K(memsim.AccessChecksum, c.pool, base+3, head)
	t.StoreU64K(memsim.AccessChecksum, c.heads, bucket, node+1)
}

// Lookup implements Store: walk the chain, one dependent load per link.
// Corrupt links (node index past the pool) terminate the walk as "not
// found" rather than faulting — validation then reports the key failed.
func (c *chainedStore) Lookup(t *gpusim.Thread, key uint64) (checksum.State, bool) {
	c.stats.Lookups++
	bucket := c.bucketOf(key)
	t.Op(4)
	cur := t.LoadU64K(memsim.AccessChecksum, c.heads, bucket)
	for depth := 0; cur != 0 && cur <= uint64(c.cap) && depth <= c.cap; depth++ {
		base := int(cur-1) * chainNodeWords
		got := t.LoadU64K(memsim.AccessChecksum, c.pool, base)
		if got == PackKey(key) {
			mod := t.LoadU64K(memsim.AccessChecksum, c.pool, base+1)
			par := t.LoadU64K(memsim.AccessChecksum, c.pool, base+2)
			return checksum.State{Mod: mod, Par: par}, true
		}
		cur = t.LoadU64K(memsim.AccessChecksum, c.pool, base+3)
		t.Stall(chainPointerStall)
	}
	return checksum.State{}, false
}
