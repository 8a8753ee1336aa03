package hashtab

import (
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// cuckooStore is standard two-table cuckoo hashing (Fig. 4): every key has
// one candidate slot per table; insertion evicts the incumbent and
// relocates it to its slot in the other table, chaining until an empty
// slot is found. Detected cycles trigger a rehash with fresh hash
// functions. Each table is sized to the key count, keeping the aggregate
// load factor at ≤50% as the paper requires (§IV-C).
type cuckooStore struct {
	dev   *gpusim.Device
	tabs  [2]slotIO
	mask  int
	seeds [2]uint64
	epoch uint64 // bumped per rehash to derive new hash functions
	mode  LockMode
	lock  *gpusim.Lock
	perf  bool
	stats Stats
	nKeys int
}

const maxKicks = 64

func newCuckoo(dev *gpusim.Device, name string, cfg Config) *cuckooStore {
	capacity := nextPow2(cfg.NumKeys*5/4 + 1) // aggregate load factor <= 40%
	c := &cuckooStore{
		dev:   dev,
		mask:  capacity - 1,
		mode:  cfg.LockMode,
		perf:  cfg.PerfectSlot,
		nKeys: cfg.NumKeys,
	}
	c.tabs[0] = makeTable(dev, name+".t1", capacity)
	c.tabs[1] = makeTable(dev, name+".t2", capacity)
	c.setSeeds(cfg.Seed, 0)
	if cfg.LockMode == LockBased {
		c.lock = dev.NewLock(name + ".lock")
	}
	return c
}

func (c *cuckooStore) setSeeds(base, epoch uint64) {
	c.epoch = epoch
	c.seeds[0] = mix64(base, 0x5bf0_3635+epoch)
	c.seeds[1] = mix64(base, 0xc2b2_ae35+epoch*2654435761)
}

func (c *cuckooStore) Kind() Kind        { return Cuckoo }
func (c *cuckooStore) Stats() *Stats     { return &c.stats }
func (c *cuckooStore) TableBytes() int64 { return 2 * int64(c.tabs[0].cap) * slotBytes }

// TableRegions implements Store.
func (c *cuckooStore) TableRegions() []memsim.Region {
	return []memsim.Region{c.tabs[0].region, c.tabs[1].region}
}
func (c *cuckooStore) Clear() {
	c.tabs[0].clear()
	c.tabs[1].clear()
}

func (c *cuckooStore) slotFor(key uint64, table int) int {
	if c.perf {
		// §IV-D.2: first lookup during insertion always finds an empty
		// entry — direct indexing is collision-free for unique keys.
		return int(key) & c.mask
	}
	return int(mix64(key, c.seeds[table])) & c.mask
}

// Insert implements Store.
func (c *cuckooStore) Insert(t *gpusim.Thread, key uint64, sum checksum.State) {
	c.stats.Inserts++
	if c.mode == LockBased {
		t.LockAcquire(c.lock)
		defer t.LockRelease(c.lock)
	}
	c.insert(t, key, sum)
}

func (c *cuckooStore) insert(t *gpusim.Thread, key uint64, sum checksum.State) {
	st := &c.stats
	curKey, curSum := PackKey(key), sum
	table := 0
	for kick := 0; kick < maxKicks; kick++ {
		slot := c.slotFor(curKey-1, table)
		tab := c.tabs[table]
		t.Op(2)
		st.Probes++

		var oldKey uint64
		switch c.mode {
		case NoAtomic:
			// Swap through a temporary instead of atomicExch: a load, a
			// store, and a verification read-back; a concurrent insertion
			// into the same slot loses one of the two updates, detected
			// deterministically via RacyTouch and redone (§IV-D.3).
			t.Stall(noAtomicStallCycles)
			// Even unsynchronized, the swap-through-temporary sequence
			// serializes at the L2 partition three times over.
			t.SerializeOn(tab.region, tab.keyIdx(slot)*8)
			t.SerializeOn(tab.region, tab.keyIdx(slot)*8)
			t.SerializeOn(tab.region, tab.keyIdx(slot)*8)
			raced := t.RacyTouch(tab.region, tab.keyIdx(slot)*8, raceWindowCycles)
			oldKey = t.LoadU64K(memsim.AccessChecksum, tab.region, tab.keyIdx(slot))
			t.StoreU64K(memsim.AccessChecksum, tab.region, tab.keyIdx(slot), curKey)
			_ = t.LoadU64K(memsim.AccessChecksum, tab.region, tab.keyIdx(slot))
			t.Op(2)
			if raced {
				// Our exchange was clobbered: put the incumbent back and
				// retry the same position.
				t.StoreU64K(memsim.AccessChecksum, tab.region, tab.keyIdx(slot), oldKey)
				st.RaceRedos++
				st.Collisions++
				continue
			}
		default:
			oldKey = t.AtomicExchU64(tab.region, tab.keyIdx(slot), curKey)
		}

		if oldKey == 0 || oldKey == curKey {
			tab.storeChecksums(t, slot, curSum)
			c.noteProbeDepth(st, int64(kick))
			return
		}
		// Displaced an incumbent: read its payload before overwriting,
		// write ours, and relocate the incumbent to the other table.
		// Each hop of the eviction chain depends on the previous
		// exchange's result, exposing a round trip per kick.
		st.Collisions++
		t.Stall(retryStallCycles)
		oldSum := tab.loadChecksums(t, slot)
		tab.storeChecksums(t, slot, curSum)
		curKey, curSum = oldKey, oldSum
		table ^= 1
	}
	// Eviction cycle: rehash with new functions and retry (§IV-C).
	c.rehash(t)
	c.insert(t, curKey-1, curSum)
}

// rehash rebuilds both tables with fresh hash functions, reinserting every
// resident entry. All traffic is charged to the calling thread, as the
// rehash runs on-device in the paper's design.
func (c *cuckooStore) rehash(t *gpusim.Thread) {
	c.stats.Rehashes++
	if c.stats.Rehashes > 64 {
		panic(fmt.Sprintf("hashtab: cuckoo rehash storm (%d keys, cap %d per table)", c.nKeys, c.tabs[0].cap))
	}
	type entry struct {
		key uint64
		sum checksum.State
	}
	var entries []entry
	for ti := 0; ti < 2; ti++ {
		tab := c.tabs[ti]
		for slot := 0; slot < tab.cap; slot++ {
			k := t.LoadU64K(memsim.AccessChecksum, tab.region, tab.keyIdx(slot))
			if k != 0 {
				entries = append(entries, entry{k, tab.loadChecksums(t, slot)})
				t.StoreU64K(memsim.AccessChecksum, tab.region, tab.keyIdx(slot), 0)
			}
		}
	}
	c.setSeeds(c.seeds[0], c.epoch+1)
	for _, e := range entries {
		c.insert(t, e.key-1, e.sum)
	}
}

func (c *cuckooStore) noteProbeDepth(st *Stats, i int64) {
	if i > st.MaxProbe {
		st.MaxProbe = i
	}
}

// Lookup implements Store: at most one probe per table (the constant-time
// lookup that makes cuckoo attractive, §IV-C).
func (c *cuckooStore) Lookup(t *gpusim.Thread, key uint64) (checksum.State, bool) {
	c.stats.Lookups++
	for table := 0; table < 2; table++ {
		slot := c.slotFor(key, table)
		tab := c.tabs[table]
		t.Op(2)
		if got := t.LoadU64K(memsim.AccessChecksum, tab.region, tab.keyIdx(slot)); got == PackKey(key) {
			return tab.loadChecksums(t, slot), true
		}
	}
	return checksum.State{}, false
}
