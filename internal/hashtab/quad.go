package hashtab

import (
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// quadStore is an open-addressing table with triangular quadratic probing
// (probe i lands at h + i(i+1)/2, which visits every slot of a
// power-of-two table). Capacity is sized for a ≤70% load factor, the
// limit the paper quotes for quadratic probing (§IV-C).
type quadStore struct {
	dev   *gpusim.Device
	tab   slotIO
	mask  int
	seed  uint64
	mode  LockMode
	lock  *gpusim.Lock
	perf  bool
	stats Stats
}

func newQuad(dev *gpusim.Device, name string, cfg Config) *quadStore {
	loadPct := cfg.QuadLoadPct
	if loadPct <= 0 || loadPct > 100 {
		loadPct = 70 // the paper's quadratic-probing limit (§IV-C)
	}
	capacity := nextPow2(cfg.NumKeys*100/loadPct + 1)
	q := &quadStore{
		dev:  dev,
		tab:  makeTable(dev, name, capacity),
		mask: capacity - 1,
		seed: cfg.Seed,
		mode: cfg.LockMode,
		perf: cfg.PerfectSlot,
	}
	if cfg.LockMode == LockBased {
		q.lock = dev.NewLock(name + ".lock")
	}
	return q
}

func (q *quadStore) Kind() Kind        { return Quad }
func (q *quadStore) Stats() *Stats     { return &q.stats }
func (q *quadStore) TableBytes() int64 { return int64(q.tab.cap) * slotBytes }

// TableRegions implements Store.
func (q *quadStore) TableRegions() []memsim.Region { return []memsim.Region{q.tab.region} }
func (q *quadStore) Clear()                        { q.tab.clear() }

func (q *quadStore) home(key uint64) int {
	if q.perf {
		// §IV-D.2 experiment: the first probed entry is always empty.
		return int(key) & q.mask
	}
	return int(mix64(key, q.seed)) & q.mask
}

// slotAt returns the i-th probe position for key.
func (q *quadStore) slotAt(home, i int) int {
	return (home + i*(i+1)/2) & q.mask
}

// Insert implements Store.
func (q *quadStore) Insert(t *gpusim.Thread, key uint64, sum checksum.State) {
	q.stats.Inserts++
	switch q.mode {
	case LockBased:
		t.LockAcquire(q.lock)
		defer t.LockRelease(q.lock)
		q.insertPlain(t, key, sum, false)
	case NoAtomic:
		q.insertPlain(t, key, sum, true)
	default:
		q.insertCAS(t, key, sum)
	}
}

func (q *quadStore) insertCAS(t *gpusim.Thread, key uint64, sum checksum.State) {
	st := &q.stats
	home := q.home(key)
	for i := 0; i <= q.tab.cap; i++ {
		slot := q.slotAt(home, i)
		t.Op(2) // probe index arithmetic
		st.Probes++
		old := t.AtomicCASU64(q.tab.region, q.tab.keyIdx(slot), 0, PackKey(key))
		if old == 0 || old == PackKey(key) {
			q.tab.storeChecksums(t, slot, sum)
			q.noteProbeDepth(st, int64(i))
			return
		}
		st.Collisions++
		// The next probe's address depends on this CAS's result: a full
		// round trip is exposed on the inserting thread.
		t.Stall(retryStallCycles)
	}
	panic(fmt.Sprintf("hashtab: quad table full inserting key %d (cap %d)", key, q.tab.cap))
}

// insertPlain probes with ordinary loads and claims with ordinary stores.
// Under LockBased the table lock makes this safe; under NoAtomic the
// check-then-act races with concurrent inserters, which the simulator
// surfaces deterministically via RacyTouch — a detected race is a lost
// update the thread must redo at the next probe position, and every probe
// pays an extra verification load (§IV-D.3 found this costs far more than
// the atomics it saves).
func (q *quadStore) insertPlain(t *gpusim.Thread, key uint64, sum checksum.State, racy bool) {
	st := &q.stats
	home := q.home(key)
	for i := 0; i <= q.tab.cap; i++ {
		slot := q.slotAt(home, i)
		t.Op(2)
		st.Probes++
		old := t.LoadU64K(memsim.AccessChecksum, q.tab.region, q.tab.keyIdx(slot))
		if old != 0 && old != PackKey(key) {
			st.Collisions++
			continue
		}
		if racy {
			t.Stall(noAtomicStallCycles)
			// Even unsynchronized, the read-check-write-verify sequence
			// serializes at the L2 partition three times over.
			t.SerializeOn(q.tab.region, q.tab.keyIdx(slot)*8)
			t.SerializeOn(q.tab.region, q.tab.keyIdx(slot)*8)
			t.SerializeOn(q.tab.region, q.tab.keyIdx(slot)*8)
			raced := t.RacyTouch(q.tab.region, q.tab.keyIdx(slot)*8, raceWindowCycles)
			t.StoreU64K(memsim.AccessChecksum, q.tab.region, q.tab.keyIdx(slot), PackKey(key))
			// Verification read-back: without atomics, the only way to
			// learn whether our claim survived.
			_ = t.LoadU64K(memsim.AccessChecksum, q.tab.region, q.tab.keyIdx(slot))
			t.Op(2)
			if raced {
				// Our claim was clobbered by a concurrent inserter:
				// undo it and move to the next probe position.
				t.StoreU64K(memsim.AccessChecksum, q.tab.region, q.tab.keyIdx(slot), old)
				st.RaceRedos++
				st.Collisions++
				continue
			}
		} else {
			t.StoreU64K(memsim.AccessChecksum, q.tab.region, q.tab.keyIdx(slot), PackKey(key))
		}
		q.tab.storeChecksums(t, slot, sum)
		q.noteProbeDepth(st, int64(i))
		return
	}
	panic(fmt.Sprintf("hashtab: quad table full inserting key %d (cap %d)", key, q.tab.cap))
}

func (q *quadStore) noteProbeDepth(st *Stats, i int64) {
	if i > st.MaxProbe {
		st.MaxProbe = i
	}
}

// Lookup implements Store. Lookups are off the critical path (crash
// recovery only).
func (q *quadStore) Lookup(t *gpusim.Thread, key uint64) (checksum.State, bool) {
	q.stats.Lookups++
	home := q.home(key)
	for i := 0; i <= q.tab.cap; i++ {
		slot := q.slotAt(home, i)
		t.Op(2)
		got := t.LoadU64K(memsim.AccessChecksum, q.tab.region, q.tab.keyIdx(slot))
		switch got {
		case PackKey(key):
			return q.tab.loadChecksums(t, slot), true
		case 0:
			return checksum.State{}, false
		}
	}
	return checksum.State{}, false
}
