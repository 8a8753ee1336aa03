package kernels

import (
	"fmt"
	"slices"
	"strings"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/megakv"
	"gpulp/internal/memsim"
)

// megakvWork wraps the MEGA-KV key-value store (§VII-4) as batched
// workloads, one thread per op and one LP region per thread block. Every
// batch runs the same body over a four-slot op pattern: op i is
// pattern[i%4] (see megakvPatterns).
//
// Checksum discipline per slot:
//   - search: the value found (0 if absent) is written to a persistent
//     results array, which is checksummed and validated like any kernel
//     output.
//   - insert: fold key⊕value after the insert; validation re-searches
//     the key and folds what it finds, so a lost index update mismatches.
//   - delete: fold the key after deletion; validation folds the key only
//     if it is absent, so a lost tombstone mismatches.
type megakvWork struct {
	name    string // "megakv-" + the batch (see megakvPatterns)
	pattern [4]kvOp
	nOps    int

	store   *megakv.Store
	keys    memsim.Region // uint64 per op (stored as 2 u32 words each)
	vals    memsim.Region
	results memsim.Region // search slots: uint64 value found (0 if absent)

	keyList []uint64
	valList []uint64
}

// kvOp is the operation of one batch slot.
type kvOp int

const (
	searchHit   kvOp = iota // search a key the setup inserted
	searchMiss              // search a key the setup left out
	insertFresh             // insert a key the setup left out
	deleteHit               // delete a key the setup inserted
)

// megakvPatterns gives each batch its four-slot op pattern: the paper's
// separate search, insert and delete batches (a search batch misses one
// key in four), and a realistic mix of 50% searches, 25% inserts of
// fresh keys and 25% deletes.
var megakvPatterns = map[string][4]kvOp{
	"megakv-search": {searchHit, searchHit, searchHit, searchMiss},
	"megakv-insert": {insertFresh, insertFresh, insertFresh, insertFresh},
	"megakv-delete": {deleteHit, deleteHit, deleteHit, deleteHit},
	"megakv-mixed":  {searchHit, searchHit, insertFresh, deleteHit},
}

const megakvBlockThreads = 128

// deleteMissMarker is folded when validation finds a supposedly deleted
// key still present, or an inserted key missing.
const deleteMissMarker = 0xBAD0BAD0

func newMegaKV(name string, pattern [4]kvOp, scale int) *megakvWork {
	// 16K records per batch, the workload size of §VII-4.
	return &megakvWork{name: name, pattern: pattern, nOps: 16384 * scale}
}

func (w *megakvWork) Name() string { return w.name }

// slot returns the operation of op i.
func (w *megakvWork) slot(i int) kvOp { return w.pattern[i%4] }

// has reports whether some slot of the batch runs one of ops.
func (w *megakvWork) has(ops ...kvOp) bool {
	for _, op := range w.pattern {
		if slices.Contains(ops, op) {
			return true
		}
	}
	return false
}

func (w *megakvWork) Info() Info {
	batch := strings.TrimPrefix(w.name, "megakv-")
	return Info{
		Description: "MEGA-KV in-memory key-value store, batched " + batch,
		Suite:       "[12]",
		Bottleneck:  "unknown",
		Input:       fmt.Sprintf("%s %d records", batch, w.nOps),
	}
}

func (w *megakvWork) Geometry() (gpusim.Dim3, gpusim.Dim3) {
	return gpusim.D1(w.nOps / megakvBlockThreads), gpusim.D1(megakvBlockThreads)
}

// Setup draws distinct keys and their values, and pre-populates the
// index with the keys that search-hit and delete slots target; insert
// slots bring fresh keys.
func (w *megakvWork) Setup(dev *gpusim.Device) {
	w.store = megakv.NewStore(dev, w.nOps)
	w.keys = dev.Alloc("megakv.keys", w.nOps*8)
	w.vals = dev.Alloc("megakv.vals", w.nOps*8)
	w.results = dev.Alloc("megakv.results", w.nOps*8)

	rng := newPrng(0x33e6)
	w.keyList = make([]uint64, w.nOps)
	w.valList = make([]uint64, w.nOps)
	seen := make(map[uint64]bool, w.nOps)
	for i := range w.keyList {
		k := rng.next()
		for k == 0 || k == megakv.Tombstone || seen[k] {
			k = rng.next()
		}
		seen[k] = true
		w.keyList[i] = k
		w.valList[i] = rng.next()
	}
	w.keys.HostWriteU64s(w.keyList)
	w.vals.HostWriteU64s(w.valList)
	w.results.HostZero()

	for i, k := range w.keyList {
		if op := w.slot(i); op == searchHit || op == deleteHit {
			w.store.HostInsert(k, w.valList[i])
		}
	}
}

func (w *megakvWork) Kernel(lp *core.LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			i := t.GlobalLinear()
			key := t.LoadU64(w.keys, i)
			switch w.slot(i) {
			case searchHit, searchMiss:
				val, _ := w.store.Search(t, key)
				t.StoreU64(w.results, i, val)
				r.Update(t, uint32(val)^uint32(val>>32))
			case insertFresh:
				val := t.LoadU64(w.vals, i)
				if !w.store.Insert(t, key, val) {
					panic("megakv: bucket overflow during " + w.name)
				}
				r.Update(t, uint32(key)^uint32(val))
			case deleteHit:
				w.store.Delete(t, key)
				r.Update(t, uint32(key))
			}
		})
		r.Commit()
	}
}

func (w *megakvWork) Recompute() core.RecomputeFunc {
	return func(b *gpusim.Block, r *core.Region) {
		b.ForAll(func(t *gpusim.Thread) {
			i := t.GlobalLinear()
			switch w.slot(i) {
			case searchHit, searchMiss:
				val := t.LoadU64(w.results, i)
				r.Update(t, uint32(val)^uint32(val>>32))
			case insertFresh:
				key := t.LoadU64(w.keys, i)
				if val, ok := w.store.Search(t, key); ok {
					r.Update(t, uint32(key)^uint32(val))
				} else {
					r.Update(t, deleteMissMarker) // lost insert: poison the checksum
				}
			case deleteHit:
				key := t.LoadU64(w.keys, i)
				if _, ok := w.store.Search(t, key); ok {
					r.Update(t, deleteMissMarker) // tombstone lost
				} else {
					r.Update(t, uint32(key))
				}
			}
		})
	}
}

// Verify checks every slot against the index and the results array: a
// searched key is undisturbed (present with its value, or absent as set
// up) and its result is the value or 0, an inserted key maps to its
// value, and a deleted key is gone.
func (w *megakvWork) Verify() error {
	for i, k := range w.keyList {
		op := w.slot(i)
		var want uint64
		wantFound := op == searchHit || op == insertFresh
		if wantFound {
			want = w.valList[i]
		}
		if op == searchHit || op == searchMiss {
			if got := w.results.PeekU64(i); got != want {
				return fmt.Errorf("%s: result[%d] = %#x, want %#x", w.name, i, got, want)
			}
		}
		if got, found := w.store.HostGet(k); found != wantFound || got != want {
			return fmt.Errorf("%s: key %#x -> %#x (found=%v), want %#x (found=%v)", w.name, k, got, found, want, wantFound)
		}
	}
	return nil
}

// PersistBytes is the size of every region Outputs protects: the results
// array if the batch searches, and the index if it changes it (bucket
// count is nOps rounded to a power of two, as NewStore sizes it).
func (w *megakvWork) PersistBytes() int64 {
	var n int64
	if w.has(searchHit, searchMiss) {
		n += int64(w.nOps) * 8
	}
	if w.has(insertFresh, deleteHit) {
		buckets := 1
		for buckets < w.nOps {
			buckets <<= 1
		}
		n += int64(buckets) * megakv.SlotsPerBucket * 16
	}
	return n
}

// Outputs implements Workload: the results array if the batch searches,
// and the index if it changes it.
func (w *megakvWork) Outputs() []memsim.Region {
	var out []memsim.Region
	if w.has(searchHit, searchMiss) {
		out = append(out, w.results)
	}
	if w.has(insertFresh, deleteHit) {
		out = append(out, w.store.Region())
	}
	return out
}
