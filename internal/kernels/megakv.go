package kernels

import (
	"fmt"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/megakv"
	"gpulp/internal/memsim"
)

// megakvWork wraps the MEGA-KV key-value store (§VII-4) as three
// workloads — one per operation type, matching the paper's separate
// search/delete/insert overhead numbers. A batch of operations is
// processed with one thread per op; each thread block is an LP region.
//
// Checksum discipline per op type:
//   - insert: fold key⊕value after the insert; validation re-searches
//     the key and folds what it finds, so a lost index update mismatches.
//   - search: results are written to a persistent output array, which is
//     checksummed and validated like any kernel output.
//   - delete: fold the key after deletion; validation folds the key only
//     if it is absent, so a lost tombstone mismatches.
type megakvWork struct {
	name string // "megakv-" + the batch operation (see op)
	nOps int

	dev     *gpusim.Device
	store   *megakv.Store
	keys    memsim.Region // uint64 per op (stored as 2 u32 words each)
	vals    memsim.Region
	results memsim.Region // search: uint64 value found (0 if absent)

	keyList []uint64
	valList []uint64
	golden  []uint64 // search results / expected values
}

const megakvBlockThreads = 128

// deleteMissMarker is folded when validation finds a supposedly deleted
// key still present.
const deleteMissMarker = 0xBAD0BAD0

func newMegaKV(name string, scale int) *megakvWork {
	// 16K records per batch, the workload size of §VII-4.
	return &megakvWork{name: name, nOps: 16384 * scale}
}

func (w *megakvWork) Name() string { return w.name }

// op is the batch operation: "search", "insert", "delete" or "mixed".
func (w *megakvWork) op() string { return w.name[len("megakv-"):] }

func (w *megakvWork) Info() Info {
	return Info{
		Description: fmt.Sprintf("MEGA-KV in-memory key-value store, batched %s", w.op()),
		Suite:       "[12]",
		Bottleneck:  "unknown",
		Input:       fmt.Sprintf("%s %d records", w.op(), w.nOps),
	}
}

func (w *megakvWork) Geometry() (gpusim.Dim3, gpusim.Dim3) {
	return gpusim.D1(w.nOps / megakvBlockThreads), gpusim.D1(megakvBlockThreads)
}

func (w *megakvWork) Setup(dev *gpusim.Device) {
	w.dev = dev
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

	switch w.op() {
	case "insert":
		// Store starts empty; golden is the inserted values.
		w.golden = w.valList
	case "search":
		// Pre-populate three quarters of the keys; the rest miss.
		w.golden = make([]uint64, w.nOps)
		for i, k := range w.keyList {
			if i%4 != 3 {
				w.store.HostInsert(k, w.valList[i])
				w.golden[i] = w.valList[i]
			}
		}
	case "delete":
		for i, k := range w.keyList {
			w.store.HostInsert(k, w.valList[i])
		}
	case "mixed":
		// A realistic batch mix: 50% searches, 25% inserts of fresh
		// keys, 25% deletes. Search and delete targets are
		// pre-populated; inserts bring new keys.
		w.golden = make([]uint64, w.nOps)
		for i, k := range w.keyList {
			switch i % 4 {
			case 0, 1: // search target
				w.store.HostInsert(k, w.valList[i])
				w.golden[i] = w.valList[i]
			case 3: // delete target
				w.store.HostInsert(k, w.valList[i])
			}
		}
	default:
		panic(fmt.Sprintf("kernels: unknown megakv op %q", w.op()))
	}
}

// mixedOpKind returns the operation of batch slot i in the mixed batch.
func mixedOpKind(i int) string {
	switch i % 4 {
	case 0, 1:
		return "search"
	case 2:
		return "insert"
	default:
		return "delete"
	}
}

// loadKey reads op i's key as a device access (two 32-bit halves, charged
// as one 64-bit load).
func (w *megakvWork) loadKey(t *gpusim.Thread, i int) uint64 { return t.LoadU64(w.keys, i) }

func (w *megakvWork) Kernel(lp *core.LP) gpusim.KernelFunc {
	switch w.op() {
	case "insert":
		return func(b *gpusim.Block) {
			r := lp.Begin(b)
			b.ForAll(func(t *gpusim.Thread) {
				i := t.GlobalLinear()
				key := w.loadKey(t, i)
				val := t.LoadU64(w.vals, i)
				if !w.store.Insert(t, key, val) {
					panic("megakv: bucket overflow during insert batch")
				}
				r.Update(t, uint32(key)^uint32(val))
			})
			r.Commit()
		}
	case "search":
		return func(b *gpusim.Block) {
			r := lp.Begin(b)
			b.ForAll(func(t *gpusim.Thread) {
				i := t.GlobalLinear()
				key := w.loadKey(t, i)
				val, _ := w.store.Search(t, key)
				t.StoreU64(w.results, i, val)
				r.Update(t, uint32(val)^uint32(val>>32))
			})
			r.Commit()
		}
	case "delete":
		return func(b *gpusim.Block) {
			r := lp.Begin(b)
			b.ForAll(func(t *gpusim.Thread) {
				i := t.GlobalLinear()
				key := w.loadKey(t, i)
				w.store.Delete(t, key)
				r.Update(t, uint32(key))
			})
			r.Commit()
		}
	default: // mixed
		return func(b *gpusim.Block) {
			r := lp.Begin(b)
			b.ForAll(func(t *gpusim.Thread) {
				i := t.GlobalLinear()
				key := w.loadKey(t, i)
				switch mixedOpKind(i) {
				case "search":
					val, _ := w.store.Search(t, key)
					t.StoreU64(w.results, i, val)
					r.Update(t, uint32(val)^uint32(val>>32))
				case "insert":
					val := t.LoadU64(w.vals, i)
					if !w.store.Insert(t, key, val) {
						panic("megakv: bucket overflow during mixed batch")
					}
					r.Update(t, uint32(key)^uint32(val))
				default: // delete
					w.store.Delete(t, key)
					r.Update(t, uint32(key))
				}
			})
			r.Commit()
		}
	}
}

func (w *megakvWork) Recompute() core.RecomputeFunc {
	switch w.op() {
	case "insert":
		return func(b *gpusim.Block, r *core.Region) {
			b.ForAll(func(t *gpusim.Thread) {
				i := t.GlobalLinear()
				key := w.loadKey(t, i)
				val, ok := w.store.Search(t, key)
				if !ok {
					r.Update(t, deleteMissMarker) // lost insert: poison the checksum
					return
				}
				r.Update(t, uint32(key)^uint32(val))
			})
		}
	case "search":
		return func(b *gpusim.Block, r *core.Region) {
			b.ForAll(func(t *gpusim.Thread) {
				val := t.LoadU64(w.results, t.GlobalLinear())
				r.Update(t, uint32(val)^uint32(val>>32))
			})
		}
	case "delete":
		return func(b *gpusim.Block, r *core.Region) {
			b.ForAll(func(t *gpusim.Thread) {
				i := t.GlobalLinear()
				key := w.loadKey(t, i)
				if _, ok := w.store.Search(t, key); ok {
					r.Update(t, deleteMissMarker) // tombstone lost
					return
				}
				r.Update(t, uint32(key))
			})
		}
	default: // mixed
		return func(b *gpusim.Block, r *core.Region) {
			b.ForAll(func(t *gpusim.Thread) {
				i := t.GlobalLinear()
				key := w.loadKey(t, i)
				switch mixedOpKind(i) {
				case "search":
					val := t.LoadU64(w.results, i)
					r.Update(t, uint32(val)^uint32(val>>32))
				case "insert":
					val, ok := w.store.Search(t, key)
					if !ok {
						r.Update(t, deleteMissMarker)
						return
					}
					r.Update(t, uint32(key)^uint32(val))
				default: // delete
					if _, ok := w.store.Search(t, key); ok {
						r.Update(t, deleteMissMarker)
						return
					}
					r.Update(t, uint32(key))
				}
			})
		}
	}
}

func (w *megakvWork) Verify() error {
	switch w.op() {
	case "insert":
		for i, k := range w.keyList {
			got, ok := w.store.HostGet(k)
			if !ok || got != w.valList[i] {
				return fmt.Errorf("megakv-insert: key %#x -> %#x (found=%v), want %#x", k, got, ok, w.valList[i])
			}
		}
	case "search":
		for i := range w.keyList {
			if got := w.results.PeekU64(i); got != w.golden[i] {
				return fmt.Errorf("megakv-search: result[%d] = %#x, want %#x", i, got, w.golden[i])
			}
		}
	case "delete":
		for _, k := range w.keyList {
			if _, ok := w.store.HostGet(k); ok {
				return fmt.Errorf("megakv-delete: key %#x still present", k)
			}
		}
	default: // mixed
		for i, k := range w.keyList {
			switch mixedOpKind(i) {
			case "search":
				if got := w.results.PeekU64(i); got != w.golden[i] {
					return fmt.Errorf("megakv-mixed: search result[%d] = %#x, want %#x", i, got, w.golden[i])
				}
				if got, ok := w.store.HostGet(k); !ok || got != w.valList[i] {
					return fmt.Errorf("megakv-mixed: searched key %#x disturbed", k)
				}
			case "insert":
				if got, ok := w.store.HostGet(k); !ok || got != w.valList[i] {
					return fmt.Errorf("megakv-mixed: inserted key %#x -> %#x (found=%v), want %#x", k, got, ok, w.valList[i])
				}
			default: // delete
				if _, ok := w.store.HostGet(k); ok {
					return fmt.Errorf("megakv-mixed: deleted key %#x still present", k)
				}
			}
		}
	}
	return nil
}

func (w *megakvWork) PersistBytes() int64 {
	if w.op() == "search" {
		return int64(w.nOps) * 8
	}
	// The persistent structure is the index itself (bucket count is nOps
	// rounded to a power of two, as NewStore sizes it).
	buckets := 1
	for buckets < w.nOps {
		buckets <<= 1
	}
	return int64(buckets) * megakv.SlotsPerBucket * 16
}

// Outputs implements Workload: the persistent structure is the results
// array for searches and the index itself for mutating batches (both,
// for the mixed batch).
func (w *megakvWork) Outputs() []memsim.Region {
	switch w.op() {
	case "search":
		return []memsim.Region{w.results}
	case "mixed":
		return []memsim.Region{w.results, w.store.Region()}
	default:
		return []memsim.Region{w.store.Region()}
	}
}
