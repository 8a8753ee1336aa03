package core

import (
	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/memsim"
)

// Region is the per-thread-block LP context. Kernel code obtains one from
// LP.Begin, folds every persistent store into it with Update (the analog
// of UpdateCheckSum in Listing 1 / the lpcuda_checksum directive), and
// finishes with Commit, which reduces the per-thread checksums and
// inserts the block checksum into the checksum store.
//
// A nil *Region is valid and inert, so the same kernel body serves as the
// no-LP baseline when the runtime is absent.
type Region struct {
	lp  *LP
	b   *gpusim.Block
	key uint64
	mod []uint64
	par []uint64
}

// Shared-memory names of a region's per-thread checksum accumulators.
// They are reserved for the LP runtime: kernels must not name their own
// shared arrays this way.
const (
	sharedMod = "core.lp.mod"
	sharedPar = "core.lp.par"
)

// Begin opens the LP region for block b. Safe to call on a nil runtime
// (returns a nil, inert region) — that is how baseline runs reuse LP
// kernels.
//
// The per-thread accumulators are the block's shared arrays sharedMod and
// sharedPar, zeroed at the block's first request. Shared arrays belong to
// one block, so no block folds into another block's accumulators. For the
// same reason a block holds at most one open LP region: a second Begin in
// the same block would fold into the first region's accumulators.
func (lp *LP) Begin(b *gpusim.Block) *Region {
	if lp == nil {
		return nil
	}
	if b.GridDim != lp.grid || b.BlockDim != lp.blk {
		panic("core: block geometry does not match the LP runtime's geometry")
	}
	nt := lp.blk.Size()
	return &Region{lp: lp, b: b, key: uint64(b.LinearIdx / lp.fusion), mod: b.SharedU64(sharedMod, nt), par: b.SharedU64(sharedPar, nt)}
}

// Update folds one stored 32-bit value into the calling thread's
// checksum accumulators, charging the configured checksum cost.
func (r *Region) Update(t *gpusim.Thread, bits uint32) {
	if r == nil {
		return
	}
	t.Op(r.lp.cfg.Checksum.UpdateCost())
	switch r.lp.cfg.Checksum {
	case checksum.Parity:
		r.par[t.Linear] ^= uint64(bits)
	case checksum.Modular:
		r.mod[t.Linear] += uint64(bits)
	default:
		r.mod[t.Linear] += uint64(bits)
		r.par[t.Linear] ^= uint64(bits)
	}
}

// UpdateF32 folds a float32 store via the Fig. 2 conversion.
func (r *Region) UpdateF32(t *gpusim.Thread, v float32) {
	if r == nil {
		return
	}
	r.Update(t, checksum.FloatBits(v))
}

// Commit reduces the block's per-thread checksums and inserts the result
// into the checksum store (thread 0 performs the insertion, fused into
// the reduction's final phase). Under region fusion the block's partial
// checksum is merged into the group's shared entry instead. No-op on a
// nil region.
func (r *Region) Commit() {
	if r == nil {
		return
	}
	if r.lp.fusion > 1 {
		merger := r.lp.st.(hashtab.Merger)
		r.reduceAndThen(func(t *gpusim.Thread, total checksum.State) {
			merger.MergeInsert(t, r.key, total)
		})
		return
	}
	r.reduceAndThen(func(t *gpusim.Thread, total checksum.State) {
		r.lp.st.Insert(t, r.key, total)
	})
}

// vectors is the number of checksum register vectors being reduced.
func (r *Region) vectors() int {
	if r.lp.cfg.Checksum == checksum.Dual {
		return 2
	}
	return 1
}

// blockTotal folds the per-thread accumulators host-side; the reduction
// phases charge the equivalent device cost. The block's epoch salt (see
// LP.SetEpoch) is folded in last, so entries written under a different
// epoch can never validate this one.
func (r *Region) blockTotal() checksum.State {
	var total checksum.State
	for i := 0; i < r.b.BlockDim.Size(); i++ {
		total.Mod += r.mod[i]
		total.Par ^= r.par[i]
	}
	salt := checksum.Mix64(r.lp.epoch, uint64(r.b.LinearIdx))
	total.Mod += salt
	total.Par ^= salt
	return total
}

// reduce combines per-thread accumulators into the block checksum with
// the configured strategy, returning it without inserting (used by
// validation).
func (r *Region) reduce() checksum.State {
	return r.reduceAndThen(nil)
}

// reduceAndThen reduces, then runs the optional continuation on thread 0
// within the final phase (fusing insertion with the reduction so tiny
// blocks do not pay an extra barrier).
func (r *Region) reduceAndThen(then func(t *gpusim.Thread, total checksum.State)) checksum.State {
	if r.lp.cfg.Reduction == ReduceSequential {
		return r.reduceSequential(then)
	}
	return r.reduceShuffle(then)
}

// reduceShuffle is the one model of the warp shuffle reduction of
// Listings 3–4, charged as cost, not run lane by lane: every thread
// participates in log2(warpSize) shuffle-down steps per checksum vector;
// lane 0 of each warp stages its partial in shared memory; after a
// barrier, warp 0 reduces the staged partials; thread 0 then runs the
// continuation. The total itself is the host fold of the per-thread
// accumulators (blockTotal), which a shuffle tree computes exactly.
func (r *Region) reduceShuffle(then func(t *gpusim.Thread, total checksum.State)) checksum.State {
	b := r.b
	ws := b.Device().Config().WarpSize
	nw := b.NumWarps()
	vecs := r.vectors()
	steps := 0
	for s := ws / 2; s > 0; s /= 2 {
		steps++
	}
	total := r.blockTotal()

	if nw > 1 {
		b.Barrier() // staging barrier between warp partials and final reduce
	}
	b.ForAll(func(t *gpusim.Thread) {
		t.Op(2 * steps * vecs) // shuffle + combine per step per vector
		if t.Lane == 0 {
			t.Op(vecs) // write warp partial to shared memory
		}
		if t.Linear == 0 {
			if nw > 1 {
				t.Op((2*steps + 1) * vecs) // warp 0's final reduce over staged partials
			}
			if then != nil {
				then(t, total)
			}
		}
	})
	return total
}

// reduceSequential stages every thread's accumulators through global
// memory, then thread 0 folds them one by one — O(N) loads and a long
// divergent tail, the cost §IV-D.5 measures for the no-shuffle variant.
func (r *Region) reduceSequential(then func(t *gpusim.Thread, total checksum.State)) checksum.State {
	b := r.b
	lp := r.lp
	nt := b.BlockDim.Size()
	vecs := r.vectors()
	base := (b.LinearIdx % lp.scratchSlots) * nt * 2
	total := r.blockTotal()

	b.ForAll(func(t *gpusim.Thread) {
		t.StoreU64K(memsim.AccessChecksum, lp.scratch, base+t.Linear*2, r.mod[t.Linear])
		if vecs == 2 {
			t.StoreU64K(memsim.AccessChecksum, lp.scratch, base+t.Linear*2+1, r.par[t.Linear])
		}
	})
	b.ForAll(func(t *gpusim.Thread) {
		if t.Linear != 0 {
			return
		}
		for i := 0; i < nt; i++ {
			_ = t.LoadU64K(memsim.AccessChecksum, lp.scratch, base+i*2)
			if vecs == 2 {
				_ = t.LoadU64K(memsim.AccessChecksum, lp.scratch, base+i*2+1)
			}
			t.Op(vecs)
		}
		if then != nil {
			then(t, total)
		}
	})
	return total
}
