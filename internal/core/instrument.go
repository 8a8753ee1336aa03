package core

import (
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// Instrument wraps a plain kernel with directive-style Lazy Persistency:
// every 32-bit store the kernel issues to one of the protected regions is
// folded into the block checksum automatically, and the block checksum is
// committed when the kernel body returns. This is the runtime analog of
// the #pragma nvm lpcuda_checksum directive (§VI): the kernel author
// declares *which* arrays are persistent instead of writing checksum code.
//
// The same unwrapped kernel is the no-LP baseline, so overhead
// measurements compare identical kernel bodies.
func (lp *LP) Instrument(kernel gpusim.KernelFunc, protected ...memsim.Region) gpusim.KernelFunc {
	if kernel == nil {
		panic("core: nil kernel")
	}
	if len(protected) == 0 {
		panic("core: Instrument needs at least one protected region")
	}
	return func(b *gpusim.Block) {
		r := lp.Begin(b)
		// The hook is installed per block (not on the device), so it
		// folds only this block's stores into this block's region.
		prev := b.SetStoreHook(func(t *gpusim.Thread, reg memsim.Region, elemIdx int, bits uint32) {
			for _, p := range protected {
				if p.Base == reg.Base {
					r.Update(t, bits)
					return
				}
			}
		})
		defer b.SetStoreHook(prev)
		kernel(b)
		r.Commit()
	}
}

// RecomputeOver builds a RecomputeFunc for the common case where each
// block's persistent output is a known set of elements in one region:
// elems maps a block to the element indices it stored (in any order —
// the checksums are associative). The returned function reloads those
// elements and folds them into the region, exactly what the generated
// check-and-recovery kernel of Listing 7 does.
func RecomputeOver(out memsim.Region, elems func(b *gpusim.Block) []int) RecomputeFunc {
	return func(b *gpusim.Block, r *Region) {
		idxs := elems(b)
		b.ForAll(func(t *gpusim.Thread) {
			// Reloads are strided across the block's threads; the exact
			// assignment is irrelevant because the checksums are
			// commutative and associative across the whole block.
			for i := t.Linear; i < len(idxs); i += b.BlockDim.Size() {
				v := t.LoadU32(out, idxs[i])
				r.Update(t, v)
			}
		})
	}
}
