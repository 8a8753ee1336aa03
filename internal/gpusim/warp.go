package gpusim

import "fmt"

// Warp is the per-warp view inside a Block.WarpPhase. It exposes vector
// (per-lane) register operations, most importantly the shuffle-down data
// exchange that the paper uses for parallel checksum reduction (§IV-B,
// Listing 4).
type Warp struct {
	b *Block
	// ID is the warp index within the block; Lanes the number of active
	// lanes (the last warp of a block may be partial).
	ID    int
	Lanes int

	instrs   int64
	l2Bytes  int64
	nvmBytes int64
	stall    int64
}

// Block returns the enclosing block context.
func (w *Warp) Block() *Block { return w.b }

// Op charges n warp instructions.
func (w *Warp) Op(n int) { w.instrs += int64(n) }

// ShuffleDownU64 models __shfl_down_sync over a per-lane register vector:
// lane i receives lane i+delta's value; lanes whose source is out of range
// keep their own value (matching CUDA semantics for inactive sources).
// Costs one warp instruction. v is not modified; the shifted vector is
// returned.
func (w *Warp) ShuffleDownU64(v []uint64, delta int) []uint64 {
	if len(v) != w.Lanes {
		panic(fmt.Sprintf("gpusim: shuffle vector has %d lanes, warp has %d", len(v), w.Lanes))
	}
	w.instrs++
	out := make([]uint64, len(v))
	for i := range v {
		if j := i + delta; j < len(v) {
			out[i] = v[j]
		} else {
			out[i] = v[i]
		}
	}
	return out
}

// ReduceAdd performs the paper's warp-level parallel reduction
// (Listing 4) with shuffle-down steps, returning the lane-0 sum.
// Each step costs one shuffle and one add per checksum vector.
func (w *Warp) ReduceAdd(v []uint64) uint64 {
	ws := w.b.dev.cfg.WarpSize
	cur := make([]uint64, len(v))
	copy(cur, v)
	for offset := ws / 2; offset > 0; offset /= 2 {
		shifted := w.ShuffleDownU64(cur, offset)
		w.instrs++ // the add
		for i := range cur {
			if i+offset < len(cur) {
				cur[i] += shifted[i]
			}
		}
	}
	return cur[0]
}

// ReduceXor is ReduceAdd with XOR as the combining operator (parity
// checksum reduction).
func (w *Warp) ReduceXor(v []uint64) uint64 {
	ws := w.b.dev.cfg.WarpSize
	cur := make([]uint64, len(v))
	copy(cur, v)
	for offset := ws / 2; offset > 0; offset /= 2 {
		shifted := w.ShuffleDownU64(cur, offset)
		w.instrs++
		for i := range cur {
			if i+offset < len(cur) {
				cur[i] ^= shifted[i]
			}
		}
	}
	return cur[0]
}
