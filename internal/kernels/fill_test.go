package kernels

import (
	"fmt"
	"testing"

	"gpulp/internal/core"
	"gpulp/internal/pmodel"
)

// The fill's fold is the replica judge's pmodel.BlockFolder.
var _ pmodel.BlockFolder = (*Fill)(nil).FoldBlock

// TestFill holds the fill to its contract at fusion 1 and 2, with and
// without locks: a clean LP launch validates and audits clean, FoldBlock
// replays Word in thread order, RegionOf maps every output line to its
// region and nothing else to any, and Diverged reports a flipped word
// unless its block is skipped.
func TestFill(t *testing.T) {
	const blocks, threads, salt = 8, 64, 99
	for _, fusion := range []int{1, 2} {
		for _, locks := range []bool{false, true} {
			t.Run(fmt.Sprintf("fusion=%d/locks=%v", fusion, locks), func(t *testing.T) {
				dev := newTestDevice()
				mem := dev.Mem()
				f := NewFill(dev, blocks, threads, salt, locks)
				grid, blk := f.Geometry()
				cfg := core.DefaultConfig()
				cfg.Fusion = fusion
				lp := core.New(dev, cfg, grid, blk)
				if res := dev.Launch("fill", grid, blk, f.Kernel(lp)); res.Interrupted || res.Blocks != blocks {
					t.Fatalf("clean launch: %+v", res)
				}
				mem.FlushAll()
				if failed, _, err := lp.Validate(f.Recompute()); err != nil || len(failed) != 0 {
					t.Fatalf("clean launch fails validation: %v, %v", failed, err)
				}

				img := mem.NVMImage()
				if gid, got := f.Diverged(img, nil); gid != -1 {
					t.Fatalf("clean image diverges at gid %d (%#x)", gid, got)
				}
				for b := 0; b < blocks; b++ {
					var folded []uint32
					f.FoldBlock(img, b, func(bits uint32) { folded = append(folded, bits) })
					if len(folded) != threads {
						t.Fatalf("block %d folds %d words, want %d", b, len(folded), threads)
					}
					for th, v := range folded {
						if want := f.Word(b*threads + th); v != want {
							t.Fatalf("block %d thread %d folds %#x, want %#x", b, th, v, want)
						}
					}
				}

				out := f.Outputs()[0]
				for line := out.Base; line < out.End(); line += uint64(mem.LineSize()) {
					block := int(line-out.Base) / (threads * 4)
					if got := f.RegionOf(line, fusion); got != block/fusion {
						t.Fatalf("line %#x of block %d maps to region %d, want %d", line, block, got, block/fusion)
					}
				}
				if got := f.RegionOf(out.End(), fusion); got != -1 {
					t.Fatalf("line past the output maps to region %d", got)
				}
				if locks {
					if got := f.RegionOf(f.Locks().Base, fusion); got != -1 {
						t.Fatalf("lock word maps to region %d", got)
					}
				} else if f.Locks().Size != 0 {
					t.Fatalf("unlocked fill allocated %d lock bytes", f.Locks().Size)
				}

				const k, bit = 5, 3
				gid := k*threads + 7
				mem.FlipBit(out.Base+uint64(gid)*4, bit)
				img = mem.NVMImage()
				if got, word := f.Diverged(img, nil); got != gid || word != f.Word(gid)^1<<bit {
					t.Fatalf("flip at gid %d: Diverged = (%d, %#x), want (%d, %#x)", gid, got, word, gid, f.Word(gid)^1<<bit)
				}
				if got, _ := f.Diverged(img, func(b int) bool { return b == k }); got != -1 {
					t.Fatalf("flip in skipped block %d still reported at gid %d", k, got)
				}
			})
		}
	}
}
