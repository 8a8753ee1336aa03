package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// shardSystem is a dense LP-protected fill over 16 blocks × 32 threads:
// out[gid] = gid*3 + 1.
func shardSystem(t *testing.T, cfg Config) (dev *gpusim.Device, lp *LP, out memsim.Region, kernel gpusim.KernelFunc, rec RecomputeFunc) {
	t.Helper()
	dev = newTestDevice()
	grid, blk := gpusim.D1(16), gpusim.D1(32)
	out = dev.Alloc("out", grid.Size()*blk.Size()*4)
	out.HostZero()
	lp = New(dev, cfg, grid, blk)
	kernel = func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(th *gpusim.Thread) {
			v := uint32(th.GlobalLinear())*3 + 1
			th.StoreU32(out, th.GlobalLinear(), v)
			r.Update(th, v)
		})
		r.Commit()
	}
	rec = func(b *gpusim.Block, r *Region) {
		b.ForAll(func(th *gpusim.Thread) {
			r.Update(th, th.LoadU32(out, th.GlobalLinear()))
		})
	}
	return dev, lp, out, kernel, rec
}

// corruptWord flips one durable word of block blk (thread 0's slot).
func corruptWord(dev *gpusim.Device, out memsim.Region, blk int, threads int) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], 0xdeadbeef)
	dev.Mem().HostWrite(out.Base+uint64(blk*threads*4), buf[:])
}

func TestValidateBlocksSubsetSemantics(t *testing.T) {
	dev, lp, out, kernel, rec := shardSystem(t, DefaultConfig())
	dev.Launch("fill", lp.grid, lp.blk, kernel)
	dev.Mem().FlushAll()

	// Clean state: any subset validates clean.
	failed, _, err := lp.validate(rec, []int{4, 5, 6, 7})
	if err != nil || len(failed) != 0 {
		t.Fatalf("clean subset: failed=%v err=%v", failed, err)
	}

	// Corrupt block 5's durable data: only a subset containing 5 sees it.
	corruptWord(dev, out, 5, 32)
	failed, _, err = lp.validate(rec, []int{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 5 {
		t.Fatalf("failed = %v, want [5]", failed)
	}
	// Corruption outside the subset is invisible — shard isolation.
	failed, _, err = lp.validate(rec, []int{0, 1, 2, 3})
	if err != nil || len(failed) != 0 {
		t.Fatalf("disjoint subset saw foreign corruption: failed=%v err=%v", failed, err)
	}

	// Duplicates and unsorted input normalize.
	failed, _, err = lp.validate(rec, []int{7, 5, 5, 4})
	if err != nil || len(failed) != 1 || failed[0] != 5 {
		t.Fatalf("normalized subset: failed=%v err=%v", failed, err)
	}
}

func TestValidateBlocksEdgeCases(t *testing.T) {
	_, lp, _, _, rec := shardSystem(t, DefaultConfig())

	// Empty subset: trivially clean.
	failed, res, err := lp.validate(rec, []int{})
	if err != nil || len(failed) != 0 || res.Cycles != 0 {
		t.Fatalf("empty subset: failed=%v res=%+v err=%v", failed, res, err)
	}

	// Nil recompute is a typed store-corrupt error.
	if _, _, err := lp.validate(nil, []int{0}); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("nil recompute: %v, want ErrStoreCorrupt", err)
	}

	// Out-of-grid blocks panic like LaunchSelected.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-grid block must panic")
			}
		}()
		lp.validate(rec, []int{99})
	}()
}

func TestValidateBlocksFusionAlignment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fusion = 2
	dev, lp, out, kernel, rec := shardSystem(t, cfg)
	dev.Launch("fill", lp.grid, lp.blk, kernel)
	dev.Mem().FlushAll()

	// Half a fusion group is unsound and refused with a typed error.
	if _, _, err := lp.validate(rec, []int{2}); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("partial fusion group: %v, want ErrStoreCorrupt", err)
	}

	// Whole groups validate; a corrupted member fails its whole group.
	corruptWord(dev, out, 3, 32)
	failed, _, err := lp.validate(rec, []int{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 || failed[0] != 2 || failed[1] != 3 {
		t.Fatalf("failed = %v, want the whole fused group [2 3]", failed)
	}
}

func TestRecoverBlocksRepairsSubset(t *testing.T) {
	dev, lp, out, kernel, rec := shardSystem(t, DefaultConfig())
	dev.Launch("fill", lp.grid, lp.blk, kernel)
	dev.Mem().FlushAll()
	corruptWord(dev, out, 5, 32)
	corruptWord(dev, out, 6, 32)

	rep, err := lp.RecoverBlocks(kernel, rec, []int{4, 5, 6, 7}, ShardRecoverOpts{})
	if err != nil {
		t.Fatalf("shard recovery failed: %v (%+v)", err, rep)
	}
	if len(rep.FailedPerRound) == 0 || rep.FailedPerRound[0] != 2 {
		t.Fatalf("first round should re-execute exactly blocks 5 and 6: %v", rep.FailedPerRound)
	}
	if rep.BackoffCycles != 0 {
		t.Fatalf("single-round recovery charged %d backoff cycles", rep.BackoffCycles)
	}
	for i := 0; i < lp.grid.Size()*lp.blk.Size(); i++ {
		if got, want := out.NVMU32(i), uint32(i)*3+1; got != want {
			t.Fatalf("out[%d] = %d after recovery, want %d", i, got, want)
		}
	}
	pinRecovery(t, rep, err, "{Rounds:2 FailedPerRound:[2 0] FirstFailed:[5 6] ValidateCycles:62 RecoverCycles:18 BackoffCycles:0 Tier:selective}", "")
}

// TestRecoverBlocksGuardSubsetPinned pins RecoverBlocks repairing a
// subset of the guard fixture after a crash.
func TestRecoverBlocksGuardSubsetPinned(t *testing.T) {
	dev, lp, _, _, kernel, rec := guardSystem(t)
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().Crash()
	rep, err := lp.RecoverBlocks(kernel, rec, []int{12, 3, 40, 41, 3}, ShardRecoverOpts{BackoffBase: 100})
	pinRecovery(t, rep, err, "{Rounds:2 FailedPerRound:[4 0] FirstFailed:[3 12 40 41] ValidateCycles:122 RecoverCycles:57 BackoffCycles:0 Tier:selective}", "")
}

// TestRecoverBlocksUnrecoverable: when re-execution cannot repair (the
// guard kernel refuses corrupted durable input), RecoverBlocks exhausts
// its rounds, charges deterministic backoff, and returns the typed error.
func TestRecoverBlocksUnrecoverable(t *testing.T) {
	dev, lp, in, out, kernel, rec := guardSystem(t)
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().FlushAll()

	// Poison block 9: odd durable input (kernel refuses to commit) and a
	// corrupted output word (validation keeps failing).
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], 0xdead_beef|1)
	dev.Mem().HostWrite(in.Base+uint64(9*lp.blk.Size()*4), buf[:])
	dev.Mem().HostWrite(out.Base+uint64(9*lp.blk.Size()*4), buf[:])

	rep, err := lp.RecoverBlocks(kernel, rec, []int{8, 9, 10}, ShardRecoverOpts{MaxRounds: 2, BackoffBase: 100})
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("unrepairable shard returned %v, want ErrUnrecoverable", err)
	}
	if rep.Rounds != 3 {
		t.Fatalf("MaxRounds=2 should validate 3 times (got %d)", rep.Rounds)
	}
	// Round 1 retry charges the base; the first repair round is free.
	if rep.BackoffCycles != 100 {
		t.Fatalf("backoff = %d cycles, want 100", rep.BackoffCycles)
	}
	pinRecovery(t, rep, err, "{Rounds:3 FailedPerRound:[1 1 1] FirstFailed:[9] ValidateCycles:171 RecoverCycles:36 BackoffCycles:100 Tier:selective}", "core: 1 shard blocks still invalid after 2 recovery rounds: persistent state unrecoverable")

	// The default bound (3 rounds) doubles the backoff per retry.
	rep, err = lp.RecoverBlocks(kernel, rec, []int{9}, ShardRecoverOpts{BackoffBase: 100})
	pinRecovery(t, rep, err, "{Rounds:4 FailedPerRound:[1 1 1 1] FirstFailed:[9] ValidateCycles:196 RecoverCycles:54 BackoffCycles:300 Tier:selective}", "core: 1 shard blocks still invalid after 3 recovery rounds: persistent state unrecoverable")
}
