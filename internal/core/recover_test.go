package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// guardSystem builds a workload whose kernel validates its input before
// processing: in[i] must be even, out[i] = in[i]*3 + 7. A block that
// sees a corrupted (odd) input refuses to store or commit — the
// defensive-kernel pattern that makes durable input corruption
// unrepairable by re-execution alone and forces recovery to escalate.
func guardSystem(t *testing.T) (dev *gpusim.Device, lp *LP, in, out memsim.Region, kernel gpusim.KernelFunc, rec RecomputeFunc) {
	t.Helper()
	dev = newTestDevice()
	grid, blk := gpusim.D1(64), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	in = dev.Alloc("in", n*4)
	out = dev.Alloc("out", n*4)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(2 * i)
	}
	in.HostWriteI32s(vals)
	out.HostZero()
	lp = New(dev, DefaultConfig(), grid, blk)
	kernel = func(b *gpusim.Block) {
		r := lp.Begin(b)
		ok := true
		b.ForAll(func(th *gpusim.Thread) {
			v := th.LoadU32(in, th.GlobalLinear())
			if v&1 != 0 {
				ok = false
				return
			}
			o := v*3 + 7
			th.StoreU32(out, th.GlobalLinear(), o)
			r.Update(th, o)
		})
		if ok {
			r.Commit()
		}
	}
	rec = func(b *gpusim.Block, r *Region) {
		b.ForAll(func(th *gpusim.Thread) {
			r.Update(th, th.LoadU32(out, th.GlobalLinear()))
		})
	}
	return dev, lp, in, out, kernel, rec
}

func checkGuardOutput(t *testing.T, out memsim.Region, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got, want := out.PeekU32(i), uint32(2*i)*3+7; got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// plainReport drops RecoveryReport's String method, so %+v prints every
// field.
type plainReport RecoveryReport

// pinRecovery compares a recovery report, field by field, and its error
// text against literal values recorded from these fixtures. Recovery is
// fully simulated, so any change to the report — a cycle, a round, a
// tier — is a change to the recovery procedure.
func pinRecovery(t *testing.T, rep RecoveryReport, err error, wantRep, wantErr string) {
	t.Helper()
	if got := fmt.Sprintf("%+v", plainReport(rep)); got != wantRep {
		t.Errorf("report:\n got %s\nwant %s", got, wantRep)
	}
	gotErr := ""
	if err != nil {
		gotErr = err.Error()
	}
	if gotErr != wantErr {
		t.Errorf("error:\n got %q\nwant %q", gotErr, wantErr)
	}
}

// TestRecoverHardenedSelectiveTier: an ordinary crash must be repaired
// by the paper's selective re-execution without escalating.
func TestRecoverHardenedSelectiveTier(t *testing.T) {
	dev, lp, _, out, kernel, rec := guardSystem(t)
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().Crash()
	rep, err := lp.RecoverHardened(kernel, rec, RecoverOpts{})
	if err != nil {
		t.Fatalf("recovery failed: %v (%v)", err, rep)
	}
	if rep.Tier != TierSelective {
		t.Fatalf("plain crash escalated to %v", rep.Tier)
	}
	checkGuardOutput(t, out, lp.grid.Size()*lp.blk.Size())
	pinRecovery(t, rep, err, "{Rounds:2 FailedPerRound:[64 0] ValidateCycles:602 RecoverCycles:177 BackoffCycles:0 Tier:selective}", "")
}

// TestValidateAndRecoverPinned pins the eager-recovery report on the
// guard fixture: a plain crash, and the exhausted typed error when a
// corrupted input keeps one block invalid.
func TestValidateAndRecoverPinned(t *testing.T) {
	dev, lp, _, out, kernel, rec := guardSystem(t)
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().Crash()
	rep, err := lp.ValidateAndRecover(kernel, rec, 0)
	checkGuardOutput(t, out, lp.grid.Size()*lp.blk.Size())
	pinRecovery(t, rep, err, "{Rounds:2 FailedPerRound:[64 0] ValidateCycles:602 RecoverCycles:177 BackoffCycles:0 Tier:selective}", "")

	dev, lp, in, _, kernel, rec := guardSystem(t)
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().Crash()
	corruptInput(dev, in, 40)
	rep, err = lp.ValidateAndRecover(kernel, rec, 2)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("error is not typed ErrUnrecoverable: %v", err)
	}
	pinRecovery(t, rep, err, "{Rounds:3 FailedPerRound:[64 1 1] ValidateCycles:903 RecoverCycles:195 BackoffCycles:0 Tier:selective}", "core: 1 blocks still invalid after 2 recovery rounds: persistent state unrecoverable")
}

// TestRecoverHardenedFullGridTier: a negative MaxRounds skips the
// selective tier, so recovery must rebuild everything via a full-grid
// re-execution and report that tier.
func TestRecoverHardenedFullGridTier(t *testing.T) {
	dev, lp, _, out, kernel, rec := guardSystem(t)
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().Crash()
	rep, err := lp.RecoverHardened(kernel, rec, RecoverOpts{MaxRounds: -1})
	if err != nil {
		t.Fatalf("recovery failed: %v (%v)", err, rep)
	}
	if rep.Tier != TierFullGrid {
		t.Fatalf("tier = %v, want full-grid", rep.Tier)
	}
	checkGuardOutput(t, out, lp.grid.Size()*lp.blk.Size())
	pinRecovery(t, rep, err, "{Rounds:1 FailedPerRound:[0] ValidateCycles:301 RecoverCycles:177 BackoffCycles:0 Tier:full-grid}", "")
}

// corruptInput makes one durable input word odd (violating the guard
// kernel's invariant) straight in NVM, bypassing the cache — the media
// corruption a crash cannot explain and re-execution cannot repair.
func corruptInput(dev *gpusim.Device, in memsim.Region, idx int) {
	v := in.NVMU32(idx) | 1
	dev.Mem().HostWrite(in.Base+uint64(idx*4), []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// TestRecoverHardenedCheckpointTier: with a durable input corrupted, the
// guarded block refuses to re-execute, so neither selective rounds nor a
// full-grid rebuild can produce a matching checksum; only restoring the
// checkpointed image repairs the input and lets recovery converge.
func TestRecoverHardenedCheckpointTier(t *testing.T) {
	dev, lp, in, out, kernel, rec := guardSystem(t)
	ck := CaptureCheckpoint(dev.Mem())
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().Crash()
	corruptInput(dev, in, 40)

	rep, err := lp.RecoverHardened(kernel, rec, RecoverOpts{Checkpoint: ck})
	if err != nil {
		t.Fatalf("recovery failed: %v (%v)", err, rep)
	}
	if rep.Tier != TierCheckpoint {
		t.Fatalf("tier = %v, want checkpoint", rep.Tier)
	}
	checkGuardOutput(t, out, lp.grid.Size()*lp.blk.Size())
	if got := in.PeekU32(40); got != 80 {
		t.Fatalf("checkpoint restore left in[40] = %d, want 80", got)
	}
	pinRecovery(t, rep, err, "{Rounds:6 FailedPerRound:[64 1 1 1 1 0] ValidateCycles:1806 RecoverCycles:567 BackoffCycles:0 Tier:checkpoint}", "")
}

// TestRecoverHardenedUnrecoverableTypedError: the same corruption with
// no checkpoint to fall back on must surface as a typed error — never a
// panic, never a silent success.
func TestRecoverHardenedUnrecoverableTypedError(t *testing.T) {
	dev, lp, in, _, kernel, rec := guardSystem(t)
	dev.Launch("guard", lp.grid, lp.blk, kernel)
	dev.Mem().Crash()
	corruptInput(dev, in, 40)

	rep, err := lp.RecoverHardened(kernel, rec, RecoverOpts{})
	if err == nil {
		t.Fatalf("recovery claimed success over corrupted input: %v", rep)
	}
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("error is not typed ErrUnrecoverable: %v", err)
	}
	if rep.Tier != TierFullGrid {
		t.Fatalf("tier = %v, want full-grid (the last tier tried without a checkpoint)", rep.Tier)
	}
	pinRecovery(t, rep, err, "{Rounds:5 FailedPerRound:[64 1 1 1 1] ValidateCycles:1505 RecoverCycles:390 BackoffCycles:0 Tier:full-grid}", "core: 1 blocks invalid after full-grid-tier recovery: persistent state unrecoverable")
}

// TestCheckpointRestoreRoundTrip pins checkpoint semantics: restore
// brings the durable image back bit-exactly and drops the cache, so the
// coherent view equals the checkpointed one.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dev := newTestDevice()
	r := dev.Alloc("data", 4096)
	vals := make([]int32, 1024)
	for i := range vals {
		vals[i] = int32(i * 3)
	}
	r.HostWriteI32s(vals)
	ck := CaptureCheckpoint(dev.Mem())

	dev.Launch("clobber", gpusim.D1(8), gpusim.D1(128), func(b *gpusim.Block) {
		b.ForAll(func(th *gpusim.Thread) {
			th.StoreU32(r, th.GlobalLinear(), 0xdead)
		})
	})
	dev.Mem().FlushAll()

	ck.Restore()
	for i := range vals {
		if got := r.PeekU32(i); got != uint32(vals[i]) {
			t.Fatalf("after restore, data[%d] = %d, want %d", i, got, vals[i])
		}
		if got := r.NVMU32(i); got != uint32(vals[i]) {
			t.Fatalf("after restore, durable data[%d] = %d, want %d", i, got, vals[i])
		}
	}
}

// TestConcurrentRecoveryIndependentSystems drives full
// launch→crash→validate→recover pipelines from several goroutines on
// independent simulated systems. Run under -race this is the regression
// test for the Validate phase-2 result aggregation (disjoint per-region
// marks, no shared append) and for any accidental package-level state.
func TestConcurrentRecoveryIndependentSystems(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			dev := newTestDevice()
			grid, blk := gpusim.D1(64), gpusim.D1(64)
			out := dev.Alloc("out", grid.Size()*blk.Size()*4)
			out.HostZero()
			lp := New(dev, DefaultConfig(), grid, blk)
			kernel := func(b *gpusim.Block) {
				r := lp.Begin(b)
				b.ForAll(func(th *gpusim.Thread) {
					v := uint32(th.GlobalLinear())*2654435761 + seed
					th.StoreU32(out, th.GlobalLinear(), v)
					r.Update(th, v)
				})
				r.Commit()
			}
			dev.Launch("fill", grid, blk, kernel)
			dev.Mem().Crash()
			if _, err := lp.ValidateAndRecover(kernel, func(b *gpusim.Block, r *Region) {
				b.ForAll(func(th *gpusim.Thread) {
					r.Update(th, th.LoadU32(out, th.GlobalLinear()))
				})
			}, 4); err != nil {
				errs <- err
			}
		}(uint32(g) * 1000003)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// abortLaunch arms dev to crash the first launch named name after its
// first block retires: CrashAfter armed from the heartbeat applies to the
// launch in flight, crashing the hierarchy at that block boundary.
func abortLaunch(dev *gpusim.Device, name string) {
	dev.SetHeartbeat(func(hb gpusim.Heartbeat) {
		if hb.Launch == name {
			dev.SetHeartbeat(nil)
			dev.CrashAfter(1)
		}
	})
}

// TestRecoveryInterruptedLaunchRule pins the rule every recovery entry
// point shares: an interrupted validation or repair launch ends recovery
// with a typed ErrUnrecoverable error instead of acting on a partial
// verdict, and the interrupted validation still counts as a round.
func TestRecoveryInterruptedLaunchRule(t *testing.T) {
	cases := []struct {
		name    string
		arm     func(dev *gpusim.Device)
		recover func(lp *LP, kernel gpusim.KernelFunc, rec RecomputeFunc) (RecoveryReport, error)
		rounds  int
		wantErr string
	}{
		{"validate-and-recover/validation", func(dev *gpusim.Device) { abortLaunch(dev, "lp-validate") },
			func(lp *LP, k gpusim.KernelFunc, rec RecomputeFunc) (RecoveryReport, error) {
				return lp.ValidateAndRecover(k, rec, 3)
			}, 1, "core: validation launch aborted (1/64 blocks): persistent state unrecoverable"},
		{"hardened/validation", func(dev *gpusim.Device) { dev.CrashAfter(5) },
			func(lp *LP, k gpusim.KernelFunc, rec RecomputeFunc) (RecoveryReport, error) {
				return lp.RecoverHardened(k, rec, RecoverOpts{})
			}, 1, "core: validation launch aborted (5/64 blocks): persistent state unrecoverable"},
		{"validate-and-recover/repair", func(dev *gpusim.Device) { abortLaunch(dev, "lp-recover") },
			func(lp *LP, k gpusim.KernelFunc, rec RecomputeFunc) (RecoveryReport, error) {
				return lp.ValidateAndRecover(k, rec, 3)
			}, 1, "core: repair launch aborted (1/64 blocks): persistent state unrecoverable"},
		{"hardened/full-grid repair", func(dev *gpusim.Device) { abortLaunch(dev, "lp-recover-full") },
			func(lp *LP, k gpusim.KernelFunc, rec RecomputeFunc) (RecoveryReport, error) {
				return lp.RecoverHardened(k, rec, RecoverOpts{MaxRounds: -1})
			}, 0, "core: repair launch aborted (1/64 blocks): persistent state unrecoverable"},
		{"recover-blocks/repair", func(dev *gpusim.Device) { abortLaunch(dev, "lp-shard-recover") },
			func(lp *LP, k gpusim.KernelFunc, rec RecomputeFunc) (RecoveryReport, error) {
				return lp.RecoverBlocks(k, rec, []int{2, 3}, ShardRecoverOpts{})
			}, 1, "core: shard repair launch aborted (1/2 blocks): persistent state unrecoverable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, lp, _, _, kernel, rec := guardSystem(t)
			dev.Launch("guard", lp.grid, lp.blk, kernel)
			dev.Mem().Crash()
			tc.arm(dev)
			rep, err := tc.recover(lp, kernel, rec)
			if !errors.Is(err, ErrUnrecoverable) || err.Error() != tc.wantErr {
				t.Fatalf("error = %v, want %q", err, tc.wantErr)
			}
			if rep.Rounds != tc.rounds {
				t.Fatalf("rounds = %d, want %d (%+v)", rep.Rounds, tc.rounds, plainReport(rep))
			}
		})
	}
}

// TestRecoveryErroredValidationCountsRule pins the other shared rule: a
// validation that errors before it launches still counts as a round, in
// every entry point.
func TestRecoveryErroredValidationCountsRule(t *testing.T) {
	_, lp, _, _, kernel, _ := guardSystem(t)
	reps := map[string]func() (RecoveryReport, error){
		"validate-and-recover": func() (RecoveryReport, error) { return lp.ValidateAndRecover(kernel, nil, 3) },
		"hardened":             func() (RecoveryReport, error) { return lp.RecoverHardened(kernel, nil, RecoverOpts{}) },
		"recover-blocks": func() (RecoveryReport, error) {
			return lp.RecoverBlocks(kernel, nil, []int{1}, ShardRecoverOpts{})
		},
	}
	for name, run := range reps {
		rep, err := run()
		if !errors.Is(err, ErrStoreCorrupt) {
			t.Fatalf("%s: error = %v, want ErrStoreCorrupt", name, err)
		}
		if rep.Rounds != 1 || len(rep.FailedPerRound) != 0 || rep.ValidateCycles != 0 {
			t.Fatalf("%s: report %+v, want one counted round with no verdict", name, plainReport(rep))
		}
	}
}
