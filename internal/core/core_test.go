package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/memsim"
)

func newTestDevice() *gpusim.Device {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 4
	return gpusim.MustNew(cfg, memsim.MustNew(memsim.Config{
		LineSize: 128, CacheBytes: 256 << 10, Ways: 8,
		NVMReadNS: 160, NVMWriteNS: 480, NVMBandwidthGBs: 326.4,
	}))
}

// fillKernel is a minimal LP-protected workload: each thread stores a
// deterministic value derived from its global id and folds it into the
// region explicitly (the Listing 2 style).
func fillKernel(out memsim.Region, lp *LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			gid := t.GlobalLinear()
			v := uint32(gid)*2654435761 + 12345
			t.StoreU32(out, gid, v)
			r.Update(t, v)
		})
		r.Commit()
	}
}

// fillRecompute reloads each block's outputs and refolds them.
func fillRecompute(out memsim.Region) RecomputeFunc {
	return func(b *gpusim.Block, r *Region) {
		b.ForAll(func(t *gpusim.Thread) {
			v := t.LoadU32(out, t.GlobalLinear())
			r.Update(t, v)
		})
	}
}

func allLPConfigs() []Config {
	var out []Config
	for _, st := range []hashtab.Kind{hashtab.Quad, hashtab.Cuckoo, hashtab.GlobalArray} {
		for _, lm := range []hashtab.LockMode{hashtab.LockFree, hashtab.LockBased, hashtab.NoAtomic} {
			for _, red := range []Reduction{ReduceShuffle, ReduceSequential} {
				out = append(out, Config{Checksum: checksum.Dual, Store: st, LockMode: lm, Reduction: red, Seed: 5})
			}
		}
	}
	return out
}

func TestValidationPassesAfterCleanRun(t *testing.T) {
	for _, cfg := range allLPConfigs() {
		name := fmt.Sprintf("%v-%v-%v", cfg.Store, cfg.LockMode, cfg.Reduction)
		t.Run(name, func(t *testing.T) {
			dev := newTestDevice()
			grid, blk := gpusim.D1(64), gpusim.D1(64)
			out := dev.Alloc("out", grid.Size()*blk.Size()*4)
			out.HostZero()
			lp := New(dev, cfg, grid, blk)
			dev.Launch("fill", grid, blk, fillKernel(out, lp))
			// No crash: everything coherent, so validation (which reads
			// through the cache) must pass for every block.
			failed, _, _ := lp.Validate(fillRecompute(out))
			if len(failed) != 0 {
				t.Fatalf("clean run failed validation for %d blocks: %v...", len(failed), failed[:min(len(failed), 5)])
			}
		})
	}
}

func TestCrashRecoveryRestoresOutput(t *testing.T) {
	dev := newTestDevice()
	grid, blk := gpusim.D1(256), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	out := dev.Alloc("out", n*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	kernel := fillKernel(out, lp)

	dev.Launch("fill", grid, blk, kernel)

	// Golden: the coherent (pre-crash logical) contents.
	golden := make([]uint32, n)
	for i := range golden {
		golden[i] = out.PeekU32(i)
	}

	dev.Mem().Crash() // dirty lines lost

	failed, _, _ := lp.Validate(fillRecompute(out))
	if len(failed) == 0 {
		t.Skip("crash lost nothing at this scale; cannot exercise recovery")
	}
	rep, err := lp.ValidateAndRecover(kernel, fillRecompute(out), 4)
	if err != nil {
		t.Fatalf("recovery failed: %v (%v)", err, rep)
	}
	for i := range golden {
		if got := out.PeekU32(i); got != golden[i] {
			t.Fatalf("out[%d] = %d after recovery, want %d", i, got, golden[i])
		}
	}
	if rep.FailedPerRound[0] != len(failed) {
		t.Errorf("report first round %d != observed %d", rep.FailedPerRound[0], len(failed))
	}
	t.Logf("%v", rep)
}

func TestRecoveredStateIsDurable(t *testing.T) {
	dev := newTestDevice()
	grid, blk := gpusim.D1(128), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	out := dev.Alloc("out", n*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	kernel := fillKernel(out, lp)

	dev.Launch("fill", grid, blk, kernel)
	dev.Mem().Crash()
	if _, err := lp.ValidateAndRecover(kernel, fillRecompute(out), 4); err != nil {
		t.Fatal(err)
	}
	// Eager recovery flushes: a second crash immediately after recovery
	// must lose nothing.
	dev.Mem().Crash()
	failed, _, _ := lp.Validate(fillRecompute(out))
	if len(failed) != 0 {
		t.Fatalf("%d blocks invalid after post-recovery crash; eager recovery did not persist", len(failed))
	}
}

func TestValidationDetectsLostChecksumStore(t *testing.T) {
	// Even when all data persisted, a lost checksum insertion must fail
	// validation (the checksum store is itself lazily persisted).
	dev := newTestDevice()
	grid, blk := gpusim.D1(8), gpusim.D1(32)
	out := dev.Alloc("out", grid.Size()*blk.Size()*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	dev.Launch("fill", grid, blk, fillKernel(out, lp))
	// Persist everything, then clobber the checksum table durably.
	dev.Mem().FlushAll()
	lp.Store().Clear()
	dev.Mem().Crash()
	failed, _, _ := lp.Validate(fillRecompute(out))
	if len(failed) != grid.Size() {
		t.Errorf("%d blocks failed, want all %d (checksums were wiped)", len(failed), grid.Size())
	}
}

func TestInstrumentMatchesExplicit(t *testing.T) {
	// The store-hook instrumentation must produce the same checksums as
	// hand-written Update calls: a clean instrumented run validates.
	dev := newTestDevice()
	grid, blk := gpusim.D1(32), gpusim.D1(64)
	out := dev.Alloc("out", grid.Size()*blk.Size()*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)

	plain := func(b *gpusim.Block) {
		b.ForAll(func(t *gpusim.Thread) {
			gid := t.GlobalLinear()
			t.StoreF32(out, gid, float32(gid)*1.5)
		})
	}
	dev.Launch("fill", grid, blk, lp.Instrument(plain, out))
	failed, _, _ := lp.Validate(fillRecompute(out))
	if len(failed) != 0 {
		t.Fatalf("instrumented run failed validation for %d blocks", len(failed))
	}
}

func TestInstrumentIgnoresUnprotectedRegions(t *testing.T) {
	dev := newTestDevice()
	grid, blk := gpusim.D1(4), gpusim.D1(32)
	out := dev.Alloc("out", grid.Size()*blk.Size()*4)
	scratch := dev.Alloc("scratch", grid.Size()*blk.Size()*4)
	out.HostZero()
	scratch.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)

	kernel := func(b *gpusim.Block) {
		b.ForAll(func(t *gpusim.Thread) {
			gid := t.GlobalLinear()
			t.StoreU32(scratch, gid, 0xdead) // unprotected: must not affect checksums
			t.StoreU32(out, gid, uint32(gid))
		})
	}
	dev.Launch("fill", grid, blk, lp.Instrument(kernel, out))
	failed, _, _ := lp.Validate(fillRecompute(out))
	if len(failed) != 0 {
		t.Fatalf("scratch stores leaked into checksums: %d blocks failed", len(failed))
	}
}

func TestInstrumentValidation(t *testing.T) {
	dev := newTestDevice()
	lp := New(dev, DefaultConfig(), gpusim.D1(1), gpusim.D1(32))
	t.Run("nil kernel", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		lp.Instrument(nil, memsim.Region{})
	})
	t.Run("no regions", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		lp.Instrument(func(b *gpusim.Block) {}, []memsim.Region{}...)
	})
}

func TestNilRuntimeIsInert(t *testing.T) {
	dev := newTestDevice()
	out := dev.Alloc("out", 32*4)
	out.HostZero()
	var lp *LP
	res := dev.Launch("baseline", gpusim.D1(1), gpusim.D1(32), func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			t.StoreU32(out, t.Linear, 1)
			r.Update(t, 1)
			r.UpdateF32(t, 2.0)
		})
		r.Commit()
	})
	if res.Blocks != 1 {
		t.Fatal("baseline did not run")
	}
	for i := 0; i < 32; i++ {
		if out.PeekU32(i) != 1 {
			t.Fatal("baseline kernel body broken")
		}
	}
}

func TestGeometryMismatchPanics(t *testing.T) {
	dev := newTestDevice()
	lp := New(dev, DefaultConfig(), gpusim.D1(4), gpusim.D1(32))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched geometry")
		}
	}()
	dev.Launch("bad", gpusim.D1(4), gpusim.D1(64), func(b *gpusim.Block) {
		lp.Begin(b)
	})
}

func TestNewValidatesGeometry(t *testing.T) {
	dev := newTestDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty grid")
		}
	}()
	New(dev, DefaultConfig(), gpusim.D1(0), gpusim.D1(32))
}

func TestValidateNilRecomputeTypedError(t *testing.T) {
	dev := newTestDevice()
	lp := New(dev, DefaultConfig(), gpusim.D1(1), gpusim.D1(32))
	_, _, err := lp.Validate(nil)
	if !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("Validate(nil) = %v, want ErrStoreCorrupt", err)
	}
}

func TestChecksumKindsValidate(t *testing.T) {
	for _, kind := range []checksum.Kind{checksum.Parity, checksum.Modular, checksum.Dual} {
		t.Run(kind.String(), func(t *testing.T) {
			dev := newTestDevice()
			grid, blk := gpusim.D1(16), gpusim.D1(64)
			out := dev.Alloc("out", grid.Size()*blk.Size()*4)
			out.HostZero()
			cfg := DefaultConfig()
			cfg.Checksum = kind
			lp := New(dev, cfg, grid, blk)
			dev.Launch("fill", grid, blk, fillKernel(out, lp))
			failed, _, _ := lp.Validate(fillRecompute(out))
			if len(failed) != 0 {
				t.Fatalf("%v: clean run failed validation (%d blocks)", kind, len(failed))
			}
		})
	}
}

func TestAdler32Rejected(t *testing.T) {
	dev := newTestDevice()
	cfg := DefaultConfig()
	cfg.Checksum = checksum.Adler32
	defer func() {
		if recover() == nil {
			t.Fatal("order-sensitive Adler-32 must be rejected for GPU LP")
		}
	}()
	New(dev, cfg, gpusim.D1(4), gpusim.D1(32))
}

func TestDualChecksumCostsMoreThanSingle(t *testing.T) {
	run := func(kind checksum.Kind) int64 {
		dev := newTestDevice()
		grid, blk := gpusim.D1(64), gpusim.D1(64)
		out := dev.Alloc("out", grid.Size()*blk.Size()*4)
		out.HostZero()
		cfg := DefaultConfig()
		cfg.Checksum = kind
		lp := New(dev, cfg, grid, blk)
		return dev.Launch("fill", grid, blk, fillKernel(out, lp)).Cycles
	}
	parity, dual := run(checksum.Parity), run(checksum.Dual)
	if dual <= parity {
		t.Errorf("dual (%d cycles) not more expensive than parity alone (%d)", dual, parity)
	}
	// §VII-2: the bump should be minor, not a doubling.
	if float64(dual) > 1.5*float64(parity) {
		t.Errorf("dual checksum cost blow-up: %d vs %d cycles", dual, parity)
	}
}

func TestSequentialReductionSlowerThanShuffle(t *testing.T) {
	run := func(red Reduction) int64 {
		dev := newTestDevice()
		grid, blk := gpusim.D1(128), gpusim.D1(256)
		out := dev.Alloc("out", grid.Size()*blk.Size()*4)
		out.HostZero()
		cfg := DefaultConfig()
		cfg.Reduction = red
		lp := New(dev, cfg, grid, blk)
		return dev.Launch("fill", grid, blk, fillKernel(out, lp)).Cycles
	}
	shfl, seq := run(ReduceShuffle), run(ReduceSequential)
	if seq <= shfl {
		t.Errorf("sequential reduction (%d cycles) not slower than shuffle (%d)", seq, shfl)
	}
}

func TestCheckpointBoundsValidation(t *testing.T) {
	dev := newTestDevice()
	grid, blk := gpusim.D1(64), gpusim.D1(64)
	out := dev.Alloc("out", grid.Size()*blk.Size()*4)
	out.HostZero()
	lp := New(dev, DefaultConfig(), grid, blk)
	dev.Launch("fill", grid, blk, fillKernel(out, lp))
	if n := lp.Checkpoint(); n == 0 {
		t.Error("checkpoint flushed nothing despite dirty lines")
	}
	dev.Mem().Crash()
	failed, _, _ := lp.Validate(fillRecompute(out))
	if len(failed) != 0 {
		t.Errorf("crash after checkpoint lost %d regions", len(failed))
	}
}

func TestRecoveryReportString(t *testing.T) {
	rep := RecoveryReport{Rounds: 1, FailedPerRound: []int{3, 0}, ValidateCycles: 10, RecoverCycles: 20}
	if rep.TotalCycles() != 30 || rep.String() == "" {
		t.Errorf("report accessors broken: %+v", rep)
	}
}

func TestReductionString(t *testing.T) {
	if ReduceShuffle.String() != "shuffle" || ReduceSequential.String() != "sequential" {
		t.Error("Reduction strings wrong")
	}
	if Reduction(9).String() == "" {
		t.Error("unknown reduction should format")
	}
}

func TestAccessors(t *testing.T) {
	dev := newTestDevice()
	grid, blk := gpusim.D1(4), gpusim.D1(32)
	lp := New(dev, DefaultConfig(), grid, blk)
	if lp.Grid() != grid || lp.Block() != blk {
		t.Error("geometry accessors wrong")
	}
	if lp.Config().Store != hashtab.GlobalArray {
		t.Error("config accessor wrong")
	}
	if lp.TableBytes() != lp.Store().TableBytes() {
		t.Error("TableBytes accessor inconsistent")
	}
}

// TestPropertyRecoveryAlwaysRestores: for arbitrary crash points
// (simulated by flushing a prefix of blocks then crashing), recovery
// restores the full golden output.
func TestPropertyRecoveryAlwaysRestores(t *testing.T) {
	f := func(seed uint64) bool {
		dev := newTestDevice()
		grid, blk := gpusim.D1(64), gpusim.D1(64)
		n := grid.Size() * blk.Size()
		out := dev.Alloc("out", n*4)
		out.HostZero()
		cfg := DefaultConfig()
		cfg.Seed = seed
		// Vary the store kind by seed for extra coverage.
		cfg.Store = []hashtab.Kind{hashtab.GlobalArray, hashtab.Quad, hashtab.Cuckoo}[seed%3]
		lp := New(dev, cfg, grid, blk)
		kernel := fillKernel(out, lp)
		dev.Launch("fill", grid, blk, kernel)
		golden := make([]uint32, n)
		for i := range golden {
			golden[i] = out.PeekU32(i)
		}
		dev.Mem().Crash()
		if _, err := lp.ValidateAndRecover(kernel, fillRecompute(out), 4); err != nil {
			return false
		}
		for i := range golden {
			if out.PeekU32(i) != golden[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
