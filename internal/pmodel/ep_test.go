package pmodel_test

import (
	"testing"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// The ep model's unit suite: the redo-log pipeline driven through the
// registry on a synthetic fill workload of any geometry.

func newEPDevice(cacheBytes int) *gpusim.Device {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 8
	memCfg := memsim.DefaultConfig()
	if cacheBytes > 0 {
		memCfg.CacheBytes = cacheBytes
	}
	return gpusim.MustNew(cfg, memsim.MustNew(memCfg))
}

// fillWord is the value global thread gid stores.
func fillWord(gid int) uint32 { return uint32(gid)*2654435761 + 7 }

// fill is a synthetic workload: each thread stores fillWord into out.
// With scratch allocated it first stores into scratch, which is not
// among the protected outputs.
type fill struct {
	grid, blk    gpusim.Dim3
	out, scratch memsim.Region
	outputs      []memsim.Region
}

func newFill(dev *gpusim.Device, grid, blk gpusim.Dim3) *fill {
	w := &fill{grid: grid, blk: blk}
	w.out = dev.Alloc("out", grid.Size()*blk.Size()*4)
	w.out.HostZero()
	w.outputs = []memsim.Region{w.out}
	return w
}

func (w *fill) Name() string                         { return "fill" }
func (w *fill) Geometry() (gpusim.Dim3, gpusim.Dim3) { return w.grid, w.blk }
func (w *fill) Recompute() core.RecomputeFunc        { return nil }
func (w *fill) Outputs() []memsim.Region             { return w.outputs }

func (w *fill) Kernel(*core.LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		b.ForAll(func(t *gpusim.Thread) {
			gid := t.GlobalLinear()
			if w.scratch.Size > 0 {
				t.StoreU32(w.scratch, gid, 1)
			}
			t.StoreU32(w.out, gid, fillWord(gid))
		})
	}
}

// bindEP binds the ep model to w with the given per-block log capacity.
func bindEP(dev *gpusim.Device, w pmodel.Workload, entries int) pmodel.Model {
	return pmodel.MustLookup("ep").New(dev, w, pmodel.Options{EPEntries: entries})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestEPNewValidation(t *testing.T) {
	dev := newEPDevice(0)
	t.Run("empty grid", func(t *testing.T) {
		w := &fill{grid: gpusim.D1(0), blk: gpusim.D1(32)}
		mustPanic(t, "binding an empty grid", func() { bindEP(dev, w, 4) })
	})
}

func TestEPWrapValidation(t *testing.T) {
	dev := newEPDevice(0)
	t.Run("nil kernel", func(t *testing.T) {
		w := &nilKernelFill{newFill(dev, gpusim.D1(1), gpusim.D1(32))}
		mustPanic(t, "binding a nil kernel", func() { bindEP(dev, w, 32) })
	})
	t.Run("no regions", func(t *testing.T) {
		w := newFill(dev, gpusim.D1(1), gpusim.D1(32))
		w.outputs = nil
		mustPanic(t, "binding no protected region", func() { bindEP(dev, w, 32) })
	})
}

// nilKernelFill is a fill whose kernel body is nil.
type nilKernelFill struct{ *fill }

func (w *nilKernelFill) Kernel(*core.LP) gpusim.KernelFunc { return nil }

func TestEPCommittedBlocksRecoverByReplay(t *testing.T) {
	// Small cache: data lines may be lost, but the flushed redo log and
	// commit flags survive, so replay restores everything without any
	// re-execution.
	dev := newEPDevice(32 << 10)
	grid, blk := gpusim.D1(64), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	w := newFill(dev, grid, blk)
	m := bindEP(dev, w, blk.Size())
	dev.Launch("fill", grid, blk, m.Kernel())

	dev.Mem().Crash()

	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damaged) != 0 {
		t.Fatalf("uncommitted blocks despite fenced commits: %v", rep.Damaged)
	}
	if rep.Replayed != n {
		t.Fatalf("replayed %d records, want %d", rep.Replayed, n)
	}
	if rep.Cycles != 0 {
		t.Fatalf("replay-only recovery charged %d re-execution cycles", rep.Cycles)
	}
	for i := 0; i < n; i++ {
		if got := w.out.NVMU32(i); got != fillWord(i) {
			t.Fatalf("durable out[%d] = %d after replay, want %d", i, got, fillWord(i))
		}
	}
}

func TestEPOverheadExceedsBaseline(t *testing.T) {
	grid, blk := gpusim.D1(128), gpusim.D1(64)
	run := func(ep bool) int64 {
		dev := newEPDevice(0)
		w := newFill(dev, grid, blk)
		kernel := w.Kernel(nil)
		if ep {
			kernel = bindEP(dev, w, blk.Size()).Kernel()
		}
		return dev.Launch("fill", grid, blk, kernel).Cycles
	}
	base, eager := run(false), run(true)
	if eager <= base {
		t.Errorf("EP (%d cycles) not slower than baseline (%d)", eager, base)
	}
}

func TestEPWriteAmplification(t *testing.T) {
	grid, blk := gpusim.D1(64), gpusim.D1(64)
	run := func(ep bool) int64 {
		dev := newEPDevice(0)
		w := newFill(dev, grid, blk)
		kernel := w.Kernel(nil)
		if ep {
			kernel = bindEP(dev, w, blk.Size()).Kernel()
		}
		dev.Mem().ResetStats()
		dev.Launch("fill", grid, blk, kernel)
		dev.Mem().FlushAll()
		return dev.Mem().Stats().NVMLineWrites
	}
	base, eager := run(false), run(true)
	// The redo log is 16B per 4B store: at least 4x the data volume.
	if eager < base*3 {
		t.Errorf("EP write amplification too low: %d vs baseline %d lines", eager, base)
	}
}

func TestEPLogOverflowPanics(t *testing.T) {
	dev := newEPDevice(0)
	grid, blk := gpusim.D1(1), gpusim.D1(32)
	w := newFill(dev, grid, blk)
	m := bindEP(dev, w, 8) // too small for 32 stores
	mustPanic(t, "log overflow", func() { dev.Launch("fill", grid, blk, m.Kernel()) })
}

func TestEPUnprotectedStoresNotLogged(t *testing.T) {
	dev := newEPDevice(0)
	grid, blk := gpusim.D1(2), gpusim.D1(32)
	w := newFill(dev, grid, blk)
	w.scratch = dev.Alloc("scratch", grid.Size()*blk.Size()*4)
	w.scratch.HostZero()
	m := bindEP(dev, w, blk.Size())
	dev.Launch("fill", grid, blk, m.Kernel())
	dev.Mem().Crash()
	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != grid.Size()*blk.Size() {
		t.Errorf("replayed %d, want %d (scratch stores must not be logged)", rep.Replayed, grid.Size()*blk.Size())
	}
}

func TestEPGeometryMismatchPanics(t *testing.T) {
	dev := newEPDevice(0)
	w := newFill(dev, gpusim.D1(2), gpusim.D1(32))
	m := bindEP(dev, w, 32)
	mustPanic(t, "a launch with mismatched geometry", func() {
		dev.Launch("bad", gpusim.D1(2), gpusim.D1(64), m.Kernel())
	})
}

// epFlags returns the ep model's commit-flag region: the second of its
// metadata regions, after the redo log.
func epFlags(t *testing.T, m pmodel.Model) memsim.Region {
	t.Helper()
	regions := m.MetadataRegions()
	if len(regions) != 2 || regions[1].Name != "ep.flags" {
		t.Fatalf("ep metadata regions = %v, want [ep.log ep.flags]", regions)
	}
	return regions[1]
}

func TestEPTornFlagBoundsReplay(t *testing.T) {
	// A flag claiming more entries than the per-block capacity (torn or
	// corrupted) must not read past the block's log segment.
	dev := newEPDevice(0)
	grid, blk := gpusim.D1(2), gpusim.D1(32)
	w := newFill(dev, grid, blk)
	m := bindEP(dev, w, blk.Size())
	dev.Launch("fill", grid, blk, m.Kernel())
	dev.Mem().FlushAll()
	// Corrupt block 0's flag to an absurd count.
	epFlags(t, m).HostPutU64(0, 1<<40)
	dev.Mem().Crash()
	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed > 64 {
		t.Errorf("replay ran past the log segments: %d records", rep.Replayed)
	}
}

func TestEPUncommittedBlocksReported(t *testing.T) {
	dev := newEPDevice(0)
	grid, blk := gpusim.D1(4), gpusim.D1(32)
	w := newFill(dev, grid, blk)
	m := bindEP(dev, w, blk.Size())
	dev.Launch("fill", grid, blk, m.Kernel())
	dev.Mem().FlushAll()
	// Durably clear block 2's commit flag: it must surface as uncommitted.
	epFlags(t, m).HostPutU64(2, 0)
	dev.Mem().Crash()
	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damaged) != 1 || rep.Damaged[0] != 2 {
		t.Errorf("uncommitted = %v, want [2]", rep.Damaged)
	}
	if committed := grid.Size() - len(rep.Damaged); committed != 3 {
		t.Errorf("committed = %d, want 3", committed)
	}
	if rep.Replayed != 3*blk.Size() {
		t.Errorf("replayed %d records, want %d (the three committed blocks)", rep.Replayed, 3*blk.Size())
	}
}

func TestEPLogBytes(t *testing.T) {
	dev := newEPDevice(0)
	w := newFill(dev, gpusim.D1(10), gpusim.D1(32))
	m := bindEP(dev, w, 16)
	logBytes := m.MetadataRegions()[0].Size
	if logBytes != 10*16*16 {
		t.Errorf("log bytes = %d, want %d", logBytes, 10*16*16)
	}
	if got, want := m.MetadataBytes(), int64(10*16*16+10*8); got != want {
		t.Errorf("MetadataBytes = %d, want %d (log plus one flag word per block)", got, want)
	}
}
