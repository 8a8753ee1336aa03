package pmodel_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// newSystem builds the standard test platform: a 256 KiB cache so real
// runs leave genuinely un-persisted lines behind at a crash.
func newSystem() (*memsim.Memory, *gpusim.Device) {
	mcfg := memsim.DefaultConfig()
	mcfg.CacheBytes = 256 << 10
	mem := memsim.MustNew(mcfg)
	return mem, gpusim.MustNew(gpusim.DefaultConfig(), mem)
}

// goldenOutputs runs the workload bare on a fresh system and returns
// its durable outputs.
func goldenOutputs(t *testing.T, name string) [][]byte {
	t.Helper()
	mem, dev := newSystem()
	w := kernels.New(name, 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	dev.Launch(name, grid, blk, w.Kernel(nil))
	if f, ok := w.(kernels.Finalizer); ok {
		n, fg, fb, k := f.FinalizeKernel()
		dev.Launch(n, fg, fb, k)
	}
	mem.FlushAll()
	if err := w.Verify(); err != nil {
		t.Fatalf("golden run of %s is itself wrong: %v", name, err)
	}
	out := make([][]byte, 0, len(w.Outputs()))
	for _, r := range w.Outputs() {
		out = append(out, mem.PeekNVM(r.Base, r.Size))
	}
	return out
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestModelCleanRun drives every registered model through a fault-free
// tmm run: the instrumented kernel must not perturb the computation,
// and after a full flush the durable-image contract must report zero
// damage.
func TestModelCleanRun(t *testing.T) {
	for _, spec := range pmodel.Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mem, dev := newSystem()
			w := kernels.New("tmm", 1)
			w.Setup(dev)
			grid, blk := w.Geometry()
			m := spec.New(dev, w, pmodel.Options{})
			if m.Name() != spec.Name {
				t.Fatalf("model.Name() = %q, want %q", m.Name(), spec.Name)
			}
			if m.MetadataBytes() <= 0 {
				t.Fatalf("%s: MetadataBytes() = %d, want > 0", spec.Name, m.MetadataBytes())
			}
			if len(m.MetadataRegions()) == 0 {
				t.Fatalf("%s: no metadata regions", spec.Name)
			}
			dev.Launch("tmm", grid, blk, m.Kernel())
			mem.FlushAll()
			if err := w.Verify(); err != nil {
				t.Fatalf("%s: instrumented run is wrong: %v", spec.Name, err)
			}
			if damaged := m.PredictDamage(mem.SnapshotNVM()); len(damaged) != 0 {
				t.Fatalf("%s: clean flushed run predicts damage %v", spec.Name, damaged)
			}
		})
	}
}

// TestModelCrashRecovery is the end-to-end contract: crash tmm halfway
// through the grid, predict the damage set from the raw durable image
// alone, recover, and demand (a) prediction == recovery's report and
// (b) a durable image bit-exact with a fault-free run.
func TestModelCrashRecovery(t *testing.T) {
	golden := goldenOutputs(t, "tmm")
	for _, spec := range pmodel.Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mem, dev := newSystem()
			w := kernels.New("tmm", 1)
			w.Setup(dev)
			grid, blk := w.Geometry()
			m := spec.New(dev, w, pmodel.Options{})
			dev.CrashAfter(grid.Size() / 2)
			dev.Launch("tmm", grid, blk, m.Kernel())

			predicted := m.PredictDamage(mem.SnapshotNVM())
			rep, err := m.Recover()
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", spec.Name, err)
			}
			if !equalIntSlices(predicted, rep.Damaged) {
				t.Fatalf("%s: PredictDamage = %v but recovery repaired %v — the durable-state contract is broken",
					spec.Name, predicted, rep.Damaged)
			}
			if len(predicted) == 0 {
				t.Fatalf("%s: mid-kernel crash after %d/%d blocks predicted no damage", spec.Name, grid.Size()/2, grid.Size())
			}
			mem.FlushAll()
			for i, r := range w.Outputs() {
				if !bytes.Equal(mem.PeekNVM(r.Base, r.Size), golden[i]) {
					t.Fatalf("%s: recovered image of %s diverges from fault-free golden", spec.Name, r.Name)
				}
			}
		})
	}
}

// TestLPAdapterBitIdentical pins the refactor's central promise: an LP
// run through the pmodel adapter is byte-for-byte the run the core
// package produces directly — same instrumented kernel, same cycles,
// same durable image.
func TestLPAdapterBitIdentical(t *testing.T) {
	memA, devA := newSystem()
	wA := kernels.New("tmm", 1)
	wA.Setup(devA)
	grid, blk := wA.Geometry()
	m := pmodel.MustLookup("lp").New(devA, wA, pmodel.Options{})
	resA := devA.Launch("tmm", grid, blk, m.Kernel())

	memB, devB := newSystem()
	wB := kernels.New("tmm", 1)
	wB.Setup(devB)
	lp := core.New(devB, core.DefaultConfig(), grid, blk)
	resB := devB.Launch("tmm", grid, blk, wB.Kernel(lp))

	if resA.Cycles != resB.Cycles {
		t.Fatalf("adapter run took %d cycles, direct run %d", resA.Cycles, resB.Cycles)
	}
	if !bytes.Equal(memA.SnapshotNVM(), memB.SnapshotNVM()) {
		t.Fatal("adapter and direct LP runs leave different durable images")
	}
}

// TestLPFusionContract holds lp to its durable-state contract with fused
// regions: after a half-grid tmm crash at Fusion 2, PredictDamage and
// Recover name the same damage, in blocks — every fusion group whole —
// and the outputs recover to the golden bytes.
func TestLPFusionContract(t *testing.T) {
	golden := goldenOutputs(t, "tmm")
	mem, dev := newSystem()
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	cfg := core.DefaultConfig()
	cfg.Fusion = 2
	m := pmodel.MustLookup("lp").New(dev, w, pmodel.Options{LP: &cfg})
	dev.CrashAfter(grid.Size() / 2)
	dev.Launch("tmm", grid, blk, m.Kernel())

	predicted := m.PredictDamage(mem.NVMImage())
	rep, err := m.Recover()
	if err != nil {
		t.Fatalf("fused recovery failed: %v", err)
	}
	if !equalIntSlices(predicted, rep.Damaged) {
		t.Fatalf("Fusion 2: PredictDamage names %d units, recovery repaired %d blocks", len(predicted), len(rep.Damaged))
	}
	if len(predicted) < grid.Size()/2 {
		t.Fatalf("half-grid crash of %d blocks predicted %d damaged blocks, want at least %d", grid.Size(), len(predicted), grid.Size()/2)
	}
	for i := 0; i < len(predicted); i += 2 {
		if blk := predicted[i]; blk%2 != 0 || i+1 == len(predicted) || predicted[i+1] != blk+1 {
			t.Fatalf("damage %v… does not list whole fusion groups at %d", predicted[:i+2], i)
		}
	}
	mem.FlushAll()
	for i, r := range w.Outputs() {
		if !bytes.Equal(mem.PeekNVM(r.Base, r.Size), golden[i]) {
			t.Fatalf("fused recovery of %s diverges from golden", r.Name)
		}
	}
}

// TestLPPredictionLeavesRecoveryCost: lp's PredictDamage launches a
// recompute that loads the outputs into the cache, but a following
// Recover must report exactly what it reports without the prediction,
// and charge exactly what core's RecoverHardened charges on an identical
// crashed system — one validation per round, on the cache the crash
// left.
func TestLPPredictionLeavesRecoveryCost(t *testing.T) {
	for _, name := range []string{"spmv", "tmm"} {
		t.Run(name, func(t *testing.T) {
			// crashed binds kernel name's instrumented run on a fresh
			// system and crashes it halfway through the grid.
			crashed := func(bind func(dev *gpusim.Device, w kernels.Workload) gpusim.KernelFunc) *memsim.Memory {
				mem, dev := newSystem()
				w := kernels.New(name, 1)
				w.Setup(dev)
				grid, blk := w.Geometry()
				kernel := bind(dev, w)
				dev.CrashAfter(grid.Size() / 2)
				dev.Launch(name, grid, blk, kernel)
				return mem
			}
			viaModel := func(predict bool) pmodel.Report {
				var m pmodel.Model
				mem := crashed(func(dev *gpusim.Device, w kernels.Workload) gpusim.KernelFunc {
					m = pmodel.MustLookup("lp").New(dev, w, pmodel.Options{Checkpoint: true})
					return m.Kernel()
				})
				if predict {
					m.PredictDamage(mem.NVMImage())
				}
				rep, err := m.Recover()
				if err != nil {
					t.Fatalf("lp recovery failed: %v", err)
				}
				return rep
			}
			summary := func(r pmodel.Report) string {
				return fmt.Sprintf("%d cycles, %d rounds, %s tier, %d damaged blocks", r.Cycles, r.Rounds, r.Tier, len(r.Damaged))
			}
			predicted, plain := viaModel(true), viaModel(false)
			if !reflect.DeepEqual(predicted, plain) {
				t.Fatalf("a preceding PredictDamage changed recovery: %s with it, %s without", summary(predicted), summary(plain))
			}

			var lp *core.LP
			var ck *core.Checkpoint
			var kernel gpusim.KernelFunc
			var recompute core.RecomputeFunc
			crashed(func(dev *gpusim.Device, w kernels.Workload) gpusim.KernelFunc {
				grid, blk := w.Geometry()
				lp = core.New(dev, core.DefaultConfig(), grid, blk)
				ck = core.CaptureCheckpoint(dev.Mem())
				kernel, recompute = w.Kernel(lp), w.Recompute()
				return kernel
			})
			direct, err := lp.RecoverHardened(kernel, recompute, core.RecoverOpts{Checkpoint: ck})
			if err != nil {
				t.Fatalf("direct recovery failed: %v", err)
			}
			if predicted.Cycles != direct.TotalCycles() || predicted.Rounds != direct.Rounds ||
				predicted.Tier != string(direct.Tier) || !equalIntSlices(predicted.Damaged, direct.FirstFailed) {
				t.Fatalf("lp model recovery: %s; direct RecoverHardened: %v", summary(predicted), direct)
			}
		})
	}
}

// TestEPAdapterBitIdentical pins the ep model's tmm run on the standard
// platform to recorded literals — launch cycles, the SHA-256 of the
// whole durable image, and the metadata footprint — so any change to
// the redo-log pipeline that moves one of them fails here.
func TestEPAdapterBitIdentical(t *testing.T) {
	mem, dev := newSystem()
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	m := pmodel.MustLookup("ep").New(dev, w, pmodel.Options{})
	res := dev.Launch("tmm", grid, blk, m.Kernel())

	if res.Cycles != 32463 {
		t.Fatalf("ep tmm run took %d cycles, want 32463", res.Cycles)
	}
	const wantImage = "e5c7ae7e8627942ef5fe94da9d5e51d6580afaed4fb867be63a19e039d9270ad"
	if got := fmt.Sprintf("%x", sha256.Sum256(mem.SnapshotNVM())); got != wantImage {
		t.Fatalf("ep tmm durable image SHA-256 = %s, want %s", got, wantImage)
	}
	if got := m.MetadataBytes(); got != 4202496 {
		t.Fatalf("ep tmm MetadataBytes = %d, want 4202496", got)
	}
}

// pingpong is a synthetic workload whose consecutive stores alternate
// between two cache lines per block — the worst case for a bounded
// persist buffer. A one-line SBRP buffer must thrash (evict and
// re-flush the same lines over and over); a two-line buffer coalesces
// everything until the release drain.
type pingpong struct {
	out       memsim.Region
	grid, blk gpusim.Dim3
	lineElems int
}

func newPingpong(dev *gpusim.Device) *pingpong {
	p := &pingpong{
		grid:      gpusim.D1(4),
		blk:       gpusim.D1(16),
		lineElems: dev.Mem().Config().LineSize / 4,
	}
	p.out = dev.Alloc("pingpong.out", p.grid.Size()*2*p.lineElems*4)
	p.out.HostZero()
	return p
}

func (p *pingpong) Name() string                         { return "pingpong" }
func (p *pingpong) Geometry() (gpusim.Dim3, gpusim.Dim3) { return p.grid, p.blk }
func (p *pingpong) Recompute() core.RecomputeFunc        { return nil }
func (p *pingpong) Outputs() []memsim.Region             { return []memsim.Region{p.out} }

func (p *pingpong) Kernel(lp *core.LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		base := b.LinearIdx * 2 * p.lineElems
		b.ForAll(func(t *gpusim.Thread) {
			// Even threads hit line 0, odd threads line 1, in thread
			// order: 0,1,0,1,... — strict line alternation.
			idx := base + (t.Linear%2)*p.lineElems + t.Linear/2
			t.StoreU32(p.out, idx, uint32(t.GlobalLinear()+1))
		})
	}
}

// TestSBRPBufferSpill forces the persist buffer's eviction path: under
// line-alternating stores a one-line buffer must thrash (strictly more
// NVM line writes than a buffer wide enough to coalesce) and still
// recover bit-exact from a mid-kernel crash.
func TestSBRPBufferSpill(t *testing.T) {
	nvmWrites := func(buffer int) int64 {
		mem, dev := newSystem()
		w := newPingpong(dev)
		grid, blk := w.Geometry()
		m := pmodel.MustLookup("sbrp").New(dev, w, pmodel.Options{SBRPBuffer: buffer})
		mem.ResetStats()
		dev.Launch(w.Name(), grid, blk, m.Kernel())
		mem.FlushAll()
		return mem.Stats().NVMLineWrites
	}
	tiny, wide := nvmWrites(1), nvmWrites(2)
	if tiny <= wide {
		t.Fatalf("one-line buffer wrote %d NVM lines, two-line buffer %d — the spill path never ran", tiny, wide)
	}

	golden := goldenOutputs(t, "tmm")
	mem, dev := newSystem()
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	m := pmodel.MustLookup("sbrp").New(dev, w, pmodel.Options{SBRPBuffer: 1})
	dev.CrashAfter(grid.Size() / 2)
	dev.Launch("tmm", grid, blk, m.Kernel())
	predicted := m.PredictDamage(mem.SnapshotNVM())
	rep, err := m.Recover()
	if err != nil {
		t.Fatalf("sbrp buffer=1 recovery failed: %v", err)
	}
	if !equalIntSlices(predicted, rep.Damaged) {
		t.Fatalf("sbrp buffer=1: PredictDamage = %v, recovery repaired %v", predicted, rep.Damaged)
	}
	mem.FlushAll()
	for i, r := range w.Outputs() {
		if !bytes.Equal(mem.PeekNVM(r.Base, r.Size), golden[i]) {
			t.Fatalf("sbrp buffer=1: recovered image of %s diverges from golden", r.Name)
		}
	}
}

// TestStrictOrdering checks strict persistency's defining property: at
// any crash point, at most the in-flight lines are lost, so even a
// crash with no blocks retired predicts the full grid and recovers.
func TestStrictOrdering(t *testing.T) {
	golden := goldenOutputs(t, "tmm")
	mem, dev := newSystem()
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	m := pmodel.MustLookup("strict").New(dev, w, pmodel.Options{})
	dev.CrashAfter(1)
	dev.Launch("tmm", grid, blk, m.Kernel())
	predicted := m.PredictDamage(mem.SnapshotNVM())
	if want := grid.Size() - 1; len(predicted) != want {
		t.Fatalf("strict: crash after 1 block predicts %d damaged blocks, want %d", len(predicted), want)
	}
	rep, err := m.Recover()
	if err != nil {
		t.Fatalf("strict recovery failed: %v", err)
	}
	if !equalIntSlices(predicted, rep.Damaged) {
		t.Fatalf("strict: PredictDamage = %v, recovery repaired %v", predicted, rep.Damaged)
	}
	mem.FlushAll()
	for i, r := range w.Outputs() {
		if !bytes.Equal(mem.PeekNVM(r.Base, r.Size), golden[i]) {
			t.Fatalf("strict: recovered image of %s diverges from golden", r.Name)
		}
	}
}

// TestFlagReexecInterrupted holds the flag models' recovery entries to
// the typed-error rule: a crash that interrupts the re-execution leaves
// blocks unrepaired, so Recover and RecoverShard must both return an
// error wrapping core.ErrUnrecoverable, never a clean report.
func TestFlagReexecInterrupted(t *testing.T) {
	for _, name := range []string{"ep", "sbrp", "strict"} {
		for _, entry := range []string{"Recover", "RecoverShard"} {
			t.Run(name+"/"+entry, func(t *testing.T) {
				mem, dev := newSystem()
				w := kernels.New("tmm", 1)
				w.Setup(dev)
				grid, blk := w.Geometry()
				m := pmodel.MustLookup(name).New(dev, w, pmodel.Options{})
				dev.CrashAfter(grid.Size() / 2)
				dev.Launch("tmm", grid, blk, m.Kernel())
				damaged := m.PredictDamage(mem.SnapshotNVM())
				if len(damaged) < 2 {
					t.Fatalf("mid-kernel crash left %d damaged blocks, want at least 2", len(damaged))
				}
				dev.CrashAfter(1) // the re-execution dies after one block
				var err error
				if entry == "Recover" {
					_, err = m.Recover()
				} else {
					_, err = m.RecoverShard(damaged, 0)
				}
				if !errors.Is(err, core.ErrUnrecoverable) {
					t.Fatalf("interrupted re-execution returned %v, want an error wrapping core.ErrUnrecoverable", err)
				}
			})
		}
	}
}
