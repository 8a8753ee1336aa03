package kernels

import (
	"testing"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

func newTestDevice() *gpusim.Device {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 16
	return gpusim.MustNew(cfg, memsim.MustNew(memsim.DefaultConfig()))
}

// allNames covers the eight suite benchmarks plus the MEGA-KV ops.
var allNames = append(append([]string{}, Names...),
	"megakv-search", "megakv-insert", "megakv-delete", "megakv-mixed")

// runFull runs the workload's kernel (and finalize, if any) and returns
// the main launch result.
func runFull(dev *gpusim.Device, w Workload, lp *core.LP) gpusim.LaunchResult {
	grid, blk := w.Geometry()
	res := dev.Launch(w.Name(), grid, blk, w.Kernel(lp))
	if f, ok := w.(Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		dev.Launch(name, fg, fb, k)
	}
	return res
}

func TestBaselineOutputsMatchGolden(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			dev := newTestDevice()
			w := New(name, 1)
			w.Setup(dev)
			res := runFull(dev, w, nil)
			if res.Blocks == 0 || res.Cycles == 0 {
				t.Fatalf("empty launch: %+v", res)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLPOutputsMatchGoldenAndValidate(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			dev := newTestDevice()
			w := New(name, 1)
			w.Setup(dev)
			grid, blk := w.Geometry()
			lp := core.New(dev, core.DefaultConfig(), grid, blk)
			runFull(dev, w, lp)
			if err := w.Verify(); err != nil {
				t.Fatalf("LP run broke output: %v", err)
			}
			failed, _, _ := lp.Validate(w.Recompute())
			if len(failed) != 0 {
				t.Fatalf("clean LP run failed validation for %d/%d blocks", len(failed), grid.Size())
			}
		})
	}
}

func TestLPOverheadIsBounded(t *testing.T) {
	// The LP-protected run must be slower than baseline (it does more
	// work) but not catastrophically so with the paper's final design.
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			devB := newTestDevice()
			wb := New(name, 1)
			wb.Setup(devB)
			base := runFull(devB, wb, nil)

			devL := newTestDevice()
			wl := New(name, 1)
			wl.Setup(devL)
			grid, blk := wl.Geometry()
			lp := core.New(devL, core.DefaultConfig(), grid, blk)
			lpRes := runFull(devL, wl, lp)

			over := float64(lpRes.Cycles)/float64(base.Cycles) - 1
			if over < 0 {
				t.Errorf("LP run faster than baseline: %.2f%%", over*100)
			}
			if over > 0.30 {
				t.Errorf("global-array LP overhead %.1f%% exceeds 30%% bound", over*100)
			}
			t.Logf("%s: baseline %d cycles, LP %d cycles, overhead %.2f%%", name, base.Cycles, lpRes.Cycles, over*100)
		})
	}
}

func TestCrashRecoveryPerWorkload(t *testing.T) {
	// End-to-end §IV-A flow for every workload in the suite.
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			dev := newTestDevice()
			w := New(name, 1)
			w.Setup(dev)
			grid, blk := w.Geometry()
			lp := core.New(dev, core.DefaultConfig(), grid, blk)
			kernel := w.Kernel(lp)
			dev.Launch(w.Name(), grid, blk, kernel)

			dev.Mem().Crash()

			rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 4)
			if err != nil {
				t.Fatalf("recovery failed: %v (%v)", err, rep)
			}
			if f, ok := w.(Finalizer); ok {
				fname, fg, fb, k := f.FinalizeKernel()
				dev.Launch(fname, fg, fb, k)
			}
			if err := w.Verify(); err != nil {
				t.Fatalf("output wrong after crash recovery: %v", err)
			}
			t.Logf("%s: %v", name, rep)
		})
	}
}

func TestBlockCountOrderingMatchesPaper(t *testing.T) {
	// Table III's contention story depends on the relative block counts;
	// the synthetic inputs must preserve the paper's ordering.
	counts := map[string]int{}
	for _, name := range Names {
		w := New(name, 1)
		grid, _ := w.Geometry()
		counts[name] = grid.Size()
	}
	order := []string{"sad", "mri-gridding", "tmm", "spmv", "mri-q", "tpacf", "cutcp", "histo"}
	for i := 1; i < len(order); i++ {
		if counts[order[i-1]] <= counts[order[i]] {
			t.Errorf("block count ordering violated: %s (%d) <= %s (%d)",
				order[i-1], counts[order[i-1]], order[i], counts[order[i]])
		}
	}
	t.Logf("block counts: %v", counts)
}

func TestRegistry(t *testing.T) {
	if len(Names) != 8 {
		t.Fatal("Names should list the eight Table I workloads")
	}
	for _, name := range allNames {
		w := New(name, 1)
		if w.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, w.Name())
		}
		info := w.Info()
		if info.Description == "" || info.Bottleneck == "" || info.Input == "" {
			t.Errorf("%s: incomplete Info: %+v", name, info)
		}
		if w.PersistBytes() <= 0 {
			t.Errorf("%s: PersistBytes = %d", name, w.PersistBytes())
		}
	}
	t.Run("unknown panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		New("nope", 1)
	})
	t.Run("scale clamped", func(t *testing.T) {
		if New("tmm", 0) == nil {
			t.Fatal("scale 0 should clamp to 1")
		}
	})
}

func TestScaleGrowsWork(t *testing.T) {
	for _, name := range []string{"tmm", "spmv", "tpacf"} {
		w1 := New(name, 1)
		w2 := New(name, 2)
		g1, b1 := w1.Geometry()
		g2, b2 := w2.Geometry()
		if g2.Size()*b2.Size() <= g1.Size()*b1.Size() {
			t.Errorf("%s: scale 2 thread count %d not larger than scale 1's %d",
				name, g2.Size()*b2.Size(), g1.Size()*b1.Size())
		}
	}
	// HISTO keeps the paper's 42 blocks and grows per-thread work instead.
	h1, h2 := newHISTO(1), newHISTO(2)
	if h2.pixels() <= h1.pixels() {
		t.Errorf("histo: scale 2 pixels %d not larger than scale 1's %d", h2.pixels(), h1.pixels())
	}
}

func TestSADDisplacementDecode(t *testing.T) {
	w := newSAD(1)
	seen := map[[2]int]bool{}
	for p := 0; p < w.positions(); p++ {
		dx, dy := w.dispOf(p)
		if dx < -8 || dx >= 8 || dy < -8 || dy >= 8 {
			t.Fatalf("position %d decodes out of window: (%d,%d)", p, dx, dy)
		}
		seen[[2]int{dx, dy}] = true
	}
	if len(seen) != w.positions() {
		t.Errorf("displacements not unique: %d of %d", len(seen), w.positions())
	}
}

func TestTPACFBinRange(t *testing.T) {
	w := newTPACF(1)
	for _, dot := range []float32{-1.5, -1, -0.999, 0, 0.5, 0.999, 1, 1.5} {
		b := w.binOf(dot)
		if b < 0 || b >= w.nbins {
			t.Errorf("binOf(%v) = %d out of range", dot, b)
		}
	}
}

func TestGridWeightProperties(t *testing.T) {
	if gridWeight(1) != 0 || gridWeight(2) != 0 {
		t.Error("weight must vanish at and beyond radius 1")
	}
	if gridWeight(0) != 1 {
		t.Error("weight at distance 0 should be 1")
	}
	if !(gridWeight(0.1) > gridWeight(0.5)) {
		t.Error("weight must decrease with distance")
	}
}
