package gpulp_test

// Determinism pin for the persistency-model zoo: every registered model
// — crash, damage prediction, recovery, durable image — must be
// bit-identical when the run repeats. This is the contract that lets the
// model-compare harness, the model fault campaigns, and persistcheck's
// model scenarios fan out without perturbing a single number.

import (
	"bytes"
	"reflect"
	"testing"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// modelRun captures every observable output of one crash-recovery run
// under a persistency model.
type modelRun struct {
	launch    gpusim.LaunchResult
	predicted []int
	report    pmodel.Report
	nvm       []byte
}

func runModelRecovery(t *testing.T, spec pmodel.Spec) modelRun {
	t.Helper()
	mem := memsim.MustNew(memsim.DefaultConfig())
	dev := gpusim.MustNew(gpusim.DefaultConfig(), mem)
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	lpCfg := core.DefaultConfig()
	m := spec.New(dev, w, pmodel.Options{LP: &lpCfg})

	// The crash drops volatile cache contents at that instant, so the
	// flag-based models see exactly what they made durable.
	dev.CrashAfter(grid.Size() / 2)
	res := dev.Launch("tmm-"+spec.Name, grid, blk, m.Kernel())
	if !res.Interrupted {
		t.Fatalf("%s: mid-launch crash did not fire", spec.Name)
	}
	predicted := m.PredictDamage(mem.SnapshotNVM())
	rep, err := m.Recover()
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", spec.Name, err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s: post-recovery verify failed: %v", spec.Name, err)
	}
	mem.FlushAll()
	return modelRun{launch: res, predicted: predicted, report: rep, nvm: mem.NVMImage()}
}

// TestParallelDeterminismModels crashes TMM halfway through under every
// registered persistency model twice and asserts identical launch
// results, damage predictions, recovery reports, and
// post-recovery durable images — and that each model's prediction names
// exactly what its recovery repaired (the durable-state contract).
func TestParallelDeterminismModels(t *testing.T) {
	for _, spec := range pmodel.Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			first := runModelRecovery(t, spec)
			second := runModelRecovery(t, spec)
			if first.launch != second.launch {
				t.Errorf("launch result diverged\nfirst:  %+v\nsecond: %+v", first.launch, second.launch)
			}
			if !reflect.DeepEqual(first.predicted, second.predicted) {
				t.Errorf("damage prediction diverged\nfirst:  %v\nsecond: %v", first.predicted, second.predicted)
			}
			if !reflect.DeepEqual(first.report, second.report) {
				t.Errorf("recovery report diverged\nfirst:  %+v\nsecond: %+v", first.report, second.report)
			}
			if !bytes.Equal(first.nvm, second.nvm) {
				t.Errorf("post-recovery NVM image diverged")
			}
			if len(first.predicted) == 0 {
				t.Errorf("half-grid crash predicted no damage")
			}
			if !reflect.DeepEqual(first.predicted, first.report.Damaged) {
				t.Errorf("durable-state contract broken: predicted %v, recovered %v",
					first.predicted, first.report.Damaged)
			}
		})
	}
}
