package harness

import (
	"fmt"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/parwork"
	"gpulp/internal/pmodel"
)

// modelCompareBenches is the workload slice the model sweep runs over.
var modelCompareBenches = []string{"tmm", "spmv", "sad", "histo", "mri-q"}

// ModelCompare sweeps every registered persistency model — LP, EP,
// SBRP, strict — over the benchmark suite and reports each model's time
// overhead, NVM write amplification, and durable-metadata footprint
// against the no-persistency baseline. It generalizes the §I/§II
// Eager-vs-Lazy comparison into the full model zoo: the persistency
// spectrum from "no ordering enforced until recovery" (LP) to "every
// store persisted in program order" (strict).
func (r *Runner) ModelCompare() (*Table, error) {
	specs, err := r.modelSpecs()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "modelcompare", Title: "Persistency model zoo: overheads across the ordering spectrum",
		Columns: []string{"benchmark", "model", "overhead", "extra NVM writes", "metadata bytes"}}

	type job struct{ bench, model string }
	jobs := make([]job, 0, len(modelCompareBenches)*len(specs))
	for _, bench := range modelCompareBenches {
		for _, s := range specs {
			jobs = append(jobs, job{bench, s.Name})
		}
	}
	rows := make([][]string, len(jobs))
	errs := make([]error, len(jobs))
	parwork.Do(len(jobs), r.workers(), func(i int) {
		rows[i], errs[i] = r.modelRow(jobs[i].bench, jobs[i].model)
	})
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("%s under %s: %w", jobs[i].bench, jobs[i].model, e)
		}
		t.Rows = append(t.Rows, rows[i])
	}
	t.Notes = append(t.Notes,
		"lp: no flushes, no fences — only naturally evicted checksum lines",
		"ep: per-store redo-log records with line flushes, plus two persist barriers per thread block",
		"sbrp: bounded per-scope persist buffer, drained with a flag commit at each block's release fence",
		"strict: every protected store flushed and fenced in program order",
		"metadata bytes = durable footprint of the model's recovery metadata (checksums, redo log, or release flags)")
	return t, nil
}

// modelSpecs resolves Options.Models (empty = every registered model).
func (r *Runner) modelSpecs() ([]pmodel.Spec, error) {
	if len(r.Opt.Models) == 0 {
		return pmodel.Specs(), nil
	}
	specs := make([]pmodel.Spec, 0, len(r.Opt.Models))
	for _, name := range r.Opt.Models {
		s, ok := pmodel.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown persistency model %q (registered: %v)", name, pmodel.Names())
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// modelRow measures one benchmark under one model and renders its table
// row.
func (r *Runner) modelRow(bench, model string) ([]string, error) {
	base, err := r.measure(bench, nil)
	if err != nil {
		return nil, err
	}
	mem := memsim.MustNew(r.Opt.Mem)
	dev := gpusim.MustNew(r.Opt.Dev, mem)
	w := kernels.New(bench, r.Opt.Scale)
	w.Setup(dev)
	grid, blk := w.Geometry()
	lpCfg := core.DefaultConfig()
	lpCfg.Seed = r.Opt.Seed
	m := pmodel.MustLookup(model).New(dev, w, pmodel.Options{LP: &lpCfg})

	mem.ResetStats() // exclude setup and metadata-allocation traffic
	res := dev.Launch(bench+"-"+model, grid, blk, m.Kernel())
	cycles := res.Cycles
	if f, ok := w.(kernels.Finalizer); ok {
		fname, fg, fb, k := f.FinalizeKernel()
		fres := dev.Launch(fname, fg, fb, k)
		cycles += fres.Cycles
	}
	if r.Opt.Verify {
		if err := w.Verify(); err != nil {
			return nil, err
		}
	}
	mem.FlushAll()
	writes := mem.Stats().NVMLineWrites

	overhead := float64(cycles)/float64(base.cycles) - 1
	extra := float64(writes)/float64(base.nvmWrites) - 1
	return []string{bench, model, pct(overhead), "+" + pct(extra),
		fmt.Sprintf("%d", m.MetadataBytes())}, nil
}
