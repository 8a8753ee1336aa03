package main

import "math"

// metricDef names one reported metric and its unit. The two tables are
// the benchmark's whole output vocabulary and mirror BENCHMARK.json; every
// workload reports every metric, and a per-layer metric that a workload
// cannot observe from outside the layer reads 0 there (README.md lists
// which workload measures which metric).
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics (--trace 0). Host metrics are wall
// time and memory of this process; sim_* metrics are simulated device
// cycles, identical on every run of one seed.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"units_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_kcycles", "kcycles"},
	{"sim_overhead_pct", "%"},
}

// layerDefs are the per-layer metrics (--trace 1).
var layerDefs = []metricDef{
	{"memsim.load_hit_ns", "ns"},
	{"memsim.store_hit_ns", "ns"},
	{"memsim.load_miss_ns", "ns"},
	{"memsim.store_miss_wb_ns", "ns"},
	{"memsim.flushall_us", "us"},
	{"memsim.snapshot_restore_us", "us"},
	{"memsim.allocs_per_access", "allocs/access"},
	{"memsim.accesses", "count"},
	{"memsim.hit_rate", "ratio"},
	{"memsim.nvm_line_writes", "count"},

	{"gpusim.block_us_p50", "us"},
	{"gpusim.block_us_tail", "us"},
	{"gpusim.schedule_ms", "ms"},
	{"gpusim.minstr_per_s", "Minstr/s"},
	{"gpusim.launch_setup_us", "us"},
	{"gpusim.allocs_per_block", "allocs/block"},
	{"gpusim.launches", "count"},
	{"gpusim.blocks", "count"},
	{"gpusim.warp_instrs", "count"},
	{"gpusim.atomic_stall_kcycles", "kcycles"},
	{"gpusim.lock_stall_kcycles", "kcycles"},

	{"kernels.setup_ms", "ms"},
	{"kernels.verify_ms", "ms"},

	{"core.host_overhead_pct", "%"},
	{"core.bind_ms", "ms"},
	{"core.recovery_rounds_mean", "rounds"},
	{"checksum.update_ns", "ns"},

	{"faultsim.case_ms_p50", "ms"},
	{"faultsim.case_ms_tail", "ms"},
	{"pmodel.lp.case_ms_p50", "ms"},
	{"pmodel.ep.case_ms_p50", "ms"},
	{"pmodel.sbrp.case_ms_p50", "ms"},
	{"pmodel.strict.case_ms_p50", "ms"},
	{"faultsim.golden_ms", "ms"},
	{"faultsim.selective_frac", "ratio"},
	{"faultsim.recovery_kcycles_mean", "kcycles"},
	{"faultsim.cases", "count"},
	{"faultsim.failed", "count"},

	{"serve.us_per_req.x1", "us"},
	{"serve.us_per_req.x1000", "us"},
	{"serve.alloc_kb_per_launch", "KB"},
	{"serve.batch_fill", "ratio"},
	{"serve.gen_ns_per_req", "ns"},
	{"serve.batcher_ns_per_req", "ns"},
	{"serve.admit_ns", "ns"},
	{"serve.drop_frac", "ratio"},
	{"serve.busy_frac", "ratio"},
	{"serve.p99_kcycles.x1000", "kcycles"},
	{"serve.lp.max_rate", "req/Mcycle"},
	{"serve.ep.max_rate", "req/Mcycle"},
	{"serve.ep.overhead_pct", "%"},
	{"cluster.run_ms", "ms"},
	{"cluster.host_ratio", "ratio"},
	{"cluster.adopted_batches", "count"},

	{"trace_overhead_pct", "%"},
}

// metricSet holds a run's values for one table; notes carry extra text
// printed after the unit (a tail's percentile and sample count).
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	notes  map[string]string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, notes: map[string]string{}}
}

// set records a value; naming a metric outside the table is a bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the metric table")
}

// value returns a recorded value, 0 for one the workload does not
// measure. Only a run that failed divides by an empty count, so a value
// that is not a number is reported as 0 too.
func (m *metricSet) value(name string) float64 {
	v := m.values[name]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// setTail records a timing's tail value with its percentile label.
func (m *metricSet) setTail(name string, xs []float64, scale float64) {
	v, label := tail(xs)
	m.set(name, v*scale)
	m.notes[name] = label
}
