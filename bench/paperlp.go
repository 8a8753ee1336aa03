package main

import (
	"reflect"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
)

// paper-lp is the paper's artifact path: the eight Table I kernels and
// the three MEGA-KV operations of §VII-4, each launched bare and under
// core.DefaultConfig() (global array + shuffle, the Table V design) on a
// fresh system, with every output verified. The benchmark repeats
// harness.measure's call sequence itself so that each call can be timed.
// The work is cache-resident and dominated by steady-state memsim
// Load/Store and gpusim block execution. The seed sets core.Config.Seed;
// the kernels run in the paper's order, since the order alone moves host
// time by several percent.

// paperLPScale is the kernels' input scale: the artifact's default. One
// pass takes a few seconds, so a run repeats every unit several times and
// each unit's median filters out passing host interference.
const paperLPScale = 1

// paperLPKernels are the Table V and §VII-4 workloads.
var paperLPKernels = append(append([]string(nil), kernels.Names...),
	"megakv-search", "megakv-insert", "megakv-delete")

// plUnit is one launch configuration: a kernel, bare or under LP.
type plUnit struct {
	kernel string
	lp     bool
}

func (u plUnit) String() string {
	if u.lp {
		return u.kernel + "/lp"
	}
	return u.kernel + "/bare"
}

// plFacts are one unit execution's simulated results; every execution of
// a unit must reproduce them exactly.
type plFacts struct {
	cycles, warpInstrs, atomicStall, lockStall int64
	launches, blocks                           int
	accesses, hits, misses, nvmWrites          int64
}

// plHost is one unit execution's host measurements (seconds, bytes).
type plHost struct {
	setup, kSetup, bind, launch, verify, flush float64
	allocBytes, allocObjects                   float64
	schedule                                   float64   // traced only
	blocks                                     []float64 // traced only
}

// execPaperLP runs one unit on a fresh system.
func execPaperLP(u plUnit, scale int, seed uint64, tr *tracer) (f plFacts, h plHost, err error) {
	root := tr.beginUnit("bench.paper-lp")
	defer tr.end(root)

	var mem *memsim.Memory
	var dev *gpusim.Device
	var w kernels.Workload
	var lp *core.LP
	h.setup += tr.timed("memsim.New", func() { mem = memsim.MustNew(memsim.DefaultConfig()) })
	h.setup += tr.timed("gpusim.New", func() { dev = gpusim.MustNew(gpusim.DefaultConfig(), mem) })
	h.kSetup = tr.timed("kernels.Setup", func() {
		w = kernels.New(u.kernel, scale)
		w.Setup(dev)
	})
	h.setup += h.kSetup
	grid, blk := w.Geometry()
	if u.lp {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		h.bind = tr.timed("core.New", func() { lp = core.New(dev, cfg, grid, blk) })
		h.setup += h.bind
	}
	mem.ResetStats() // exclude setup traffic, as harness.measure does

	var am allocMeter
	am.start()
	launch := func(name string, grid, blk gpusim.Dim3, k gpusim.KernelFunc) {
		res, lt := tr.launch(dev, name, grid, blk, k)
		f.cycles += res.Cycles
		f.warpInstrs += res.WarpInstrs
		f.atomicStall += res.AtomicStallCycles
		f.lockStall += res.LockStallCycles
		f.launches++
		f.blocks += res.Blocks
		h.launch += lt.total
		h.schedule += lt.schedule
		h.blocks = append(h.blocks, lt.blocks...)
	}
	launch(u.kernel, grid, blk, w.Kernel(lp))
	if fin, ok := w.(kernels.Finalizer); ok {
		launch(fin.FinalizeKernel())
	}
	b1, o1 := am.stop()
	h.verify = tr.timed("kernels.Verify", func() { err = w.Verify() })
	am.start()
	h.flush = tr.timed("memsim.FlushAll", func() { mem.FlushAll() })
	b2, o2 := am.stop()
	h.allocBytes, h.allocObjects = b1+b2, o1+o2

	st := mem.Stats()
	for k := range st.Loads {
		f.accesses += st.Loads[k] + st.Stores[k]
	}
	f.hits, f.misses, f.nvmWrites = st.Hits, st.Misses, st.NVMLineWrites
	return f, h, err
}

func runPaperLP(cfg config, o *outcome) {
	names := paperLPKernels
	if cfg.smoke {
		names = []string{"spmv", "histo", "megakv-search"}
	}
	var units []plUnit
	for _, k := range names {
		units = append(units, plUnit{k, false}, plUnit{k, true})
	}

	facts := make([]plFacts, len(units))
	setup, kSetup, bind, verify := series{}, series{}, series{}, series{}
	wall, launchT, allocB, allocO := series{}, series{}, series{}, series{}
	traced, sched := series{}, series{}
	var blocks []float64

	schedule(len(units), cfg.seconds, cfg.trace, func(i, pass int, isTraced bool) {
		u := units[i]
		var tr *tracer
		if isTraced {
			tr = o.tr
		}
		f, h, err := execPaperLP(u, paperLPScale, cfg.seed, tr)
		o.attempted++
		if err != nil {
			o.fail("%s: %v", u, err)
		}
		if pass == 0 && !isTraced {
			facts[i] = f
		} else if !reflect.DeepEqual(f, facts[i]) {
			o.fail("%s: simulated results changed between executions: %+v, first %+v", u, f, facts[i])
		}
		key := u.String()
		if isTraced {
			traced.add(key, h.launch+h.flush)
			sched.add(key, h.schedule)
			blocks = append(blocks, h.blocks...)
			return
		}
		setup.add(key, h.setup)
		kSetup.add(key, h.kSetup)
		verify.add(key, h.verify)
		wall.add(key, h.launch+h.flush)
		launchT.add(key, h.launch)
		allocB.add(key, h.allocBytes)
		allocO.add(key, h.allocObjects)
		if u.lp {
			bind.add(key, h.bind)
		}
	})

	// One pass's simulated totals.
	var total plFacts
	var lpKCycles float64
	var simRatios, hostRatios []float64
	for i, u := range units {
		f := facts[i]
		total.warpInstrs += f.warpInstrs
		total.atomicStall += f.atomicStall
		total.lockStall += f.lockStall
		total.launches += f.launches
		total.blocks += f.blocks
		total.accesses += f.accesses
		total.hits += f.hits
		total.misses += f.misses
		total.nvmWrites += f.nvmWrites
		if u.lp {
			lpKCycles += float64(f.cycles) / 1e3
			bare := facts[i-1] // units alternate bare, lp per kernel
			simRatios = append(simRatios, float64(f.cycles)/float64(bare.cycles))
			hostRatios = append(hostRatios, launchT.med(u.String())/launchT.med(units[i-1].String()))
		}
	}

	e := o.e2e
	e.set("setup_s", setup.sumMed())
	e.set("wall_s", wall.sumMed())
	e.set("units_per_s", float64(total.blocks)/wall.sumMed())
	e.set("alloc_mb", allocB.sumMed()/1e6)
	e.set("sim_kcycles", lpKCycles)
	e.set("sim_overhead_pct", 100*geomeanRatio(simRatios))

	l := o.layer
	l.set("memsim.allocs_per_access", allocO.sumMed()/float64(total.accesses))
	l.set("memsim.accesses", float64(total.accesses))
	l.set("memsim.hit_rate", float64(total.hits)/float64(total.hits+total.misses))
	l.set("memsim.nvm_line_writes", float64(total.nvmWrites))
	l.set("gpusim.minstr_per_s", float64(total.warpInstrs)/1e6/launchT.sumMed())
	l.set("gpusim.allocs_per_block", allocO.sumMed()/float64(total.blocks))
	l.set("gpusim.launches", float64(total.launches))
	l.set("gpusim.blocks", float64(total.blocks))
	l.set("gpusim.warp_instrs", float64(total.warpInstrs))
	l.set("gpusim.atomic_stall_kcycles", float64(total.atomicStall)/1e3)
	l.set("gpusim.lock_stall_kcycles", float64(total.lockStall)/1e3)
	l.set("kernels.setup_ms", kSetup.sumMed()*1e3)
	l.set("kernels.verify_ms", verify.sumMed()*1e3)
	l.set("core.bind_ms", bind.sumMed()*1e3)
	l.set("core.host_overhead_pct", 100*geomeanRatio(hostRatios))
	if cfg.trace {
		l.set("gpusim.block_us_p50", median(blocks)*1e6)
		l.setTail("gpusim.block_us_tail", blocks, 1e6)
		l.set("gpusim.schedule_ms", sched.sumMed()*1e3)
		l.set("trace_overhead_pct", traceOverhead(traced, wall))
	}
}
