package harness

import (
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/parwork"
)

// This file holds ablation experiments beyond the paper's published
// artifacts, exploring the design choices the paper calls out:
//
//   - scaling: the title's claim — LP overhead vs thread-block count for
//     the three checksum stores (and the lock-based strawman);
//   - fusion: §IV-A's "thread blocks can be enlarged" — region fusion
//     factor vs overhead, table size, and recovery granularity;
//   - checkpoint: §IV-A's periodic whole-cache flush that bounds how far
//     back validation must look — interval vs flush cost vs post-crash
//     damage;
//   - loadfactor: §IV-C's quadratic-probing load-factor limit — load
//     factor vs collisions and insertion cost.

// scalingKernel builds a SAD-like synthetic kernel: tiny fixed-work
// blocks, one persistent store per thread.
func scalingKernel(out memsim.Region, lp *core.LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			t.Op(40)
			v := uint32(t.GlobalLinear())*2654435761 + 17
			t.StoreU32(out, t.GlobalLinear(), v)
			r.Update(t, v)
		})
		r.Commit()
	}
}

// Scaling sweeps the thread-block count with fixed per-block work and
// measures the overhead of each checksum store — the experiment behind
// the paper's title: hash-table LP stops scaling, the global array does
// not.
func (r *Runner) Scaling() (*Table, error) {
	t := &Table{ID: "scaling", Title: "LP overhead vs thread-block count (ablation; the paper's scalability claim)",
		Columns: []string{"blocks", "global array", "quad lock-free", "cuckoo lock-free", "quad lock-based"}}
	blockCounts := []int{512, 2048, 8192, 32768}
	configs := []core.Config{
		core.DefaultConfig(),
		naiveCfg(hashtab.Quad),
		naiveCfg(hashtab.Cuckoo),
		lockCfg(hashtab.Quad),
	}
	run := func(nBlocks int, cfg *core.Config) int64 {
		mem := memsim.MustNew(r.Opt.Mem)
		dev := gpusim.MustNew(r.Opt.Dev, mem)
		grid, blk := gpusim.D1(nBlocks), gpusim.D1(32)
		out := dev.Alloc("out", nBlocks*32*4)
		out.HostZero()
		var lp *core.LP
		if cfg != nil {
			c := *cfg
			c.Seed = r.Opt.Seed
			lp = core.New(dev, c, grid, blk)
		}
		res := dev.Launch("scaling", grid, blk, scalingKernel(out, lp))
		return res.Cycles
	}
	// Every (block count, config) run owns a fresh simulated system, so
	// the whole grid of runs fans out; cycles land in indexed slots and
	// rows assemble serially, keeping the table byte-identical at any
	// Options.Parallel.
	perRow := 1 + len(configs) // baseline + configs
	cycles := make([]int64, len(blockCounts)*perRow)
	parwork.Do(len(cycles), r.workers(), func(j int) {
		nBlocks := blockCounts[j/perRow]
		if c := j % perRow; c > 0 {
			cycles[j] = run(nBlocks, &configs[c-1])
		} else {
			cycles[j] = run(nBlocks, nil)
		}
	})
	for bi, nBlocks := range blockCounts {
		row := []string{fmt.Sprint(nBlocks)}
		base := cycles[bi*perRow]
		for c := 1; c < perRow; c++ {
			row = append(row, pct(float64(cycles[bi*perRow+c])/float64(base)-1))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"fixed tiny per-block work (SAD-like); overhead growth with block count is pure checksum-insertion contention")
	return t, nil
}

// Fusion sweeps the region fusion factor on TMM (whose substantial
// per-block work is the setting where enlarging regions makes sense) and
// reports the three-way trade: insertion overhead, checksum table
// footprint, and recovery granularity (blocks re-executed after a crash).
func (r *Runner) Fusion() (*Table, error) {
	t := &Table{ID: "fusion", Title: "Region fusion factor (ablation; §IV-A region enlargement)",
		Columns: []string{"fusion", "overhead", "table bytes", "failed blocks after crash", "recover cycles"}}
	memCfg := r.Opt.Mem
	memCfg.CacheBytes = 256 << 10
	for _, f := range []int{1, 4, 16, 64} {
		cfg := core.DefaultConfig()
		cfg.Fusion = f
		cfg.Seed = r.Opt.Seed

		// Overhead at full cache (comparable with table5).
		o, m, err := r.overhead("tmm", cfg)
		if err != nil {
			return nil, err
		}

		// Crash damage at small cache.
		mem := memsim.MustNew(memCfg)
		dev := gpusim.MustNew(r.Opt.Dev, mem)
		w := kernels.New("tmm", r.Opt.Scale)
		w.Setup(dev)
		grid, blk := w.Geometry()
		lp := core.New(dev, cfg, grid, blk)
		kernel := w.Kernel(lp)
		dev.Launch("tmm", grid, blk, kernel)
		mem.Crash()
		rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 5)
		if err != nil {
			return nil, fmt.Errorf("fusion=%d: %w", f, err)
		}
		if err := w.Verify(); err != nil {
			return nil, fmt.Errorf("fusion=%d: %w", f, err)
		}
		t.AddRow(fmt.Sprint(f), pct(o), fmt.Sprint(m.tableBytes), fmt.Sprint(rep.FailedPerRound[0]), fmt.Sprint(rep.RecoverCycles))
	}
	t.Notes = append(t.Notes,
		"fusion shrinks the checksum table by ~the factor but re-executes whole groups per damaged region, and its atomic merging costs more than plain stores")
	return t, nil
}

// Checkpoint sweeps the periodic whole-cache-flush interval (§IV-A): how
// often the application checkpoints bounds how many regions a crash can
// damage, at the cost of flush traffic LP otherwise avoids.
func (r *Runner) Checkpoint() (*Table, error) {
	t := &Table{ID: "checkpoint", Title: "Checkpoint (whole-cache flush) interval (ablation; §IV-A)",
		Columns: []string{"interval (blocks)", "checkpoints", "flushed lines", "failed blocks after crash", "validate+recover cycles"}}
	memCfg := r.Opt.Mem // full-size cache: without checkpoints, everything is lost
	for _, interval := range []int{0, 512, 256, 64} {
		mem := memsim.MustNew(memCfg)
		dev := gpusim.MustNew(r.Opt.Dev, mem)
		w := kernels.New("tmm", r.Opt.Scale)
		w.Setup(dev)
		grid, blk := w.Geometry()
		cfg := core.DefaultConfig()
		cfg.Seed = r.Opt.Seed
		lp := core.New(dev, cfg, grid, blk)
		kernel := w.Kernel(lp)

		// Launch in chunks, checkpointing between them.
		checkpoints := 0
		flushed := 0
		n := grid.Size()
		chunk := interval
		if chunk <= 0 {
			chunk = n
		}
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			sel := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				sel = append(sel, i)
			}
			dev.LaunchSelected("tmm-chunk", grid, blk, kernel, sel)
			if interval > 0 && hi < n {
				flushed += lp.Checkpoint()
				checkpoints++
			}
		}

		mem.Crash()
		rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 5)
		if err != nil {
			return nil, fmt.Errorf("interval=%d: %w", interval, err)
		}
		if err := w.Verify(); err != nil {
			return nil, fmt.Errorf("interval=%d: %w", interval, err)
		}
		label := fmt.Sprint(interval)
		if interval == 0 {
			label = "none"
		}
		t.AddRow(label, fmt.Sprint(checkpoints), fmt.Sprint(flushed),
			fmt.Sprint(rep.FailedPerRound[0]), fmt.Sprint(rep.TotalCycles()))
	}
	t.Notes = append(t.Notes,
		"the crash hits at kernel end; only stores after the last checkpoint (or never evicted) are lost",
		"LP itself never flushes — checkpoints are the §IV-A mechanism bounding how far back validation must look")
	return t, nil
}

// LoadFactor sweeps the quadratic-probing table's load factor and shows
// the collision blow-up behind the paper's ≤70% guidance (§IV-C).
func (r *Runner) LoadFactor() (*Table, error) {
	t := &Table{ID: "loadfactor", Title: "Quadratic probing load factor (ablation; §IV-C guidance: <= 70%)",
		Columns: []string{"load factor", "keys", "collisions", "max probe", "insert cycles"}}
	// Fix the table capacity and vary the fill, sidestepping the
	// power-of-two capacity rounding.
	const capacity = 16384
	for _, pct100 := range []int{30, 50, 70, 85, 95} {
		nKeys := capacity * pct100 / 100
		mem := memsim.MustNew(r.Opt.Mem)
		dev := gpusim.MustNew(r.Opt.Dev, mem)
		st := hashtab.New(dev, "tbl", hashtab.Config{
			Kind:        hashtab.Quad,
			NumKeys:     capacity - 1, // rounds up to exactly `capacity` slots
			Seed:        r.Opt.Seed,
			QuadLoadPct: 100,
		})
		if st.TableBytes() != capacity*32 {
			return nil, fmt.Errorf("loadfactor: capacity %d != expected %d", st.TableBytes()/32, capacity)
		}
		res := dev.Launch("insert", gpusim.D1(nKeys), gpusim.D1(32), func(b *gpusim.Block) {
			b.ForAll(func(th *gpusim.Thread) {
				if th.Linear == 0 {
					st.Insert(th, uint64(b.LinearIdx), checksumOf(uint64(b.LinearIdx)))
				}
			})
		})
		stats := st.Stats()
		t.AddRow(fmt.Sprintf("%d%%", pct100), fmt.Sprint(nKeys),
			fmt.Sprint(stats.Collisions), fmt.Sprint(stats.MaxProbe), fmt.Sprint(res.Cycles))
	}
	t.Notes = append(t.Notes,
		"fixed 16384-slot table, varying fill",
		"collisions and worst-case probe depth explode past ~70%, as §IV-C warns")
	return t, nil
}

// MTBFPlan completes §IV-A's remark that "the interval period can be
// selected based on probability of crashes and recovery time to achieve
// a certain MTBF or availability target": measure the actual checkpoint
// flush cost and validation cost on TMM, then derive the
// overhead-optimal checkpoint interval and best availability across
// failure rates with core.CheckpointPlanner.
func (r *Runner) MTBFPlan() (*Table, error) {
	t := &Table{ID: "mtbf", Title: "Checkpoint interval planning from failure rate (§IV-A)",
		Columns: []string{"MTBF (cycles)", "optimal interval (cycles)", "expected overhead", "availability"}}

	// Measure flush and validation costs on the real system.
	mem := memsim.MustNew(r.Opt.Mem)
	dev := gpusim.MustNew(r.Opt.Dev, mem)
	w := kernels.New("tmm", r.Opt.Scale)
	w.Setup(dev)
	grid, blk := w.Geometry()
	cfg := core.DefaultConfig()
	cfg.Seed = r.Opt.Seed
	lp := core.New(dev, cfg, grid, blk)
	dev.Launch("tmm", grid, blk, w.Kernel(lp))
	flushedLines := lp.Checkpoint()
	// Flush cost in cycles: line write-backs at NVM bandwidth.
	lineBytes := float64(r.Opt.Mem.LineSize)
	flushCost := float64(flushedLines) * lineBytes / r.Opt.Dev.NVMBytesPerCycle
	_, vres, _ := lp.Validate(w.Recompute())

	for _, mtbf := range []float64{1e7, 1e9, 1e11} {
		p := core.CheckpointPlanner{
			FlushCost:    flushCost,
			ValidateCost: float64(vres.Cycles),
			MTBFCycles:   mtbf,
		}
		opt := p.OptimalInterval()
		t.AddRow(fmt.Sprintf("%.0e", mtbf), fmt.Sprintf("%.0f", opt),
			pct(p.ExpectedOverhead(opt)), fmt.Sprintf("%.6f", p.Availability(opt)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured on tmm: checkpoint flush %.0f cycles (%d lines), validation sweep %d cycles",
			flushCost, flushedLines, vres.Cycles),
		"optimal interval = sqrt(flushCost * MTBF); rarer failures justify longer intervals")
	return t, nil
}

// RecoveryCost quantifies LP's trade-off (§I: "crash recovery is slower
// in LP" in exchange for near-free normal execution): sweep the cache
// size — which controls how much of a run a crash destroys — and compare
// the cost of LP recovery (validate everything + re-execute the failed
// regions) against the naive alternative of re-running the whole kernel.
func (r *Runner) RecoveryCost() (*Table, error) {
	t := &Table{ID: "recoverycost", Title: "Recovery cost vs damage (ablation; §I trade-off)",
		Columns: []string{"cache", "failed blocks", "validate cycles", "re-execute cycles", "full rerun cycles", "recovery vs rerun"}}
	for _, cacheKB := range []int{64, 256, 1024, 4096} {
		memCfg := r.Opt.Mem
		memCfg.CacheBytes = cacheKB << 10
		mem := memsim.MustNew(memCfg)
		dev := gpusim.MustNew(r.Opt.Dev, mem)
		w := kernels.New("tmm", r.Opt.Scale)
		w.Setup(dev)
		grid, blk := w.Geometry()
		cfg := core.DefaultConfig()
		cfg.Seed = r.Opt.Seed
		lp := core.New(dev, cfg, grid, blk)
		kernel := w.Kernel(lp)
		full := dev.Launch("tmm", grid, blk, kernel)

		mem.Crash()
		rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 5)
		if err != nil {
			return nil, fmt.Errorf("cache %dKB: %w", cacheKB, err)
		}
		if err := w.Verify(); err != nil {
			return nil, fmt.Errorf("cache %dKB: %w", cacheKB, err)
		}
		ratio := float64(rep.TotalCycles()) / float64(full.Cycles)
		t.AddRow(fmt.Sprintf("%d KB", cacheKB), fmt.Sprint(rep.FailedPerRound[0]),
			fmt.Sprint(rep.ValidateCycles), fmt.Sprint(rep.RecoverCycles),
			fmt.Sprint(full.Cycles), fmt.Sprintf("%.2fx", ratio))
	}
	t.Notes = append(t.Notes,
		"validation always sweeps every region (the LP recovery tax); re-execution is proportional to actual damage",
		"bigger caches mean more unevicted data at the crash and therefore more re-execution")
	return t, nil
}

// CPULP contrasts the original CPU Lazy Persistency design (§II-A:
// sequential checksum computation, lock-protected chained hash table —
// reported at ~1% overhead on 16 CPU threads) against the paper's GPU
// design, sweeping the number of concurrently executing regions. The CPU
// recipe is fine at CPU parallelism and collapses at GPU parallelism —
// the observation that motivates the whole paper.
func (r *Runner) CPULP() (*Table, error) {
	t := &Table{ID: "cpulp", Title: "The CPU LP design vs the GPU design across concurrency (§II-A)",
		Columns: []string{"concurrent regions", "CPU design (chained+lock+seq)", "GPU design (array+shuffle)"}}

	// CPU-scale regions: substantial work per region (as the CPU paper's
	// loop tiles have), a handful of persistent stores each.
	const nBlocks = 4096
	cpuRegionKernel := func(out memsim.Region, lp *core.LP) gpusim.KernelFunc {
		return func(b *gpusim.Block) {
			reg := lp.Begin(b)
			b.ForAll(func(t *gpusim.Thread) {
				t.Op(20000) // the region's computation
				for k := 0; k < 4; k++ {
					v := uint32(t.GlobalLinear()*4+k)*2654435761 + 3
					t.StoreU32(out, t.GlobalLinear()*4+k, v)
					reg.Update(t, v)
				}
			})
			reg.Commit()
		}
	}
	run := func(workers int, cfg *core.Config) (int64, error) {
		dev := gpusim.MustNew(cpuLikeDevice(workers), memsim.MustNew(r.Opt.Mem))
		grid, blk := gpusim.D1(nBlocks), gpusim.D1(32)
		out := dev.Alloc("out", nBlocks*32*4*4)
		out.HostZero()
		var lp *core.LP
		if cfg != nil {
			c := *cfg
			c.Seed = r.Opt.Seed
			lp = core.New(dev, c, grid, blk)
		}
		res := dev.Launch("cpulp", grid, blk, cpuRegionKernel(out, lp))
		return res.Cycles, nil
	}

	cpuCfg := core.Config{
		Checksum:  checksum.Dual,
		Store:     hashtab.Chained,
		LockMode:  hashtab.LockBased,
		Reduction: core.ReduceSequential,
	}
	gpuCfg := core.DefaultConfig()

	for _, workers := range []int{16, 128, 1024} {
		base, err := run(workers, nil)
		if err != nil {
			return nil, err
		}
		cpu, err := run(workers, &cpuCfg)
		if err != nil {
			return nil, err
		}
		gpu, err := run(workers, &gpuCfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(workers),
			pct(float64(cpu)/float64(base)-1),
			pct(float64(gpu)/float64(base)-1))
	}
	t.Notes = append(t.Notes,
		"same kernel and region count throughout; only the number of simultaneously executing regions varies",
		"the original CPU LP paper reports ~1% at 16 threads — the recipe does not survive GPU concurrency")
	return t, nil
}

// cpuLikeDevice builds a device whose concurrency equals workers
// single-region execution slots.
func cpuLikeDevice(workers int) gpusim.Config {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = workers
	cfg.MaxBlocksPerSM = 1
	return cfg
}

// checksumOf derives a deterministic checksum payload for ablation keys.
func checksumOf(key uint64) checksum.State {
	return checksum.State{Mod: key * 3, Par: key ^ 0xabcdef}
}
