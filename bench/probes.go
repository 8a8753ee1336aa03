package main

import (
	"time"

	"gpulp/internal/checksum"
	"gpulp/internal/faultsim"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
	"gpulp/internal/serve"
)

// probes.go times single public functions of the layers whose internals
// a workload cannot reach from outside (memsim accesses, a checksum fold,
// launch set-up, the serving front end). Each probe repeats a fixed call
// stream and reports the median of probeReps repetitions.

const probeReps = 5

// probe returns the median over probeReps runs of fn's host time divided
// by ops, in seconds per operation; prep runs untimed before each run.
func probe(ops int, prep, fn func()) float64 {
	var ts []float64
	for i := 0; i < probeReps; i++ {
		if prep != nil {
			prep()
		}
		ts = append(ts, hostSeconds(fn)/float64(ops))
	}
	return median(ts)
}

func runProbes(l *metricSet) {
	probeMemsim(l)
	probeLaunchSetup(l)
	probeServe(l)

	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i) * 2654435761 // spread over all 32 bits
	}
	l.set("checksum.update_ns", 1e9*probe(len(vals)*16, nil, func() {
		var st checksum.State
		for r := 0; r < 16; r++ {
			for _, v := range vals {
				st.Update(v)
			}
		}
		foldSink = st
	}))
}

// foldSink keeps the probed checksum folds observable to the compiler.
var foldSink checksum.State

// probeMemsim drives a DefaultConfig memory (4 MiB, 16-way, 128-byte
// lines) with fixed address streams: word accesses to a resident 1 MiB
// region (hits), line-strided loads over 16 MiB (clean misses), and
// line-strided stores over 16 MiB (misses that write back a dirty victim).
func probeMemsim(l *metricSet) {
	cfg := memsim.DefaultConfig()
	line := uint64(cfg.LineSize)
	mem := memsim.MustNew(cfg)
	hot := mem.Alloc("hot", 1<<20)
	big := mem.Alloc("big", 16<<20)
	buf := []byte{1, 2, 3, 4}

	hotOps := hot.Size / 4
	walk := func(r memsim.Region, stride uint64, fn func(addr uint64)) {
		for a := r.Base; a < r.End(); a += stride {
			fn(a)
		}
	}
	walk(hot, line, func(a uint64) { mem.Load(memsim.AccessData, a, 4) })
	l.set("memsim.load_hit_ns", 1e9*probe(hotOps, nil, func() {
		walk(hot, 4, func(a uint64) { mem.Load(memsim.AccessData, a, 4) })
	}))
	l.set("memsim.store_hit_ns", 1e9*probe(hotOps, nil, func() {
		walk(hot, 4, func(a uint64) { mem.Store(memsim.AccessData, a, buf) })
	}))

	bigOps := big.Size / int(line)
	mem.FlushAll()
	l.set("memsim.load_miss_ns", 1e9*probe(bigOps, func() { mem.FlushAll() }, func() {
		walk(big, line, func(a uint64) { mem.Load(memsim.AccessData, a, 4) })
	}))
	walk(big, line, func(a uint64) { mem.Store(memsim.AccessData, a, buf) })
	l.set("memsim.store_miss_wb_ns", 1e9*probe(bigOps, nil, func() {
		walk(big, line, func(a uint64) { mem.Store(memsim.AccessData, a, buf) })
	}))

	// A whole cache of dirty lines, drained.
	dirty := mem.Alloc("dirty", cfg.CacheBytes)
	l.set("memsim.flushall_us", 1e6*probe(1, func() {
		walk(dirty, line, func(a uint64) { mem.Store(memsim.AccessData, a, buf) })
	}, func() { mem.FlushAll() }))

	// The crash campaign's 256 KiB cache over a 4 MiB image.
	fcfg := faultsim.DefaultOptions().Mem
	fmem := memsim.MustNew(fcfg)
	img := fmem.Alloc("image", 4<<20)
	walk(img, line, func(a uint64) { fmem.Store(memsim.AccessData, a, buf) })
	fmem.FlushAll()
	l.set("memsim.snapshot_restore_us", 1e6*probe(1, nil, func() { fmem.RestoreNVM(fmem.SnapshotNVM()) }))
}

// probeLaunchSetup times a near-empty launch on the serving device: two
// 128-thread blocks with one store each, from Launch entry to the first
// block's heartbeat — the fixed per-launch cost a lightly loaded serving
// run pays on every batch.
func probeLaunchSetup(l *metricSet) {
	mem := memsim.MustNew(memsim.DefaultConfig())
	dev := gpusim.MustNew(serve.DefaultConfig().Dev, mem)
	out := mem.Alloc("out", 256*4)
	kernel := func(b *gpusim.Block) {
		b.ForAll(func(t *gpusim.Thread) { t.StoreU32(out, t.GlobalLinear(), 1) })
	}
	var first time.Time
	dev.SetHeartbeat(func(hb gpusim.Heartbeat) {
		if hb.Blocks == 1 {
			first = time.Now()
		}
	})
	var ts []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		dev.Launch("probe", gpusim.D1(2), gpusim.D1(128), kernel)
		ts = append(ts, first.Sub(start).Seconds())
	}
	l.set("gpusim.launch_setup_us", median(ts)*1e6)
}

// probeServe times the serving front end: merged-stream generation,
// conflict-free batching and token-bucket admission.
func probeServe(l *metricSet) {
	const n = 1 << 16
	cfg := serve.DefaultConfig()
	cfg.HorizonCycles = 1 << 62
	var gen *serve.Generator
	l.set("serve.gen_ns_per_req", 1e9*probe(n, func() { gen = serve.NewGenerator(cfg) }, func() {
		for i := 0; i < n; i++ {
			gen.Next()
		}
	}))

	reqs := make([]serve.Request, n)
	for i := range reqs {
		reqs[i] = serve.Request{ID: i, Key: uint64(i + 1), Arrival: int64(i)}
	}
	l.set("serve.batcher_ns_per_req", 1e9*probe(n, nil, func() {
		b := serve.NewBatcher(cfg.MaxBatch)
		for i, r := range reqs {
			b.Add(r, r.Arrival)
			if (i+1)%cfg.MaxBatch == 0 {
				b.Take()
			}
		}
	}))

	spec, _ := serve.LookupPolicy("token-bucket")
	var pol serve.Policy
	l.set("serve.admit_ns", 1e9*probe(n, func() { pol = spec.New(cfg) }, func() {
		for _, r := range reqs {
			pol.Admit(r.Arrival*100, r)
		}
	}))
}
