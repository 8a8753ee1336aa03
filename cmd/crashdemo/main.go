// Command crashdemo walks through the full Lazy Persistency story on one
// workload: run a kernel under LP on the simulated NVM-backed GPU, crash
// at an arbitrary point (dropping every cache line that was never
// naturally evicted), validate all regions against their checksums,
// re-execute only the failed thread blocks, and prove the recovered
// output equals the crash-free result.
//
//	crashdemo -workload tmm -cache 262144
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
)

// cliFlags holds the parsed command line.
type cliFlags struct {
	workload, trace string
	cache, scale    int
}

// register defines crashdemo's flags on fs.
func register(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.StringVar(&f.workload, "workload", "tmm", "workload to run (tmm, spmv, histo, ...)")
	fs.IntVar(&f.cache, "cache", 256<<10, "cache size in bytes (smaller = more natural eviction before the crash)")
	fs.IntVar(&f.scale, "scale", 1, "input scale")
	fs.StringVar(&f.trace, "trace", "", "write per-block launch traces as JSON lines to this file")
	return f
}

// validate rejects input the demo would crash on or silently rewrite: an
// unknown workload, a scale below 1, or a cache the memory model refuses.
func (f *cliFlags) validate() error {
	if f.scale < 1 {
		return fmt.Errorf("-scale %d must be >= 1", f.scale)
	}
	if err := f.memConfig().Validate(); err != nil {
		return fmt.Errorf("-cache %d: %v", f.cache, err)
	}
	if !knownWorkload(f.workload) {
		return fmt.Errorf("-workload %q is not a workload (known: %s, megakv-search, megakv-insert, megakv-delete, megakv-mixed)",
			f.workload, strings.Join(kernels.Names, ", "))
	}
	return nil
}

// memConfig is the default hierarchy with the requested cache size.
func (f *cliFlags) memConfig() memsim.Config {
	cfg := memsim.DefaultConfig()
	cfg.CacheBytes = f.cache
	return cfg
}

// knownWorkload reports whether kernels.New accepts name.
func knownWorkload(name string) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	kernels.New(name, 1)
	return true
}

func main() {
	fl := register(flag.CommandLine)
	flag.Parse()
	if err := fl.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "crashdemo:", err)
		os.Exit(2)
	}

	mem := memsim.MustNew(fl.memConfig())
	dev := gpusim.MustNew(gpusim.DefaultConfig(), mem)

	if fl.trace != "" {
		f, err := os.Create(fl.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashdemo:", err)
			os.Exit(1)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		dev.SetTraceSink(func(tr gpusim.LaunchTrace) {
			if err := enc.Encode(tr); err != nil {
				fmt.Fprintln(os.Stderr, "crashdemo: trace:", err)
			}
		})
		fmt.Printf("writing launch traces to %s\n", fl.trace)
	}

	w := kernels.New(fl.workload, fl.scale)
	w.Setup(dev)
	grid, blk := w.Geometry()
	fmt.Printf("workload %s: %d blocks of %d threads, LP region = thread block\n",
		w.Name(), grid.Size(), blk.Size())

	lp := core.New(dev, core.DefaultConfig(), grid, blk)
	kernel := w.Kernel(lp)

	res := dev.Launch(w.Name(), grid, blk, kernel)
	fmt.Printf("ran kernel: %d simulated cycles (%.3f ms at %.2f GHz)\n",
		res.Cycles, dev.Config().CyclesToMS(res.Cycles), dev.Config().ClockGHz)
	fmt.Printf("dirty (unpersisted) cache lines before crash: %d\n", mem.DirtyLines())

	mem.Crash()
	fmt.Println("CRASH: cache dropped; durable state = naturally evicted lines only")

	failed, vres, verr := lp.Validate(w.Recompute())
	if verr != nil {
		fmt.Fprintln(os.Stderr, "crashdemo: validation failed:", verr)
		os.Exit(1)
	}
	fmt.Printf("validation: %d of %d regions failed checksum comparison (%d cycles)\n",
		len(failed), grid.Size(), vres.Cycles)

	rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 5)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashdemo: recovery failed:", err)
		os.Exit(1)
	}
	fmt.Printf("%v\n", rep)

	if f, ok := w.(kernels.Finalizer); ok {
		fname, fg, fb, k := f.FinalizeKernel()
		dev.Launch(fname, fg, fb, k)
	}
	if err := w.Verify(); err != nil {
		fmt.Fprintln(os.Stderr, "crashdemo: output mismatch after recovery:", err)
		os.Exit(1)
	}
	fmt.Println("output verified: recovered state is identical to the crash-free golden result")
}
