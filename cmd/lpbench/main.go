// Command lpbench regenerates the paper's evaluation artifacts (tables
// and figures) on the simulated GPU. Run with no flags to reproduce
// everything, or select experiments:
//
//	lpbench -exp fig5,table3 -scale 2 -verify
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpulp/internal/harness"
	"gpulp/internal/pmodel"
)

// cliFlags holds the parsed command line.
type cliFlags struct {
	exp, format, model string
	scale, parallel    int
	verify, list       bool
}

// register defines lpbench's flags on fs.
func register(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.StringVar(&f.exp, "exp", "all", "comma-separated experiment ids, or 'all' (ids: "+ids()+")")
	fs.IntVar(&f.scale, "scale", 1, "workload input scale factor")
	fs.BoolVar(&f.verify, "verify", false, "verify every run's output against the host golden reference")
	fs.BoolVar(&f.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&f.format, "format", "text", "output format: text or markdown")
	fs.IntVar(&f.parallel, "parallel", 1, "host goroutines fanning out independent experiment runs (results are bit-identical at any value)")
	fs.StringVar(&f.model, "model", "", "persistency models for the modelcompare sweep: comma-separated from "+strings.Join(pmodel.Names(), ",")+", or \"all\" (default)")
	return f
}

// validate rejects a scale or host width below 1, which the harness
// would otherwise silently run as 1.
func (f *cliFlags) validate() error {
	if f.scale < 1 {
		return fmt.Errorf("-scale %d must be >= 1", f.scale)
	}
	if f.parallel < 1 {
		return fmt.Errorf("-parallel %d must be >= 1", f.parallel)
	}
	return nil
}

func main() {
	fl := register(flag.CommandLine)
	flag.Parse()
	if err := fl.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "lpbench:", err)
		os.Exit(2)
	}

	render := (*harness.Table).Render
	switch fl.format {
	case "text":
	case "markdown":
		render = (*harness.Table).RenderMarkdown
	default:
		fmt.Fprintf(os.Stderr, "lpbench: unknown format %q (want text or markdown)\n", fl.format)
		os.Exit(1)
	}

	if fl.list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	opt := harness.DefaultOptions()
	opt.Scale = fl.scale
	opt.Verify = fl.verify
	opt.Parallel = fl.parallel
	if fl.model != "" {
		specs, err := pmodel.Parse(fl.model)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			os.Exit(1)
		}
		for _, s := range specs {
			opt.Models = append(opt.Models, s.Name)
		}
	}
	r := harness.NewRunner(opt)

	if fl.exp == "all" {
		if err := r.RunAll(os.Stdout, render); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, id := range strings.Split(fl.exp, ",") {
		id = strings.TrimSpace(id)
		e, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "lpbench: unknown experiment %q (known: %s)\n", id, ids())
			os.Exit(1)
		}
		tbl, err := e.Run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		render(tbl, os.Stdout)
	}
}

func ids() string {
	var out []string
	for _, e := range harness.Experiments {
		out = append(out, e.ID)
	}
	return strings.Join(out, ",")
}
