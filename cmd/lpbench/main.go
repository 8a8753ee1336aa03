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

func main() {
	var (
		expList  = flag.String("exp", "all", "comma-separated experiment ids, or 'all' (ids: "+ids()+")")
		scale    = flag.Int("scale", 1, "workload input scale factor")
		verify   = flag.Bool("verify", false, "verify every run's output against the host golden reference")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		format   = flag.String("format", "text", "output format: text or markdown")
		parallel = flag.Int("parallel", 1, "host goroutines fanning out independent experiment runs (results are bit-identical at any value)")
		model    = flag.String("model", "", "persistency models for the modelcompare sweep: comma-separated from "+strings.Join(pmodel.Names(), ",")+", or \"all\" (default)")
	)
	flag.Parse()

	render := (*harness.Table).Render
	switch *format {
	case "text":
	case "markdown":
		render = (*harness.Table).RenderMarkdown
	default:
		fmt.Fprintf(os.Stderr, "lpbench: unknown format %q (want text or markdown)\n", *format)
		os.Exit(1)
	}

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	opt := harness.DefaultOptions()
	opt.Scale = *scale
	opt.Verify = *verify
	opt.Parallel = *parallel
	if *model != "" {
		specs, err := pmodel.Parse(*model)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			os.Exit(1)
		}
		for _, s := range specs {
			opt.Models = append(opt.Models, s.Name)
		}
	}
	r := harness.NewRunner(opt)

	if *expList == "all" {
		if err := r.RunAll(os.Stdout, render); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, id := range strings.Split(*expList, ",") {
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
