package faultsim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// TestGroupedCasesMatchFresh holds the campaign's grouped runner to its
// one promise: a case run on its (kernel, model) group's shared system,
// rewound between cases, reports exactly what it reports on a fresh
// system of its own, field for field.
//
// The cuckoo sweep runs every case on a fresh system (see groupCases),
// as its store's host-side hash state would not rewind.
func TestGroupedCasesMatchFresh(t *testing.T) {
	sweeps := []struct {
		kernels, models []string
		store           hashtab.Kind
	}{
		{[]string{"spmv", "megakv-insert"}, pmodel.Names(), hashtab.GlobalArray},
		{[]string{"tmm"}, []string{"lp"}, hashtab.GlobalArray},
		{[]string{"tmm"}, []string{"lp"}, hashtab.Cuckoo},
	}
	for _, sw := range sweeps {
		c := DefaultCampaign(1)
		c.Kernels, c.Models, c.Minimize = sw.kernels, sw.models, false
		c.Opt.LP.Store = sw.store
		var got []Result
		c.Progress = func(_, _ int, r Result) { got = append(got, r) }
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != rep.Total {
			t.Fatalf("%v: Progress saw %d cases of %d", sw.kernels, len(got), rep.Total)
		}
		goldens := map[string]*Golden{}
		for _, g := range got {
			golden := goldens[g.Case.Kernel]
			if golden == nil {
				if golden, err = GoldenRun(c.Opt, g.Case.Kernel); err != nil {
					t.Fatal(err)
				}
				goldens[g.Case.Kernel] = golden
			}
			if fresh := RunCase(c.Opt, g.Case, golden); fresh != g {
				t.Errorf("%v:\n  grouped: %+v\n  fresh:   %+v", g.Case, g, fresh)
			}
		}
	}
}

// TestGroupCases: cases group by (kernel, model) in order of first
// appearance, each group in sweep order, and alone gives every case a
// group of its own.
func TestGroupCases(t *testing.T) {
	cases := []Case{
		{Kernel: "tmm", Model: "lp"}, {Kernel: "tmm", Model: "ep"},
		{Kernel: "spmv", Model: "lp"}, {Kernel: "tmm", Model: "lp"},
		{Kernel: "tmm", Model: "ep"},
	}
	if got, want := groupCases(cases, false), [][]int{{0, 3}, {1, 4}, {2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("groupCases = %v, want %v", got, want)
	}
	if got, want := groupCases(cases, true), [][]int{{0}, {1}, {2}, {3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("groupCases alone = %v, want %v", got, want)
	}
}

// TestStrikeMissedCrashIsTyped: a mid-kernel launch that ends without
// its armed crash firing (here the watchdog stops the first block) is
// an error wrapping ErrCrashMissed, not a clean strike.
func TestStrikeMissedCrashIsTyped(t *testing.T) {
	opt := DefaultOptions()
	opt.Dev.WatchdogSteps = 1
	dev := gpusim.MustNew(opt.Dev, memsim.MustNew(opt.Mem))
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	_, _, err := Strike(dev, rand.New(rand.NewSource(1)), MidKernelCrash, 3, 0, w, w.Kernel(nil), nil, nil)
	if !errors.Is(err, ErrCrashMissed) {
		t.Fatalf("Strike = %v, want an error wrapping ErrCrashMissed", err)
	}
}
