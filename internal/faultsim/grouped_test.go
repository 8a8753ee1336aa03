package faultsim

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
)

// TestGroupedCasesMatchFresh holds the campaign's grouped runner to its
// one promise: a case run on its (kernel, model) group's shared system,
// struck from the group's one launch, reports exactly what it reports on
// a fresh system of its own, field for field. Two seeds give spmv's
// campaign groups several mid-kernel cases under every model, and a
// pinned group per model (pinnedGroup) adds crash points at the grid's
// first and last block and two at one block. The pinned groups' Results
// come in group order: the launched-state cases in the given order, then
// the mid-kernel cases from the latest crash point to the earliest.
//
// The cuckoo sweep runs every case on a fresh system (see groupCases),
// as its store's host-side hash state would not rewind.
func TestGroupedCasesMatchFresh(t *testing.T) {
	sweeps := []struct {
		kernels, models []string
		kinds           []Kind
		store           hashtab.Kind
		seeds           int
	}{
		{[]string{"spmv", "megakv-insert"}, pmodel.Names(), AllKinds(), hashtab.GlobalArray, 1},
		{[]string{"spmv"}, pmodel.Names(), []Kind{MidKernelCrash, CleanCrash}, hashtab.GlobalArray, 2},
		{[]string{"tmm"}, []string{"lp"}, AllKinds(), hashtab.GlobalArray, 1},
		{[]string{"tmm"}, []string{"lp"}, AllKinds(), hashtab.Cuckoo, 1},
	}
	for _, sw := range sweeps {
		c := DefaultCampaign(sw.seeds)
		c.Kernels, c.Models, c.Kinds, c.Minimize = sw.kernels, sw.models, sw.kinds, false
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

	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "spmv")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range pmodel.Names() {
		got := runGroup(t, opt, golden, pinnedGroup(model), nil)
		requireFresh(t, opt, golden, got)
		if got[0].Case.Kind != CleanCrash || got[1].Case.Kind != TornWriteback {
			t.Errorf("%s: the launched-state cases did not come first: %v, %v", model, got[0].Case, got[1].Case)
		}
		for i := 3; i < len(got); i++ {
			if got[i].CrashedAfter > got[i-1].CrashedAfter {
				t.Errorf("%s: crash point %d struck after %d", model, got[i].CrashedAfter, got[i-1].CrashedAfter)
			}
		}
	}
}

// spmvGrid is the block count of spmv's grid.
func spmvGrid() int {
	grid, _ := kernels.New("spmv", 1).Geometry()
	return grid.Size()
}

// pinnedGroup is a group of spmv cases under model: two seeded
// mid-kernel cases, crash points pinned at the first block, at the
// grid's last and twice at one block between, and two cases that strike
// the launched state.
func pinnedGroup(model string) []Case {
	grid := spmvGrid()
	return []Case{
		{Kernel: "spmv", Kind: MidKernelCrash, Seed: 11, Model: model},
		{Kernel: "spmv", Kind: CleanCrash, Seed: 12, Model: model},
		{Kernel: "spmv", Kind: MidKernelCrash, Seed: 13, Model: model, AfterBlocks: 1},
		{Kernel: "spmv", Kind: MidKernelCrash, Seed: 14, Model: model, AfterBlocks: grid},
		{Kernel: "spmv", Kind: MidKernelCrash, Seed: 15, Model: model, AfterBlocks: grid / 3},
		{Kernel: "spmv", Kind: TornWriteback, Seed: 16, Model: model},
		{Kernel: "spmv", Kind: MidKernelCrash, Seed: 17, Model: model, AfterBlocks: grid / 3},
		{Kernel: "spmv", Kind: MidKernelCrash, Seed: 18, Model: model},
	}
}

// runGroup runs cases as one group on opt and returns their Results in
// the order the group emitted them, a case that cannot run as a
// TypedError, as in a campaign. The trace sink, when non-nil, sees every
// launch of the group's system.
func runGroup(t *testing.T, opt Options, golden *Golden, cases []Case, sink func(gpusim.LaunchTrace)) []Result {
	t.Helper()
	g := &group{opt: opt, golden: golden}
	if sink != nil {
		spec, err := caseModel(cases[0])
		if err != nil {
			t.Fatal(err)
		}
		g.build(spec, cases[0].Kernel)
		g.dev.SetTraceSink(sink)
	}
	var got []Result
	g.run(cases, func(_ int, res Result, err error) {
		if err != nil {
			res = typedError(res, err.Error())
		}
		got = append(got, res)
	})
	if len(got) != len(cases) {
		t.Fatalf("group emitted %d results for %d cases", len(got), len(cases))
	}
	return got
}

// requireFresh requires every grouped Result to equal RunCase's on a
// fresh system.
func requireFresh(t *testing.T, opt Options, golden *Golden, got []Result) {
	t.Helper()
	for _, g := range got {
		if fresh := RunCase(opt, g.Case, golden); fresh != g {
			t.Errorf("%v:\n  grouped: %+v\n  fresh:   %+v", g.Case, g, fresh)
		}
	}
}

// TestWatchdogStoppedFlightMatchesFresh: the watchdog stops the group's
// launch after 20 of cutcp's 64 blocks, before some of its crash points.
// A crash point the launch never reached reports ErrCrashMissed, and
// every case, reached or not, equals RunCase field for field, both when
// the launch was to run to the grid's end and when it was to crash in
// flight at its last crash point.
func TestWatchdogStoppedFlightMatchesFresh(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "cutcp")
	if err != nil {
		t.Fatal(err)
	}
	opt.Dev.WatchdogSteps = 961
	mid := func(seed uint64, after int) Case {
		return Case{Kernel: "cutcp", Kind: MidKernelCrash, Seed: seed, Model: "lp", AfterBlocks: after}
	}
	groups := [][]Case{
		{mid(1, 5), {Kernel: "cutcp", Kind: CleanCrash, Seed: 2, Model: "lp"}, mid(3, 20), mid(4, 21), mid(5, 64), mid(6, 0),
			{Kernel: "cutcp", Kind: PartialEviction, Seed: 7, Model: "lp"}},
		{mid(8, 40), mid(9, 5), mid(10, 20), mid(11, 5)},
	}
	for _, cases := range groups {
		got := runGroup(t, opt, golden, cases, nil)
		requireFresh(t, opt, golden, got)
		missed, struck := 0, 0
		for _, r := range got {
			switch {
			case r.Case.Kind != MidKernelCrash:
			case strings.Contains(r.Err, ErrCrashMissed.Error()):
				missed++
			default:
				struck++
			}
		}
		if missed == 0 || struck == 0 {
			t.Errorf("%v: %d crash points missed and %d struck, want some of each", cases[0], missed, struck)
		}
	}
}

// TestGroupLaunchesOnce: a group runs its bound kernel's grid once
// outside recovery, to the grid's end when a case strikes the launched
// state, else to its last crash point; a group of one mid-kernel case
// launches only its partial grid, and takes no mark or crash point, so a
// persist observer (which both refuse) may watch it.
func TestGroupLaunchesOnce(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "spmv")
	if err != nil {
		t.Fatal(err)
	}
	grid := spmvGrid()
	all := pinnedGroup("lp")
	onlyMid := []Case{all[0], all[2], all[4], all[7]}
	for _, tc := range []struct {
		cases  []Case
		blocks int
	}{
		{all, grid},
		{onlyMid, max(crashPointOf(all[0], grid), crashPointOf(all[7], grid), grid/3)},
		{all[4:5], grid / 3},
	} {
		var blocks []int
		count := func(tr gpusim.LaunchTrace) {
			if tr.Name == "spmv" {
				blocks = append(blocks, len(tr.Blocks))
			}
		}
		runGroup(t, opt, golden, tc.cases, count)
		if !slices.Equal(blocks, []int{tc.blocks}) {
			t.Errorf("%d cases: bound-kernel launches of %v blocks, want one of %d", len(tc.cases), blocks, tc.blocks)
		}
	}

	watched := func(mem *memsim.Memory) Audit {
		mem.SetPersistObserver(func(memsim.PersistEvent) {})
		return imageAudit{mem}
	}
	res, err := RunAudited(opt, all[4], golden, 0, 0, watched)
	if err != nil || res != RunCase(opt, all[4], golden) {
		t.Fatalf("watched group of one: %+v, %v; want the fresh result", res, err)
	}
}

// imageAudit reads the memory's own durable image and checks nothing.
type imageAudit struct{ mem *memsim.Memory }

func (a imageAudit) Image() []byte { return a.mem.NVMImage() }
func (a imageAudit) Check() error  { return nil }

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

// TestStrikeMissedCrashIsTyped: a crash point past the blocks its
// flight retired (here the watchdog stops the first block) is an error
// wrapping ErrCrashMissed, not a clean strike, and one past the grid is
// refused before anything launches.
func TestStrikeMissedCrashIsTyped(t *testing.T) {
	opt := DefaultOptions()
	opt.Dev.WatchdogSteps = 1
	dev := gpusim.MustNew(opt.Dev, memsim.MustNew(opt.Mem))
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	fl := LaunchFlight(dev, w, w.Kernel(nil), []int{3}, false)
	_, _, err := Strike(dev, nil, MidKernelCrash, 3, 0, w, fl, nil, nil)
	if !errors.Is(err, ErrCrashMissed) {
		t.Fatalf("Strike = %v, want an error wrapping ErrCrashMissed", err)
	}

	grid, _ := w.Geometry()
	past := grid.Size() + 1
	fl = LaunchFlight(dev, w, w.Kernel(nil), []int{past}, false)
	if fl.retired != 0 {
		t.Fatalf("a flight with no crash point in the grid retired %d blocks, want no launch", fl.retired)
	}
	if _, _, err := Strike(dev, nil, MidKernelCrash, past, 0, w, fl, nil, nil); err == nil || errors.Is(err, ErrCrashMissed) {
		t.Fatalf("Strike past the grid = %v, want the past-the-grid error", err)
	}
}
