package faultsim

import (
	"fmt"
	"strings"
	"testing"

	"gpulp/internal/kernels"
)

// TestCampaignSmoke runs a small but complete campaign — every fault
// kind over a dense and a hash-structured workload — and requires the
// campaign contract to hold: every case either recovers bit-exact or
// returns a typed error; zero panics, zero silent mismatches.
func TestCampaignSmoke(t *testing.T) {
	c := DefaultCampaign(2)
	c.Kernels = []string{"tmm", "megakv-insert"}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2 kernels × 6 kinds − 1 inapplicable (megakv data flips), × 2 seeds.
	if want := (2*int(numKinds) - 1) * 2; rep.Total != want {
		t.Fatalf("campaign ran %d cases, want %d", rep.Total, want)
	}
	if rep.Failed() {
		var sb strings.Builder
		rep.Render(&sb)
		t.Fatalf("campaign contract violated:\n%s", sb.String())
	}
	if rep.Recovered+rep.TypedErrors != rep.Total {
		t.Fatalf("outcome counts inconsistent: %+v", rep)
	}
	if len(rep.Summaries) != 2*int(numKinds)-1 {
		t.Fatalf("expected a summary row per (kernel, kind) cell, got %d", len(rep.Summaries))
	}
}

// TestCaseReproducible asserts a case replays identically from its
// recorded Case alone — the property that makes campaign failures
// debuggable.
func TestCaseReproducible(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "tmm")
	if err != nil {
		t.Fatal(err)
	}
	c := Case{Kernel: "tmm", Kind: TornWriteback, Seed: 0xdeadbeef}
	a := RunCase(opt, c, golden)
	b := RunCase(opt, c, golden)
	if a != b {
		t.Fatalf("case not reproducible:\n  first:  %+v\n  second: %+v", a, b)
	}
	if a.Outcome.Failed() {
		t.Fatalf("torn-writeback case failed: %+v", a)
	}
}

// TestMidKernelCrashPinned pins the crash point and checks the recorded
// crash parameters round-trip into the result.
func TestMidKernelCrashPinned(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "tmm")
	if err != nil {
		t.Fatal(err)
	}
	res := RunCase(opt, Case{Kernel: "tmm", Kind: MidKernelCrash, Seed: 7, AfterBlocks: 3}, golden)
	if res.CrashedAfter != 3 {
		t.Fatalf("CrashedAfter = %d, want the pinned 3", res.CrashedAfter)
	}
	if res.Outcome != Recovered {
		t.Fatalf("mid-kernel crash at block 3 did not recover: %+v", res)
	}
}

// TestMidKernelCrashPointBounds: a crash point at the grid's last block
// still crashes and recovers, while one past the grid is refused as a
// typed error instead of running fault-free and reporting recovered.
func TestMidKernelCrashPointBounds(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "spmv")
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := kernels.New("spmv", opt.Scale).Geometry()
	n := grid.Size()
	at := RunCase(opt, Case{Kernel: "spmv", Kind: MidKernelCrash, Seed: 1, AfterBlocks: n}, golden)
	if at.Outcome != Recovered || at.CrashedAfter != n || at.FirstRoundFailed == 0 {
		t.Fatalf("crash after all %d blocks: %+v, want a recovered crash with damage", n, at)
	}
	past := RunCase(opt, Case{Kernel: "spmv", Kind: MidKernelCrash, Seed: 1, AfterBlocks: n + 1}, golden)
	want := fmt.Sprintf("faultsim: mid-kernel crash after %d blocks lies past the %d-block grid of spmv", n+1, n)
	if past.Outcome != TypedError || past.Err != want {
		t.Fatalf("crash point past the grid: %v (%s), want typed-error (%s)", past.Outcome, past.Err, want)
	}
}

// TestMinimizeKeepsOriginalWhenNoSmallerFails: if no smaller crash point
// reproduces, the minimizer must hand back the original case untouched.
func TestMinimizeKeepsOriginalWhenNoSmallerFails(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "tmm")
	if err != nil {
		t.Fatal(err)
	}
	res := RunCase(opt, Case{Kernel: "tmm", Kind: MidKernelCrash, Seed: 11, AfterBlocks: 4}, golden)
	if res.Outcome != Recovered {
		t.Fatalf("setup case unexpectedly failed: %+v", res)
	}
	// Pretend it failed; every smaller candidate recovers, so the
	// minimizer must return it unchanged.
	fake := res
	fake.Outcome = Mismatch
	min := MinimizeCase(opt, fake, golden)
	if min.Case != fake.Case {
		t.Fatalf("minimizer replaced a failure with a passing case: %+v", min.Case)
	}
}

// TestApplicable pins the one applicability exclusion and its rationale.
func TestApplicable(t *testing.T) {
	if !Applicable("tmm", DataBitFlips) || !Applicable("spmv", DataBitFlips) {
		t.Error("data bit flips must apply to dense float kernels")
	}
	if Applicable("megakv-insert", DataBitFlips) {
		t.Error("data bit flips into the MEGA-KV index are not a decidable probe")
	}
	for _, k := range AllKinds() {
		if k != DataBitFlips && !Applicable("megakv-insert", k) {
			t.Errorf("kind %v should apply to megakv-insert", k)
		}
	}
}

// TestParseKind round-trips every kind through its String form.
func TestParseKind(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

// TestModelApplicable pins the per-model applicability matrix.
func TestModelApplicable(t *testing.T) {
	// LP defers to the legacy matrix.
	if ModelApplicable("lp", "tmm", DataBitFlips) != Applicable("tmm", DataBitFlips) {
		t.Error("lp applicability must match the legacy matrix")
	}
	for _, model := range []string{"ep", "sbrp", "strict"} {
		if ModelApplicable(model, "tmm", DataBitFlips) || ModelApplicable(model, "tmm", StoreBitFlips) {
			t.Errorf("%s has no checksums; bit-flip probes are undetectable by design", model)
		}
		if !ModelApplicable(model, "tmm", MidKernelCrash) {
			t.Errorf("%s mid-kernel crash must apply to dense kernels", model)
		}
		if ModelApplicable(model, "megakv-insert", MidKernelCrash) {
			t.Errorf("%s block re-execution is not byte-idempotent on megakv", model)
		}
		for _, k := range []Kind{CleanCrash, PartialEviction, TornWriteback} {
			if !ModelApplicable(model, "megakv-insert", k) {
				t.Errorf("%s should allow %v everywhere", model, k)
			}
		}
	}
}

// TestLPModelSpellings runs the same spmv cases under every spelling of
// the lp model pmodel.Lookup accepts: each must take the direct LP path
// the empty name takes, with the same outcome, tier, rounds and cycles.
func TestLPModelSpellings(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "spmv")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{CleanCrash, DataBitFlips, StoreBitFlips} {
		want := RunCase(opt, Case{Kernel: "spmv", Kind: kind, Seed: 7}, golden)
		if want.Outcome != Recovered || want.Rounds == 0 {
			t.Fatalf("%v: the lp path did not recover through core: %+v", kind, want)
		}
		for _, name := range []string{"lp", "LP", " lp "} {
			got := RunCase(opt, Case{Kernel: "spmv", Kind: kind, Seed: 7, Model: name}, golden)
			if got.Outcome != want.Outcome || got.Tier != want.Tier || got.Rounds != want.Rounds || got.Cycles != want.Cycles {
				t.Errorf("%v under model %q: %v tier %v, %d rounds, %d cycles; want %v tier %v, %d rounds, %d cycles (%s)",
					kind, name, got.Outcome, got.Tier, got.Rounds, got.Cycles,
					want.Outcome, want.Tier, want.Rounds, want.Cycles, got.Err)
			}
		}
	}
}

// TestModelCampaign sweeps every registered persistency model through
// the seeded fault campaign on tmm: each model must recover bit-exact
// (or report a typed error) under every applicable fault shape, and the
// per-model summary cells must carry their labels.
func TestModelCampaign(t *testing.T) {
	c := DefaultCampaign(2)
	c.Kernels = []string{"tmm"}
	c.Models = []string{"lp", "ep", "sbrp", "strict"}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// lp: all 6 kinds; ep/sbrp/strict: clean, mid-kernel, partial, torn.
	if want := (6 + 3*4) * 2; rep.Total != want {
		t.Fatalf("model campaign ran %d cases, want %d", rep.Total, want)
	}
	if rep.Failed() {
		var sb strings.Builder
		rep.Render(&sb)
		t.Fatalf("model campaign contract violated:\n%s", sb.String())
	}
	if rep.TypedErrors != 0 {
		t.Fatalf("model campaign hit %d typed errors on tmm; every applicable fault should recover", rep.TypedErrors)
	}
	models := map[string]bool{}
	for _, s := range rep.Summaries {
		models[s.Model] = true
	}
	for _, m := range c.Models {
		if !models[m] {
			t.Errorf("no summary cell for model %s", m)
		}
	}
}

// TestModelCaseReproducible asserts model cases replay identically from
// their recorded Case alone, like LP cases.
func TestModelCaseReproducible(t *testing.T) {
	opt := DefaultOptions()
	golden, err := GoldenRun(opt, "tmm")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"ep", "sbrp", "strict"} {
		c := Case{Kernel: "tmm", Kind: MidKernelCrash, Seed: 0xbead, Model: model}
		a := RunCase(opt, c, golden)
		b := RunCase(opt, c, golden)
		if a != b {
			t.Fatalf("%s case not reproducible:\n  first:  %+v\n  second: %+v", model, a, b)
		}
		if a.Outcome != Recovered {
			t.Fatalf("%s mid-kernel case did not recover: %+v", model, a)
		}
	}
}
