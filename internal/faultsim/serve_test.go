package faultsim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"gpulp/internal/pmodel"
)

// TestServeCampaignAcceptance pins the PR's acceptance criterion: a
// seeded mid-serving crash on EVERY case — across every registered
// persistency model — must be absorbed in-loop, the durable MEGA-KV
// image must match the crash-free run bit for bit at the crashed
// launch, and the admission ledger must hold to the end of the run,
// with zero panics.
func TestServeCampaignAcceptance(t *testing.T) {
	c := DefaultServeCampaign(2)
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("serving contract violated: %+v", rep.Failures)
	}
	if want := len(pmodel.Names()) * 2; rep.Total != want {
		t.Fatalf("campaign shape: total=%d, want %d", rep.Total, want)
	}
	for _, cell := range rep.Cells {
		if cell.Recovered != cell.Cases {
			t.Fatalf("model %s: %d of %d cases recovered (typed=%d failed=%d)",
				cell.Model, cell.Recovered, cell.Cases, cell.TypedErrors, cell.Failures)
		}
		// Every recovered case already proved Recoveries == 1, so the
		// crash fired; recovery itself may be free (an sbrp buffer that
		// drained at the epoch boundary has nothing to replay).
		if cell.MeanLaunches < 2 {
			t.Fatalf("model %s: %v mean launches — no interior crash point existed",
				cell.Model, cell.MeanLaunches)
		}
	}
}

// TestServeCampaignCaseShape: the seed-derived crash point is interior
// to the launch schedule and a case reproduces exactly from its
// (model, seed) tuple.
func TestServeCampaignCaseShape(t *testing.T) {
	c := DefaultServeCampaign(1)
	cs := ServeCase{Model: "lp", Seed: 0xabcdef}
	r1 := c.RunServeCase(cs)
	if r1.Outcome != Recovered {
		t.Fatalf("case did not recover: %+v", r1)
	}
	if r1.CrashLaunch < 1 || r1.CrashLaunch >= r1.Launches {
		t.Fatalf("crash launch %d not interior to %d launches", r1.CrashLaunch, r1.Launches)
	}
	if r1.Recoveries != 1 {
		t.Fatalf("case recorded %d recoveries, want 1", r1.Recoveries)
	}
	r2 := c.RunServeCase(cs)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same case diverged:\n%+v\n%+v", r1, r2)
	}
}

// TestServeCampaignParallelMatchesSerial: case seeds derive from sweep
// position and aggregation is in sweep order, so Parallel=1 and
// Parallel=8 produce identical structured reports.
func TestServeCampaignParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) *ServeReport {
		c := DefaultServeCampaign(2)
		c.Models = []string{"lp", "ep"}
		c.Parallel = parallel
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("campaign (parallel=%d): %v", parallel, err)
		}
		return rep
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serve campaign reports diverged\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestServeCampaignRejectsBareModel: "none" cannot host a crash case
// and must be a configuration error, not a silent no-op sweep.
func TestServeCampaignRejectsBareModel(t *testing.T) {
	c := DefaultServeCampaign(1)
	c.Models = []string{"none"}
	if _, err := c.Run(); err == nil {
		t.Fatal("bare model accepted into the crash campaign")
	}
}

// TestServeReportRoundTrip: the report marshals with readable outcome
// names and renders without panicking.
func TestServeReportRoundTrip(t *testing.T) {
	c := DefaultServeCampaign(1)
	c.Models = []string{"lp"}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"lp"`, `"recovered"`} {
		if !bytes.Contains(js, []byte(want)) {
			t.Fatalf("report JSON missing %s:\n%s", want, js)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("serve crash campaign")) {
		t.Fatalf("render output unexpected:\n%s", buf.String())
	}
}
