package faultsim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"gpulp/internal/cluster"
)

// smallClusterCampaign keeps a sweep fast: tiny jobs, short geometry.
func smallClusterCampaign(seeds int) *ClusterCampaign {
	c := DefaultClusterCampaign(seeds)
	c.Jobs = 4
	c.BlocksPerJob = 2
	c.BlockThreads = 32
	return c
}

// TestClusterCampaignAcceptance pins the PR's acceptance criterion: a
// seeded campaign that kills one device mid-launch on EVERY case — across
// device counts, failure kinds and routers — must recover a bit-exact
// durable image via cross-device re-execution on every single case, with
// zero panics (MinAlive=1 and Devices >= 2 make every loss survivable).
func TestClusterCampaignAcceptance(t *testing.T) {
	c := smallClusterCampaign(2)
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("campaign contract violated: %+v", rep.Failures)
	}
	// 2 device counts × 3 kinds × 3 routers × 2 seeds.
	if rep.Total != 36 || len(rep.Cells) != 18 {
		t.Fatalf("campaign shape: total=%d cells=%d, want 36/18", rep.Total, len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if cell.Recovered != cell.Cases {
			t.Fatalf("cell %d/%s/%s: %d of %d cases recovered (degraded=%d typed=%d failed=%d) — "+
				"a single loss above quorum must always recover bit-exactly",
				cell.Devices, cell.Kind, cell.Router, cell.Recovered, cell.Cases,
				cell.Degraded, cell.TypedErrors, cell.Failures)
		}
		if cell.MeanCoverage != 1 {
			t.Fatalf("cell %d/%s/%s: coverage %v after full recovery", cell.Devices, cell.Kind, cell.Router, cell.MeanCoverage)
		}
		if cell.MeanFailovers < 1 {
			t.Fatalf("cell %d/%s/%s: no failovers recorded — the injected loss never fired", cell.Devices, cell.Kind, cell.Router)
		}
	}
}

// TestClusterCampaignCaseShape: the seeded failure time is mid-launch and
// reproducible, and re-execution actually happened.
func TestClusterCampaignCaseShape(t *testing.T) {
	c := smallClusterCampaign(1)
	cs := FailoverCase{Devices: 2, Replicas: 1, Kind: cluster.FailStop, Router: cluster.RoundRobin, Model: "lp", Seed: 0xabcdef}
	r1 := c.RunFailoverCase(cs)
	if r1.Outcome != Recovered {
		t.Fatalf("case did not recover: %+v", r1)
	}
	if r1.FailJob < 0 || r1.FailJob >= c.Jobs {
		t.Fatalf("derived fail job %d outside [0,%d)", r1.FailJob, c.Jobs)
	}
	if r1.AfterBlocks < 1 || r1.AfterBlocks >= c.BlocksPerJob {
		t.Fatalf("failure at block %d of %d is not mid-launch", r1.AfterBlocks, c.BlocksPerJob)
	}
	if r1.ReexecutedBlocks < 1 {
		t.Fatalf("recovery re-executed no blocks: %+v", r1)
	}
	if r1.Adopted != 0 {
		t.Fatalf("unreplicated case claims %d adoptions: %+v", r1.Adopted, r1)
	}
	r2 := c.RunFailoverCase(cs)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same case diverged:\n%+v\n%+v", r1, r2)
	}
}

// TestClusterCampaignDegradedHonest: with quorum equal to the device
// count, the loss is unsurvivable — every case must land on the typed
// degraded outcome, never a mismatch or panic.
func TestClusterCampaignDegradedHonest(t *testing.T) {
	c := smallClusterCampaign(2)
	c.DeviceCounts = []int{2}
	c.Kinds = []cluster.FailureKind{cluster.FailStop}
	c.Routers = []cluster.RouterKind{cluster.RoundRobin}
	c.MinAlive = 2
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("degraded sweep must stay honest: %+v", rep.Failures)
	}
	cell := rep.Cells[0]
	if cell.Degraded != cell.Cases {
		t.Fatalf("quorum-loss cell: degraded=%d of %d (recovered=%d typed=%d)",
			cell.Degraded, cell.Cases, cell.Recovered, cell.TypedErrors)
	}
	if cell.MeanCoverage >= 1 {
		t.Fatalf("degraded cell reports full coverage: %+v", cell)
	}
}

// TestClusterCampaignParallelMatchesSerial: case seeds derive from sweep
// position and aggregation is in sweep order, so Parallel=1 and
// Parallel=8 produce identical structured reports.
func TestClusterCampaignParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) *ClusterReport {
		c := smallClusterCampaign(1)
		c.DeviceCounts = []int{2, 3}
		c.Parallel = parallel
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("campaign (parallel=%d): %v", parallel, err)
		}
		return rep
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("cluster campaign reports diverged\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestClusterCampaignRejectsBadDevices: a non-positive swept device count
// is a configuration error, not a panic downstream.
func TestClusterCampaignRejectsBadDevices(t *testing.T) {
	c := smallClusterCampaign(1)
	c.DeviceCounts = []int{0}
	if _, err := c.Run(); err == nil {
		t.Fatal("device count 0 accepted")
	}
}

// TestClusterReportRoundTrip: the report marshals with readable enum
// names and renders without panicking.
func TestClusterReportRoundTrip(t *testing.T) {
	c := smallClusterCampaign(1)
	c.DeviceCounts = []int{2}
	c.Kinds = []cluster.FailureKind{cluster.Hang}
	c.Routers = []cluster.RouterKind{cluster.LeastLoaded}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"hang"`, `"least-loaded"`, `"recovered"`} {
		if !bytes.Contains(js, []byte(want)) {
			t.Fatalf("report JSON missing %s:\n%s", want, js)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("cluster failover campaign")) {
		t.Fatalf("render output unexpected:\n%s", buf.String())
	}
}
