package faultsim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"gpulp/internal/cluster"
)

// smallReplicaCampaign keeps a sweep fast: tiny jobs, short geometry.
func smallReplicaCampaign(seeds int) *ReplicaCampaign {
	c := DefaultReplicaCampaign(seeds)
	c.Devices = 3
	c.Jobs = 4
	c.BlocksPerJob = 2
	c.BlockThreads = 32
	return c
}

// TestReplicaCampaignAcceptance pins the PR's acceptance criterion: with
// R >= 2 every single-device failure — across kinds, placers and models
// — must be absorbed by adopting a surviving replica with ZERO
// re-executed blocks and a bit-exact durable pool; with R = 1 every case
// must take the legacy re-execute path and never claim an adoption.
func TestReplicaCampaignAcceptance(t *testing.T) {
	c := smallReplicaCampaign(2)
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("campaign contract violated: %+v", rep.Failures)
	}
	// 2 rfactors × 3 kinds × 2 placers × 2 models × 2 seeds.
	if rep.Total != 48 || len(rep.Cells) != 24 {
		t.Fatalf("campaign shape: total=%d cells=%d, want 48/24", rep.Total, len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if cell.Replicas > 1 {
			if cell.Adopted != cell.Cases {
				t.Fatalf("cell %+v: %d of %d cases adopted — replicated failures must never re-execute",
					cell, cell.Adopted, cell.Cases)
			}
			if cell.MeanReexec != 0 {
				t.Fatalf("cell %+v: replicated recovery re-executed blocks", cell)
			}
		} else if cell.Recovered != cell.Cases {
			t.Fatalf("cell %+v: %d of %d unreplicated cases recovered", cell, cell.Recovered, cell.Cases)
		}
		if cell.MeanCoverage != 1 {
			t.Fatalf("cell %+v: coverage %v after full recovery", cell, cell.MeanCoverage)
		}
	}
	// Exactly the replicated half of the sweep recovers without
	// re-execution... plus any R=1 stall cases that rejoined cleanly;
	// at minimum every R>1 case counts.
	if rep.RecoveredWithoutReexec < rep.Total/2 {
		t.Fatalf("recovered-without-reexec %d below the replicated half of %d cases",
			rep.RecoveredWithoutReexec, rep.Total)
	}
}

// TestReplicaCampaignWriteAmplification: replication must cost durable
// line writes — an R=2 cell writes measurably more NVM lines than its
// R=1 counterpart under the same kind/placer/model.
func TestReplicaCampaignWriteAmplification(t *testing.T) {
	c := smallReplicaCampaign(2)
	c.Kinds = []cluster.FailureKind{cluster.FailStop}
	c.Placers = []cluster.PlacerKind{cluster.Spread}
	c.Models = []string{"lp"}
	c.RFactors = []int{1, 2}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("campaign contract violated: %+v", rep.Failures)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(rep.Cells))
	}
	if rep.Cells[1].MeanNVMWrites <= rep.Cells[0].MeanNVMWrites {
		t.Fatalf("R=2 NVM writes %.0f not above R=1's %.0f — replication is free?",
			rep.Cells[1].MeanNVMWrites, rep.Cells[0].MeanNVMWrites)
	}
}

// TestReplicaCampaignCaseShape: the seeded failure time is mid-launch
// and reproducible, and adoption carried the whole repair.
func TestReplicaCampaignCaseShape(t *testing.T) {
	c := smallReplicaCampaign(1)
	cs := FailoverCase{Devices: c.Devices, Replicas: 2, Kind: cluster.FailStop, Placer: cluster.Spread, Model: "lp", Seed: 0xabcdef}
	r1 := c.RunFailoverCase(cs)
	if r1.Outcome != FailoverAdopted {
		t.Fatalf("case did not adopt: %+v", r1)
	}
	if r1.FailJob < 0 || r1.FailJob >= c.Jobs {
		t.Fatalf("derived fail job %d outside [0,%d)", r1.FailJob, c.Jobs)
	}
	if r1.AfterBlocks < 1 || r1.AfterBlocks >= c.BlocksPerJob {
		t.Fatalf("failure at block %d of %d is not mid-launch", r1.AfterBlocks, c.BlocksPerJob)
	}
	if r1.Adopted != 1 || r1.ReexecutedBlocks != 0 || r1.Failovers != 0 {
		t.Fatalf("adoption accounting off: %+v", r1)
	}
	if r1.ReplicaLaunches == 0 {
		t.Fatalf("no replica launches recorded: %+v", r1)
	}
	r2 := c.RunFailoverCase(cs)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same case diverged:\n%+v\n%+v", r1, r2)
	}
}

// TestReplicaCampaignParallelMatchesSerial: case seeds derive from sweep
// position and aggregation is in sweep order, so Parallel=1 and
// Parallel=8 produce identical structured reports.
func TestReplicaCampaignParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) *ReplicaReport {
		c := smallReplicaCampaign(1)
		c.Parallel = parallel
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("campaign (parallel=%d): %v", parallel, err)
		}
		return rep
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("replica campaign reports diverged\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestReplicaCampaignRejectsBadRFactor: a replication factor outside
// [1, Devices] is a configuration error, not a panic downstream.
func TestReplicaCampaignRejectsBadRFactor(t *testing.T) {
	c := smallReplicaCampaign(1)
	c.RFactors = []int{0}
	if _, err := c.Run(); err == nil {
		t.Fatal("replication factor 0 accepted")
	}
	c.RFactors = []int{c.Devices + 1}
	if _, err := c.Run(); err == nil {
		t.Fatal("replication factor above device count accepted")
	}
}

// TestReplicaReportRoundTrip: the report marshals with readable enum
// names and renders without panicking.
func TestReplicaReportRoundTrip(t *testing.T) {
	c := smallReplicaCampaign(1)
	c.RFactors = []int{2}
	c.Kinds = []cluster.FailureKind{cluster.FailStop}
	c.Placers = []cluster.PlacerKind{cluster.Affinity}
	c.Models = []string{"sbrp"}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"fail-stop"`, `"affinity"`, `"adopted"`, `"sbrp"`} {
		if !bytes.Contains(js, []byte(want)) {
			t.Fatalf("report JSON missing %s:\n%s", want, js)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("replicated failover campaign")) {
		t.Fatalf("render output unexpected:\n%s", buf.String())
	}
}
