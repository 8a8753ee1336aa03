package faultsim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestCampaignParallelMatchesSerial runs the same seeded campaign with
// Parallel=1 and Parallel=8 and requires identical structured reports:
// case seeds derive from sweep position, every (kernel, model) group owns
// its simulated system, and aggregation happens in sweep order, so the
// scheduling of groups must never leak into a reported number.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) *Report {
		c := DefaultCampaign(2)
		c.Kernels = []string{"tmm", "megakv-insert"}
		c.Parallel = parallel
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("campaign (parallel=%d): %v", parallel, err)
		}
		return rep
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("campaign reports diverged\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestCampaignParallelProgress checks the Progress contract at width > 1:
// one observation per case, one at a time, with done counting up to
// total — completion order is allowed to vary, the counts are not. Two
// kernels make two (kernel, model) groups, the campaign's unit of
// fan-out, so Progress is reached from concurrent goroutines. The first
// call holds on long enough for the other group to finish a case, which
// an unserialized Progress would then let in.
func TestCampaignParallelProgress(t *testing.T) {
	c := DefaultCampaign(1)
	c.Kernels = []string{"tmm", "spmv"}
	c.Parallel = 4
	var inside atomic.Bool
	calls, total := 0, 0
	c.Progress = func(done, tot int, r Result) {
		if inside.Swap(true) {
			t.Error("Progress entered while another call was running")
		}
		defer inside.Store(false)
		calls++
		if done != calls {
			t.Errorf("Progress call %d reported done=%d", calls, done)
		}
		total = tot
		if calls == 1 {
			time.Sleep(500 * time.Millisecond)
		}
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls != rep.Total {
		t.Errorf("Progress called %d times, want %d", calls, rep.Total)
	}
	if total != rep.Total {
		t.Errorf("Progress total=%d, want %d", total, rep.Total)
	}
}
