package gpulp_test

// Determinism pin for the MEGA-KV serving layer: a full serving run —
// seeded load generation, admission, batching, kernel launches, epoch
// drains, latency accounting — must produce a byte-identical report and
// byte-identical durable output images when it runs again, for every
// registered persistency model and the bare baseline, and a host-
// parallel sweep of seeds must match a serial sweep run for run. This is
// the contract that lets the serve harness experiment and the lpfault
// serve campaign fan out without perturbing a single number.

import (
	"bytes"
	"testing"

	"gpulp/internal/pmodel"
	"gpulp/internal/serve"
)

func runServing(t *testing.T, model string, seed uint64) *serve.RunResult {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.HorizonCycles = 400_000
	cfg.Model = model
	cfg.Seed = seed
	r, err := serve.Run(cfg)
	if err != nil {
		t.Fatalf("serve %s seed=%d: %v", model, seed, err)
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatalf("serve %s seed=%d: %v", model, seed, err)
	}
	return r
}

// TestServeDeterminism runs the serving loop under every registered
// persistency model plus the bare baseline twice and asserts
// byte-identical rendered reports and durable output images.
func TestServeDeterminism(t *testing.T) {
	models := append([]string{"none"}, pmodel.Names()...)
	for _, model := range models {
		model := model
		t.Run(model, func(t *testing.T) {
			first := runServing(t, model, 1)
			second := runServing(t, model, 1)
			if first.Report.String() != second.Report.String() {
				t.Errorf("report diverged\nfirst:\n%s\nsecond:\n%s",
					first.Report.String(), second.Report.String())
			}
			fo, so := first.Outputs(), second.Outputs()
			if len(fo) == 0 || len(fo) != len(so) {
				t.Fatalf("output image count diverged: %d vs %d", len(fo), len(so))
			}
			for i := range fo {
				if !bytes.Equal(fo[i], so[i]) {
					t.Errorf("durable output %d diverged between runs", i)
				}
			}
		})
	}
}

// TestServeDeterminismHostParallel sweeps seeds with a host-parallel
// goroutine fan-out and demands every run match its serial twin — the
// serving loop must not share state across concurrent runs.
func TestServeDeterminismHostParallel(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	serial := make([]string, len(seeds))
	for i, s := range seeds {
		serial[i] = runServing(t, "lp", s).Report.String()
	}
	parallel := make([]string, len(seeds))
	done := make(chan int, len(seeds))
	for i, s := range seeds {
		go func(i int, s uint64) {
			parallel[i] = runServing(t, "lp", s).Report.String()
			done <- i
		}(i, s)
	}
	for range seeds {
		<-done
	}
	for i := range seeds {
		if serial[i] != parallel[i] {
			t.Errorf("seed %d: host-parallel sweep diverged from serial run", seeds[i])
		}
	}
}

func runClusterServing(t *testing.T) *serve.ClusterRunResult {
	t.Helper()
	cfg := serve.DefaultClusterConfig()
	cfg.HorizonCycles = 400_000
	cfg.Devices = 3
	cfg.Model = "lp"
	cfg.Seed = 7
	cfg.FailAtLaunch = 2
	cfg.FailDevice = 1
	r, err := serve.RunCluster(cfg)
	if err != nil {
		t.Fatalf("cluster serve: %v", err)
	}
	if err := r.VerifyLedger(); err != nil {
		t.Fatalf("cluster serve: %v", err)
	}
	if len(r.Report.DeadDevices) != 1 || r.Report.DeadDevices[0] != 1 {
		t.Fatalf("cluster serve: expected device 1 dead, got %v", r.Report.DeadDevices)
	}
	return r
}

// TestServeClusterDeterminism runs cluster-backed serving through a
// mid-serving device loss — replicated batch launches, survivor
// adoption, degraded-mode shedding — twice and asserts byte-identical
// rendered reports and durable output images.
func TestServeClusterDeterminism(t *testing.T) {
	first := runClusterServing(t)
	second := runClusterServing(t)
	if first.Report.String() != second.Report.String() {
		t.Errorf("cluster report diverged\nfirst:\n%s\nsecond:\n%s",
			first.Report.String(), second.Report.String())
	}
	fo, so := first.Outputs(), second.Outputs()
	if len(fo) == 0 || len(fo) != len(so) {
		t.Fatalf("output image count diverged: %d vs %d", len(fo), len(so))
	}
	for i := range fo {
		if !bytes.Equal(fo[i], so[i]) {
			t.Errorf("durable output %d diverged between runs", i)
		}
	}
}
