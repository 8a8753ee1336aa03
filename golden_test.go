package gpulp_test

// Golden reports: the rendered text and the indented JSON of every fault
// campaign and of the serving loops, compared byte for byte against
// testdata/golden. The determinism pins compare two runs of the same
// tree; these files compare the tree against the bytes it produced when
// they were recorded, so a refactor that claims to keep every report
// unchanged can be checked. Regenerate them only on purpose, with
//
//	go test -run TestGolden -update .

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpulp/internal/faultsim"
	"gpulp/internal/pmodel"
	"gpulp/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current tree")

// rendered pairs a finished report with its text form.
func rendered[R interface{ Render(io.Writer) }](rep R, err error) (string, any, error) {
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	rep.Render(&b)
	return b.String(), rep, nil
}

func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func() (text string, report any, err error)
	}{
		{"campaign-spmv", func() (string, any, error) {
			c := faultsim.DefaultCampaign(1)
			c.Kernels = []string{"spmv"}
			c.Models = pmodel.Names()
			return rendered(c.Run())
		}},
		{"campaign-lp", func() (string, any, error) { return rendered(faultsim.DefaultCampaign(1).Run()) }},
		{"ratesweep", func() (string, any, error) { return rendered(faultsim.DefaultRateSweep(1).Run()) }},
		{"ratesweep-locks", func() (string, any, error) {
			s := faultsim.DefaultRateSweep(1)
			s.Locks = true
			s.StuckFrac = 0.5
			s.Rates = []float64{0.05, 0.2, 0.4}
			return rendered(s.Run())
		}},
		{"cluster-campaign", func() (string, any, error) {
			c := faultsim.DefaultClusterCampaign(1)
			c.Jobs = 4
			return rendered(c.Run())
		}},
		{"replica-campaign", func() (string, any, error) {
			c := faultsim.DefaultReplicaCampaign(1)
			c.Jobs = 4
			return rendered(c.Run())
		}},
		{"replica-campaign-ep-strict", func() (string, any, error) {
			c := faultsim.DefaultReplicaCampaign(1)
			c.Jobs = 4
			c.Models = []string{"ep", "strict"}
			return rendered(c.Run())
		}},
		{"serve-campaign", func() (string, any, error) { return rendered(faultsim.DefaultServeCampaign(1).Run()) }},
		{"serve-bare", func() (string, any, error) {
			cfg := serve.DefaultConfig()
			cfg.Model = "none"
			return runServe(cfg)
		}},
		{"serve-lp-crash", func() (string, any, error) {
			cfg := serve.DefaultConfig()
			cfg.CrashAtLaunch = 3
			return runServe(cfg)
		}},
		{"serve-cluster", func() (string, any, error) {
			cfg := serve.DefaultClusterConfig()
			cfg.Devices = 3
			cfg.FailAtLaunch = 2
			cfg.FailDevice = 1
			res, err := serve.RunCluster(cfg)
			if err != nil {
				return "", nil, err
			}
			return res.Report.String(), res.Report, res.VerifyLedger()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text, rep, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+".txt", []byte(text))
			checkGolden(t, tc.name+".json", append(js, '\n'))
		})
	}
}

// runServe renders a single-device serving run after auditing its
// durable store against the admission ledger.
func runServe(cfg serve.Config) (string, any, error) {
	res, err := serve.Run(cfg)
	if err != nil {
		return "", nil, err
	}
	return res.Report.String(), res.Report, res.VerifyLedger()
}

// checkGolden compares got against testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the recorded report\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
