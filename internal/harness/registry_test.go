package harness

import (
	"strings"
	"testing"
)

// TestExperimentRegistryIntegrity pins the registry's structural
// contract: every experiment has a unique ID, a non-empty title, a
// runnable body, and round-trips through ByID; an ID that is not
// registered (such as the retired epcompare) does not resolve.
func TestExperimentRegistryIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" {
			t.Fatalf("experiment with empty ID (title %q)", e.Title)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if strings.TrimSpace(e.Title) == "" {
			t.Errorf("experiment %q has no description", e.ID)
		}
		if e.Run == nil {
			t.Errorf("experiment %q has no Run body", e.ID)
		}
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID || got.Title != e.Title {
			t.Errorf("ByID(%q) round-trip failed: %+v", e.ID, got)
		}
	}
	if got, ok := ByID("epcompare"); ok {
		t.Errorf("ByID resolved the unregistered id epcompare to %q", got.ID)
	}
}

// TestServeExperimentRegistered: the serving sweep is part of the
// experiment registry and produces the full model x load x policy grid,
// with bare rows carrying no overhead figure and model rows carrying
// one.
func TestServeExperimentRegistered(t *testing.T) {
	e, ok := ByID("serve")
	if !ok {
		t.Fatal("serve experiment not registered")
	}
	r := smallRunner()
	r.Opt.Models = []string{"lp"} // none + lp keeps the sweep fast
	tbl, err := e.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(serveRateScales) * len(servePolicies)
	if len(tbl.Rows) != wantRows {
		t.Fatalf("serve table has %d rows, want %d", len(tbl.Rows), wantRows)
	}
	overheadCol := len(tbl.Columns) - 1
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row width %d != %d columns: %v", len(row), len(tbl.Columns), row)
		}
		switch row[0] {
		case "none":
			if row[overheadCol] != "—" {
				t.Errorf("bare row reports overhead %q", row[overheadCol])
			}
		case "lp":
			if !strings.HasPrefix(row[overheadCol], "+") {
				t.Errorf("lp row overhead %q not measured against bare", row[overheadCol])
			}
		default:
			t.Errorf("unexpected model %q with restricted Models", row[0])
		}
	}
}
