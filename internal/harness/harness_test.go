package harness

import (
	"strconv"
	"strings"
	"testing"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/pmodel"
)

// smallRunner uses a reduced device so tests stay fast; relationships
// between configurations (not absolute numbers) are what the tests check.
func smallRunner() *Runner {
	opt := DefaultOptions()
	opt.Dev.NumSMs = 16
	opt.Verify = true
	return NewRunner(opt)
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.Notes = append(tbl.Notes, "a note")
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a    bb", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	for _, e := range Experiments {
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestGeomeans(t *testing.T) {
	if g := geomeanOverhead(nil); g != 0 {
		t.Errorf("empty geomeanOverhead = %v", g)
	}
	if g := geomeanOverhead([]float64{0.1, 0.1}); g < 0.099 || g > 0.101 {
		t.Errorf("geomeanOverhead([0.1,0.1]) = %v", g)
	}
	if g := geomeanFactor([]float64{2, 8}); g != 4 {
		t.Errorf("geomeanFactor([2,8]) = %v, want 4", g)
	}
	if g := geomeanFactor(nil); g != 0 {
		t.Errorf("empty geomeanFactor = %v", g)
	}
}

func TestFormatting(t *testing.T) {
	if pct(0.1234) != "12.34%" {
		t.Errorf("pct = %q", pct(0.1234))
	}
	if times(1.5) != "1.50x" {
		t.Errorf("times = %q", times(1.5))
	}
}

func TestBaselineCaching(t *testing.T) {
	r := smallRunner()
	lpCfg := core.DefaultConfig()
	fused := lpCfg
	fused.Fusion = 2
	for _, cfg := range []*core.Config{nil, &lpCfg, &fused} {
		m1, err := r.measure("histo", cfg)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := r.measure("histo", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m1 != m2 {
			t.Errorf("cache returned a different measurement: %+v vs %+v", m1, m2)
		}
	}
	// The seed the caller passes is the Runner's, so it is not a new key.
	reseeded := lpCfg
	reseeded.Seed = r.Opt.Seed + 1
	if _, err := r.measure("histo", &reseeded); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != 3 {
		t.Errorf("cache holds %d entries, want 3 (bare, LP, fused LP)", len(r.cache))
	}
}

func TestOverheadPositiveAndVerified(t *testing.T) {
	r := smallRunner()
	o, m, err := r.overhead("histo", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if o <= 0 {
		t.Errorf("LP overhead = %v, want > 0", o)
	}
	if m.tableBytes == 0 || m.persist == 0 {
		t.Errorf("measurement incomplete: %+v", m)
	}
}

func TestTable1Static(t *testing.T) {
	r := smallRunner()
	tbl, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 { // 8 suite + 4 megakv
		t.Errorf("table1 rows = %d, want 12", len(tbl.Rows))
	}
}

func TestMultiChecksumOrdering(t *testing.T) {
	r := smallRunner()
	tbl, err := r.MultiChecksum()
	if err != nil {
		t.Fatal(err)
	}
	// Dual must not be cheaper than either single checksum.
	parity := parsePct(t, tbl.Rows[0][1])
	dual := parsePct(t, tbl.Rows[2][1])
	if dual < parity {
		t.Errorf("dual checksum (%v%%) cheaper than parity (%v%%)", dual, parity)
	}
}

// parsePct parses a "12.34%" table cell.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestRecoveryExperiment(t *testing.T) {
	r := smallRunner()
	tbl, err := r.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[5] != "verified" {
			t.Errorf("%s: output %s", row[0], row[5])
		}
	}
}

func TestMegaKVExperiment(t *testing.T) {
	r := smallRunner()
	tbl, err := r.MegaKV()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("megakv rows = %d, want 4", len(tbl.Rows))
	}
}

func TestNoCollisionReducesOverhead(t *testing.T) {
	r := smallRunner()
	tbl, err := r.NoCollision()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		with := parsePct(t, row[1])
		without := parsePct(t, row[2])
		if without >= with {
			t.Errorf("%s: collision-free overhead %v%% >= with collisions %v%%", row[0], without, with)
		}
	}
}

func TestWriteAmpSmall(t *testing.T) {
	r := smallRunner()
	tbl, err := r.WriteAmp()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[3], "+") {
			t.Errorf("%s: LP should only add writes, got %s", row[0], row[3])
		}
	}
}

func TestLockConfigsSlower(t *testing.T) {
	r := smallRunner()
	free, _, err := r.overhead("sad", naiveCfg(hashtab.Quad))
	if err != nil {
		t.Fatal(err)
	}
	locked, _, err := r.overhead("sad", lockCfg(hashtab.Quad))
	if err != nil {
		t.Fatal(err)
	}
	if locked <= free {
		t.Errorf("lock-based (%v) not slower than lock-free (%v) on the most block-heavy workload", locked, free)
	}
}

func TestLoadFactorMonotone(t *testing.T) {
	r := smallRunner()
	tbl, err := r.LoadFactor()
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, row := range tbl.Rows {
		c, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Errorf("collisions not increasing with load: %v after %v", c, prev)
		}
		prev = c
	}
}

func TestFusionAblation(t *testing.T) {
	r := smallRunner()
	tbl, err := r.Fusion()
	if err != nil {
		t.Fatal(err)
	}
	// Table bytes must strictly decrease with the fusion factor.
	var prev float64 = 1e18
	for _, row := range tbl.Rows {
		bytes, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if bytes >= prev {
			t.Errorf("table bytes not decreasing: %v after %v", bytes, prev)
		}
		prev = bytes
	}
}

func TestCheckpointAblation(t *testing.T) {
	r := smallRunner()
	tbl, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Post-crash damage must not increase as checkpoints get denser.
	var prev float64 = 1e18
	for _, row := range tbl.Rows {
		failed, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if failed > prev {
			t.Errorf("denser checkpoints increased damage: %v after %v", failed, prev)
		}
		prev = failed
	}
}

func TestMTBFPlanAblation(t *testing.T) {
	r := smallRunner()
	tbl, err := r.MTBFPlan()
	if err != nil {
		t.Fatal(err)
	}
	// Rarer failures must allow longer intervals and higher availability.
	var prevIv, prevAv float64 = -1, -1
	for _, row := range tbl.Rows {
		iv, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		av, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if iv <= prevIv || av <= prevAv {
			t.Errorf("interval/availability not increasing with MTBF: %v/%v after %v/%v", iv, av, prevIv, prevAv)
		}
		prevIv, prevAv = iv, av
	}
}

func TestRecoveryCostAblation(t *testing.T) {
	r := smallRunner()
	tbl, err := r.RecoveryCost()
	if err != nil {
		t.Fatal(err)
	}
	// Damage must not decrease as the cache grows.
	var prev float64 = -1
	for _, row := range tbl.Rows {
		failed, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if failed < prev {
			t.Errorf("larger cache lost fewer regions: %v after %v", failed, prev)
		}
		prev = failed
	}
}

func TestCPULPConcurrencyStory(t *testing.T) {
	r := smallRunner()
	tbl, err := r.CPULP()
	if err != nil {
		t.Fatal(err)
	}
	first := parsePct(t, tbl.Rows[0][1])
	last := parsePct(t, tbl.Rows[len(tbl.Rows)-1][1])
	if last <= first*5 {
		t.Errorf("CPU design should collapse with concurrency: %v%% -> %v%%", first, last)
	}
	for _, row := range tbl.Rows {
		cpu := parsePct(t, row[1])
		gpu := parsePct(t, row[2])
		if gpu >= cpu {
			t.Errorf("workers=%s: GPU design (%v%%) not cheaper than CPU design (%v%%)", row[0], gpu, cpu)
		}
	}
}

func TestRunnerScaleClamped(t *testing.T) {
	opt := DefaultOptions()
	opt.Scale = 0
	if r := NewRunner(opt); r.Opt.Scale != 1 {
		t.Errorf("scale not clamped: %d", r.Opt.Scale)
	}
}

func TestDefaultOptionsSane(t *testing.T) {
	opt := DefaultOptions()
	if opt.Dev.NumSMs <= 0 || opt.Mem.CacheBytes <= 0 || opt.Scale != 1 {
		t.Errorf("bad defaults: %+v", opt)
	}
	_ = gpusim.DefaultConfig() // keep import balanced with usage above
}

func TestFaultCampaignExperiment(t *testing.T) {
	r := smallRunner()
	tbl, err := r.FaultCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("fault campaign produced no rows")
	}
	for _, row := range tbl.Rows {
		if row[5] != "0" {
			t.Errorf("%s/%s: %s cases violated the campaign contract", row[0], row[1], row[5])
		}
	}
}

func TestModelCompareDirections(t *testing.T) {
	r := smallRunner()
	tbl, err := r.ModelCompare()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tbl.Rows), 5*len(pmodel.Names()); got != want {
		t.Fatalf("got %d rows, want %d (5 benchmarks x every registered model)", got, want)
	}
	// Per-benchmark orderings that hold by construction: strict flushes
	// and fences every protected store, so it must cost at least as much
	// time and as many NVM writes as any other model; EP's logging must
	// cost more than LP's flush-free checksums. (SBRP vs LP is workload-
	// dependent — buffered flushing can beat or lose to natural eviction
	// — so no ordering is pinned between them.)
	type cell struct{ overhead, writes float64 }
	byModel := map[string]map[string]cell{}
	for _, row := range tbl.Rows {
		bench, model := row[0], row[1]
		if byModel[bench] == nil {
			byModel[bench] = map[string]cell{}
		}
		byModel[bench][model] = cell{
			overhead: parsePct(t, row[2]),
			writes:   parsePct(t, strings.TrimPrefix(row[3], "+")),
		}
		if mb, err := strconv.ParseInt(row[4], 10, 64); err != nil || mb <= 0 {
			t.Errorf("%s/%s: bad metadata bytes %q", bench, model, row[4])
		}
	}
	for bench, cells := range byModel {
		strict := cells["strict"]
		for model, c := range cells {
			if model == "strict" {
				continue
			}
			if strict.overhead < c.overhead {
				t.Errorf("%s: strict overhead %v%% below %s's %v%%", bench, strict.overhead, model, c.overhead)
			}
		}
		if cells["ep"].overhead <= cells["lp"].overhead {
			t.Errorf("%s: EP overhead %v%% not greater than LP %v%%", bench, cells["ep"].overhead, cells["lp"].overhead)
		}
		if cells["ep"].writes <= cells["lp"].writes {
			t.Errorf("%s: EP write amplification %v%% not greater than LP %v%%", bench, cells["ep"].writes, cells["lp"].writes)
		}
	}
}

func TestModelCompareSubset(t *testing.T) {
	opt := DefaultOptions()
	opt.Dev.NumSMs = 16
	opt.Models = []string{"sbrp"}
	tbl, err := NewRunner(opt).ModelCompare()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("got %d rows, want 5 (one per benchmark)", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] != "sbrp" {
			t.Errorf("row for %s has model %q, want sbrp", row[0], row[1])
		}
	}
	opt.Models = []string{"nope"}
	if _, err := NewRunner(opt).ModelCompare(); err == nil {
		t.Fatal("unknown model in Options.Models did not error")
	}
}
