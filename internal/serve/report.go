package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// report.go renders a serving run's outcome. Every field derives from
// simulated cycles and seeded draws, so two runs of the same config
// produce byte-identical reports — the root determinism suite pins
// exactly that.

// ClassReport is one SLO class's outcome.
type ClassReport struct {
	Class        string `json:"class"`
	BudgetCycles int64  `json:"budget_cycles"`
	Offered      int    `json:"offered"`
	Admitted     int    `json:"admitted"`
	Dropped      int    `json:"dropped"`
	Completed    int    `json:"completed"`
	Overflows    int    `json:"overflows,omitempty"`
	P50          int64  `json:"p50_cycles"`
	P95          int64  `json:"p95_cycles"`
	P99          int64  `json:"p99_cycles"`
	MaxLatency   int64  `json:"max_cycles"`
	// SLOFrac is the fraction of completed requests inside the budget.
	SLOFrac float64 `json:"slo_frac"`
	// GoodputPerMCycle is budget-respecting completions per million
	// cycles of run time.
	GoodputPerMCycle float64 `json:"goodput_per_mcycle"`
}

// Report is the full per-run summary.
type Report struct {
	Model  string `json:"model"`
	Policy string `json:"policy"`
	Seed   uint64 `json:"seed"`
	// Launches counts kernel launches; Recoveries counts crash
	// recoveries the run absorbed.
	Launches   int `json:"launches"`
	Recoveries int `json:"recoveries,omitempty"`
	// EndCycle is when the last batch completed; Busy/Drain/Recovery
	// cycles decompose where device time went.
	EndCycle       int64 `json:"end_cycle"`
	BusyCycles     int64 `json:"busy_cycles"`
	DrainCycles    int64 `json:"drain_cycles"`
	RecoveryCycles int64 `json:"recovery_cycles,omitempty"`
	// Classes reports per-SLO-class latency and admission outcomes, in
	// Config.Classes order.
	Classes []ClassReport `json:"classes"`
	// DurabilityOverhead is busy-cycle inflation relative to a bare
	// (model "none") run of the same config: set by CompareBaseline,
	// negative until then.
	DurabilityOverhead float64 `json:"durability_overhead,omitempty"`
}

// percentile returns the nearest-rank q-th percentile (q in (0,100]) of
// sorted latencies; 0 when empty.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*q/100 + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// fillClasses folds the raw per-class counters into the report.
func (rep *Report) fillClasses(cfg Config, stats []classStats) {
	horizonM := float64(rep.EndCycle) / 1e6
	for i, st := range stats {
		sort.Slice(st.latencies, func(a, b int) bool { return st.latencies[a] < st.latencies[b] })
		cr := ClassReport{
			Class:        cfg.Classes[i].Name,
			BudgetCycles: cfg.Classes[i].BudgetCycles,
			Offered:      st.offered,
			Admitted:     st.admitted,
			Dropped:      st.dropped,
			Completed:    st.completed,
			Overflows:    st.overflows,
			P50:          percentile(st.latencies, 50),
			P95:          percentile(st.latencies, 95),
			P99:          percentile(st.latencies, 99),
		}
		if n := len(st.latencies); n > 0 {
			cr.MaxLatency = st.latencies[n-1]
		}
		if st.completed > 0 {
			cr.SLOFrac = float64(st.onTime) / float64(st.completed)
		}
		if horizonM > 0 {
			cr.GoodputPerMCycle = float64(st.onTime) / horizonM
		}
		rep.Classes = append(rep.Classes, cr)
	}
	rep.DurabilityOverhead = -1
}

// CompareBaseline records busy-cycle inflation against a bare run of the
// same workload (model "none").
func (rep *Report) CompareBaseline(base *Report) {
	if base != nil && base.BusyCycles > 0 {
		rep.DurabilityOverhead = float64(rep.BusyCycles)/float64(base.BusyCycles) - 1
	}
}

// Render writes the human-readable report.
func (rep *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "serve: model=%s policy=%s seed=%d\n", rep.Model, rep.Policy, rep.Seed)
	fmt.Fprintf(w, "  %d launches over %d cycles (busy %d, drain %d", rep.Launches, rep.EndCycle, rep.BusyCycles, rep.DrainCycles)
	if rep.Recoveries > 0 {
		fmt.Fprintf(w, ", %d recoveries costing %d", rep.Recoveries, rep.RecoveryCycles)
	}
	fmt.Fprintf(w, ")\n")
	if rep.DurabilityOverhead >= 0 {
		fmt.Fprintf(w, "  durability overhead vs bare: +%.2f%%\n", rep.DurabilityOverhead*100)
	}
	tw := newTextTable("class", "budget", "offered", "admit", "drop", "done", "p50", "p95", "p99", "max", "slo-ok", "goodput/Mcyc")
	for _, c := range rep.Classes {
		tw.row(
			c.Class,
			fmt.Sprint(c.BudgetCycles),
			fmt.Sprint(c.Offered),
			fmt.Sprint(c.Admitted),
			fmt.Sprint(c.Dropped),
			fmt.Sprint(c.Completed),
			fmt.Sprint(c.P50),
			fmt.Sprint(c.P95),
			fmt.Sprint(c.P99),
			fmt.Sprint(c.MaxLatency),
			fmt.Sprintf("%.1f%%", c.SLOFrac*100),
			fmt.Sprintf("%.2f", c.GoodputPerMCycle),
		)
	}
	tw.render(w, "  ")
}

// String renders the report to a string (the determinism pins compare
// these byte-for-byte).
func (rep *Report) String() string {
	var sb strings.Builder
	rep.Render(&sb)
	return sb.String()
}

// textTable is a minimal aligned-column renderer (serve cannot import
// the harness, which sits above it).
type textTable struct {
	head []string
	rows [][]string
}

func newTextTable(head ...string) *textTable { return &textTable{head: head} }

func (t *textTable) row(cells ...string) {
	if len(cells) != len(t.head) {
		panic("serve: table row width mismatch")
	}
	t.rows = append(t.rows, cells)
}

func (t *textTable) render(w io.Writer, indent string) {
	width := make([]int, len(t.head))
	for i, h := range t.head {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		fmt.Fprint(w, indent)
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", width[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.head)
	for _, r := range t.rows {
		line(r)
	}
}
