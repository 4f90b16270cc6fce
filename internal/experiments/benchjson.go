package experiments

// Machine-readable experiment results: the bench-regression trajectory.
//
// benchtab -json serialises selected experiments as BENCH_<exp>.json and
// cmd/benchguard compares a fresh report against the committed baseline,
// failing CI when a guarded metric regresses. Two kinds of metric coexist:
//
//   - guarded metrics are deterministic functions of the analysis at -j 1 —
//     class counts, solver queries, decisions, splits. They are
//     machine-independent, so a committed baseline from one host guards runs
//     on any other. Search-space metrics (decisions, splits, queries) are
//     the real regression signal for the solver fast path: wall-clock
//     improvements that buy search-space explosions are caught here;
//   - informational metrics (wall-clock, speedup factors) chart the
//     trajectory but are host-dependent, so benchguard ignores them.
//
// Exact metrics (class counts, target counts) must match the baseline
// bit-for-bit: a class-set change is never a "regression percentage", it is
// a soundness event that the golden corpus pins separately.

import (
	"encoding/json"
	"fmt"
	"time"

	"achilles/internal/solver"
)

// Metric is one measured value of an experiment.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// HigherIsBetter orients regression checks (speedups vs wall-clock).
	HigherIsBetter bool `json:"higher_is_better"`
	// Guard marks metrics benchguard enforces against the baseline.
	Guard bool `json:"guard"`
	// Exact marks guarded metrics that must equal the baseline exactly
	// (class counts); tolerance does not apply to them.
	Exact bool `json:"exact,omitempty"`
}

// BenchReport is the serialised form of one experiment run.
type BenchReport struct {
	// Experiment names the benchtab experiment that produced the report.
	Experiment string `json:"experiment"`
	// SolverVersion records the decision-procedure revision; guarded solver
	// counters are only comparable within one revision's semantics, so
	// benchguard reports a version change instead of diffing across it.
	SolverVersion string   `json:"solver_version"`
	Metrics       []Metric `json:"metrics"`
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r BenchReport) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Metric looks a metric up by name.
func (r BenchReport) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func ms(d time.Duration) float64 { return float64(d.Milliseconds()) }

// Report serialises the speedup experiment. Guarded metrics come from the
// -j 1 row — the sequential pipeline is deterministic, so its solver
// counters are exact regression signals; the multi-worker rows contribute
// informational wall-clock only.
func (s *Speedup) Report() (BenchReport, error) {
	r := BenchReport{Experiment: "speedup", SolverVersion: solver.Version}
	var seq *SpeedupRow
	for i := range s.Rows {
		if s.Rows[i].Jobs == 1 {
			seq = &s.Rows[i]
			break
		}
	}
	if seq == nil {
		return r, fmt.Errorf("experiments: speedup report needs a -j 1 row")
	}
	st := seq.Solver
	r.Metrics = []Metric{
		{Name: "classes", Value: float64(seq.Classes), Unit: "classes", Guard: true, Exact: true},
		{Name: "solver_queries", Value: float64(st.Queries), Unit: "queries", Guard: true},
		{Name: "solver_decisions", Value: float64(st.Decisions), Unit: "decisions", Guard: true},
		{Name: "solver_splits", Value: float64(st.Splits), Unit: "splits", Guard: true},
		{Name: "solver_unknowns", Value: float64(st.Unknowns), Unit: "queries", Guard: true},
		{Name: "solver_propagations", Value: float64(st.Propagations), Unit: "steps", Guard: true},
		{Name: "interned_terms", Value: float64(st.Interned), Unit: "terms"},
		{Name: "total_ms", Value: ms(seq.Total), Unit: "ms"},
		{Name: "server_ms", Value: ms(seq.Server), Unit: "ms"},
	}
	for _, row := range s.Rows {
		if row.Jobs == 1 {
			continue
		}
		r.Metrics = append(r.Metrics,
			Metric{Name: fmt.Sprintf("total_ms_j%d", row.Jobs), Value: ms(row.Total), Unit: "ms"})
	}
	return r, nil
}

// Report serialises the fleet-campaign experiment. Guarded metrics come
// from the budget-1 bundle's manifest counters.
func (c *CampaignScaling) Report() (BenchReport, error) {
	r := BenchReport{Experiment: "campaign", SolverVersion: solver.Version}
	if len(c.Rows) == 0 || c.Rows[0].Jobs != 1 {
		return r, fmt.Errorf("experiments: campaign report needs a budget-1 row first")
	}
	seq := c.Rows[0]
	r.Metrics = []Metric{
		{Name: "targets", Value: float64(c.Targets), Unit: "targets", Guard: true, Exact: true},
		{Name: "classes", Value: float64(seq.Classes), Unit: "classes", Guard: true, Exact: true},
		{Name: "solver_queries", Value: float64(c.Solver["queries"]), Unit: "queries", Guard: true},
		{Name: "solver_cache_misses", Value: float64(c.Solver["cache_misses"]), Unit: "queries", Guard: true},
		{Name: "solver_unknowns", Value: float64(c.Solver["unknowns"]), Unit: "queries", Guard: true},
		{Name: "solver_cache_hits", Value: float64(c.Solver["cache_hits"]), Unit: "queries"},
		{Name: "wall_ms", Value: ms(seq.Wall), Unit: "ms"},
	}
	for _, row := range c.Rows {
		if row.Jobs == 1 {
			continue
		}
		r.Metrics = append(r.Metrics,
			Metric{Name: fmt.Sprintf("wall_ms_j%d", row.Jobs), Value: ms(row.Wall), Unit: "ms"})
	}
	return r, nil
}
