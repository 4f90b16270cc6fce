// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment returns a typed result plus a text
// rendering with the same rows/series the paper reports; bench_test.go and
// cmd/benchtab are thin wrappers around these functions.
//
// Absolute times differ from the paper (interpreted NL models on commodity
// hardware vs x86 binaries under S2E on a 16-core Xeon); the reproduction
// target is the shape: who wins, by what rough factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured for each row.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/classic"
	"achilles/internal/core"
	"achilles/internal/fuzz"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/pbft"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"

	// Populate the protocol registry: every experiment resolves its targets,
	// oracles and fuzz generators from there.
	_ "achilles/internal/protocols"
)

// Table1 is the §6.2 accuracy comparison on FSP.
type Table1 struct {
	AchillesTP, AchillesFP int
	ClassicTP, ClassicFP   int
	AchillesTime           time.Duration
	ClassicTime            time.Duration
	ClassicMessages        int
}

// RunTable1 reproduces Table 1: Achilles vs classic symbolic execution on
// the bounded FSP setup with 80 known Trojan classes. perPath bounds the
// classic baseline's per-path enumeration (16 by default). The target, its
// ground-truth oracle and the class bucketing all come from the registry
// descriptor.
func RunTable1(perPath int) (*Table1, error) {
	out := &Table1{}
	d := registry.MustLookup("fsp")
	tgt := d.Target()

	// Achilles.
	run, err := d.Run(core.ModeOptimized, 0)
	if err != nil {
		return nil, err
	}
	out.AchillesTime = run.Total()
	classes := map[string]bool{}
	for _, tr := range run.Analysis.Trojans {
		if d.Trojan(tr.Concrete, nil) {
			classes[d.Class(tr.Concrete)] = true
		} else {
			out.AchillesFP++
		}
	}
	out.AchillesTP = len(classes)

	// Classic symbolic execution + enumeration.
	cres, err := classic.Enumerate(tgt.Server, classic.Options{
		NumFields: len(tgt.FieldNames),
		PerPath:   perPath,
	})
	if err != nil {
		return nil, err
	}
	out.ClassicTime = cres.Duration
	out.ClassicMessages = len(cres.Messages)
	cclasses := map[string]bool{}
	for _, m := range cres.Messages {
		if d.Trojan(m.Fields, nil) {
			cclasses[d.Class(m.Fields)] = true
		} else {
			out.ClassicFP++
		}
	}
	out.ClassicTP = len(cclasses)
	return out, nil
}

// Render prints the table in the paper's layout.
func (t *Table1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Achilles vs classic symbolic execution (FSP, bound 5)\n")
	fmt.Fprintf(&b, "%-18s %12s %12s\n", "", "Achilles", "Classic")
	fmt.Fprintf(&b, "%-18s %12d %12d\n", "True Positives", t.AchillesTP, t.ClassicTP)
	fmt.Fprintf(&b, "%-18s %12d %12d\n", "False Positives", t.AchillesFP, t.ClassicFP)
	fmt.Fprintf(&b, "%-18s %12s %12s\n", "Time", t.AchillesTime.Round(time.Millisecond), t.ClassicTime.Round(time.Millisecond))
	return b.String()
}

// Figure10Point is one point of the discovery curve.
type Figure10Point struct {
	Elapsed time.Duration
	Percent float64
}

// Figure10 is the §6.2 discovery-over-time curve.
type Figure10 struct {
	Points    []Figure10Point
	Total     int
	Known     int
	ServerDur time.Duration
}

// RunFigure10 reproduces Figure 10: the percentage of the 80 known FSP
// Trojans discovered as a function of server-analysis time.
func RunFigure10() (*Figure10, error) {
	run, err := registry.MustLookup("fsp").Run(core.ModeOptimized, 0)
	if err != nil {
		return nil, err
	}
	out := &Figure10{
		Total:     len(run.Analysis.Trojans),
		Known:     fsp.KnownTrojanClasses(),
		ServerDur: run.ServerTime,
	}
	for _, p := range run.Analysis.Timeline {
		out.Points = append(out.Points, Figure10Point{
			Elapsed: p.Elapsed,
			Percent: 100 * float64(p.Found) / float64(out.Known),
		})
	}
	return out, nil
}

// Render prints a sampled curve.
func (f *Figure10) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: %% of known FSP Trojans discovered vs analysis time (total %d / known %d)\n", f.Total, f.Known)
	step := len(f.Points) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(f.Points); i += step {
		p := f.Points[i]
		fmt.Fprintf(&b, "  %10s  %6.1f%%\n", p.Elapsed.Round(time.Millisecond), p.Percent)
	}
	last := f.Points[len(f.Points)-1]
	fmt.Fprintf(&b, "  %10s  %6.1f%%  (final)\n", last.Elapsed.Round(time.Millisecond), last.Percent)
	return b.String()
}

// Figure11 aggregates the live client-path counts per server path length.
type Figure11 struct {
	// MeanLive[len] is the mean number of matching client path predicates
	// across all states observed at that path length.
	Lens     []int
	MeanLive []float64
	MaxLive  []int
	Clients  int
}

// RunFigure11 reproduces Figure 11: the number of client path predicates
// that can trigger each server execution path, as a function of path
// length. The count must fall as paths grow more specialised. The rich FSP
// client corpus (flags + path normalisation, 256 client path predicates) is
// used here because Figure 11 studies exactly the large-predicate regime.
func RunFigure11() (*Figure11, error) {
	run, err := core.Run(fsp.NewRichTarget(false), core.AnalysisOptions{})
	if err != nil {
		return nil, err
	}
	byLen := map[int][]int{}
	for _, p := range run.Analysis.LiveTrace {
		byLen[p.PathLen] = append(byLen[p.PathLen], p.Live)
	}
	out := &Figure11{Clients: len(run.Clients.Paths)}
	for l := range byLen {
		out.Lens = append(out.Lens, l)
	}
	sort.Ints(out.Lens)
	for _, l := range out.Lens {
		sum, max := 0, 0
		for _, v := range byLen[l] {
			sum += v
			if v > max {
				max = v
			}
		}
		out.MeanLive = append(out.MeanLive, float64(sum)/float64(len(byLen[l])))
		out.MaxLive = append(out.MaxLive, max)
	}
	return out, nil
}

// Render prints the series.
func (f *Figure11) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: matching client path predicates vs server path length (%d client paths)\n", f.Clients)
	fmt.Fprintf(&b, "  %8s %10s %8s\n", "pathLen", "meanLive", "maxLive")
	for i, l := range f.Lens {
		fmt.Fprintf(&b, "  %8d %10.1f %8d\n", l, f.MeanLive[i], f.MaxLive[i])
	}
	return b.String()
}

// FuzzComparison is the §6.2 fuzzing baseline.
type FuzzComparison struct {
	Tests            int
	Accepted         int
	Trojans          int
	DistinctClasses  int
	TestsPerMin      float64
	TrojanDensity    float64 // analytic fraction of the fuzzed space that is Trojan
	ExpectedPerHour  float64 // analytic expected Trojan discoveries per hour
	AchillesTotal    time.Duration
	AchillesTrojans  int
	FuzzFalsePosRate float64 // accepted-but-not-Trojan per test
}

// TrojanDensity computes, in closed form, the fraction of the fuzzed space
// (cmd, bb_len, 5 path bytes uniform over 256 values each) that is a
// mismatched-length Trojan — the analogue of the paper's 66M / 1.8e19.
func TrojanDensity() float64 {
	const charset = float64(fsp.CharMax - fsp.CharMin + 1) // 94
	total := math.Pow(256, 7)
	count := 0.0
	for _, l := range []int{1, 2, 3, 4} {
		for t := 0; t < l; t++ {
			// chars before the NUL: 94^t; the NUL: 1; smuggled payload
			// bytes between t+1 and l-1: 256^(l-1-t); bytes beyond l: 0.
			count += 8 * math.Pow(charset, float64(t)) * math.Pow(256, float64(l-1-t))
		}
	}
	return count / total
}

// RunFuzzComparison measures fuzzing throughput and Trojan yield on the FSP
// server model and contrasts it with Achilles; generator, oracle and class
// bucketing come from the registry descriptor.
func RunFuzzComparison(tests int) (*FuzzComparison, error) {
	d := registry.MustLookup("fsp")
	res, err := d.FuzzCampaign(tests, 1)
	if err != nil {
		return nil, err
	}
	run, err := d.Run(core.ModeOptimized, 0)
	if err != nil {
		return nil, err
	}
	density := TrojanDensity()
	return &FuzzComparison{
		Tests:            res.Tests,
		Accepted:         res.Accepted,
		Trojans:          res.Trojans,
		DistinctClasses:  res.Distinct,
		TestsPerMin:      res.TestsPerMin,
		TrojanDensity:    density,
		ExpectedPerHour:  fuzz.ExpectedTrojansPerHour(res.TestsPerMin, density),
		AchillesTotal:    run.Total(),
		AchillesTrojans:  len(run.Analysis.Trojans),
		FuzzFalsePosRate: float64(res.Accepted-res.Trojans) / float64(res.Tests),
	}, nil
}

// Render prints the comparison.
func (f *FuzzComparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fuzzing comparison (FSP, %d random tests over the analysed fields)\n", f.Tests)
	fmt.Fprintf(&b, "  fuzz throughput:        %.0f tests/min\n", f.TestsPerMin)
	fmt.Fprintf(&b, "  fuzz accepted:          %d (%d non-Trojan)\n", f.Accepted, f.Accepted-f.Trojans)
	fmt.Fprintf(&b, "  fuzz Trojans hit:       %d (%d distinct classes of 80)\n", f.Trojans, f.DistinctClasses)
	fmt.Fprintf(&b, "  Trojan density:         %.3g\n", f.TrojanDensity)
	fmt.Fprintf(&b, "  expected Trojans/hour:  %.4f\n", f.ExpectedPerHour)
	fmt.Fprintf(&b, "  Achilles: all %d classes in %s\n", f.AchillesTrojans, f.AchillesTotal.Round(time.Millisecond))
	return b.String()
}

// PhaseSplit is the §6.2 timing decomposition.
type PhaseSplit struct {
	ClientExtract time.Duration
	Preprocess    time.Duration
	Server        time.Duration
}

// RunPhaseSplit measures the three Achilles phases on FSP (the paper: 3 min
// gathering, 15 min preprocessing, 45 min server analysis — shape: client
// extraction is the cheap phase, server analysis dominates).
func RunPhaseSplit() (*PhaseSplit, error) {
	run, err := registry.MustLookup("fsp").Run(core.ModeOptimized, 0)
	if err != nil {
		return nil, err
	}
	return &PhaseSplit{
		ClientExtract: run.ClientExtractTime,
		Preprocess:    run.PreprocessTime,
		Server:        run.ServerTime,
	}, nil
}

// Render prints the split.
func (p *PhaseSplit) Render() string {
	var b strings.Builder
	total := p.ClientExtract + p.Preprocess + p.Server
	fmt.Fprintf(&b, "Phase split (FSP analysis, total %s)\n", total.Round(time.Millisecond))
	fmt.Fprintf(&b, "  gather client predicate: %10s (%4.1f%%)\n", p.ClientExtract.Round(time.Millisecond), pct(p.ClientExtract, total))
	fmt.Fprintf(&b, "  preprocess predicate:    %10s (%4.1f%%)\n", p.Preprocess.Round(time.Millisecond), pct(p.Preprocess, total))
	fmt.Fprintf(&b, "  analyze server:          %10s (%4.1f%%)\n", p.Server.Round(time.Millisecond), pct(p.Server, total))
	return b.String()
}

func pct(d, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

// Ablation is the §6.4 optimisation study.
type Ablation struct {
	Optimized       time.Duration
	NoDifferentFrom time.Duration
	APosteriori     time.Duration
	TrojansPerMode  [3]int
	SolverQueries   [3]int
}

// RunAblation compares full Achilles against the variant without the
// differentFrom bulk drop and against a-posteriori constraint differencing
// (the paper's 1h03 vs 2h15 comparison).
func RunAblation() (*Ablation, error) {
	out := &Ablation{}
	modes := []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori}
	for i, mode := range modes {
		run, err := registry.MustLookup("fsp").Run(mode, 0)
		if err != nil {
			return nil, err
		}
		d := run.Total()
		switch mode {
		case core.ModeOptimized:
			out.Optimized = d
		case core.ModeNoDifferentFrom:
			out.NoDifferentFrom = d
		case core.ModeAPosteriori:
			out.APosteriori = d
		}
		out.TrojansPerMode[i] = len(run.Analysis.Trojans)
		out.SolverQueries[i] = run.Analysis.SolverStats.Queries
	}
	return out, nil
}

// Render prints the ablation rows.
func (a *Ablation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (§6.4): optimisation impact on the FSP analysis\n")
	fmt.Fprintf(&b, "  %-22s %12s %10s %14s\n", "mode", "time", "trojans", "solver queries")
	fmt.Fprintf(&b, "  %-22s %12s %10d %14d\n", "optimized", a.Optimized.Round(time.Millisecond), a.TrojansPerMode[0], a.SolverQueries[0])
	fmt.Fprintf(&b, "  %-22s %12s %10d %14d\n", "no differentFrom", a.NoDifferentFrom.Round(time.Millisecond), a.TrojansPerMode[1], a.SolverQueries[1])
	fmt.Fprintf(&b, "  %-22s %12s %10d %14d\n", "a-posteriori", a.APosteriori.Round(time.Millisecond), a.TrojansPerMode[2], a.SolverQueries[2])
	return b.String()
}

// PBFTAnalysis is the §6.2 PBFT experiment.
type PBFTAnalysis struct {
	Trojans        int
	AcceptingPaths int
	Total          time.Duration
	SingleClass    bool
}

// RunPBFTAnalysis reproduces the PBFT result: a single Trojan type (the MAC
// attack), discovered in seconds, bundled with valid messages on every
// accepting path.
func RunPBFTAnalysis() (*PBFTAnalysis, error) {
	run, err := registry.MustLookup("pbft").Run(core.ModeOptimized, 0)
	if err != nil {
		return nil, err
	}
	out := &PBFTAnalysis{
		Trojans:        len(run.Analysis.Trojans),
		AcceptingPaths: run.Analysis.AcceptingStates,
		Total:          run.Total(),
	}
	out.SingleClass = true
	for _, tr := range run.Analysis.Trojans {
		if tr.Concrete[pbft.FieldMAC] == pbft.AuthConst {
			out.SingleClass = false
		}
	}
	return out, nil
}

// Render prints the summary.
func (p *PBFTAnalysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PBFT analysis (§6.2): %d Trojan report(s) on %d accepting paths in %s\n",
		p.Trojans, p.AcceptingPaths, p.Total.Round(time.Millisecond))
	fmt.Fprintf(&b, "  single Trojan type (corrupted authenticator): %v\n", p.SingleClass)
	return b.String()
}

// MACImpact is the §6.3 impact experiment.
type MACImpact struct {
	Rates      []int // attack period: every Nth request is Trojan (0 = none)
	Goodput    []float64
	Recoveries []int
}

// RunMACImpact measures correct-client goodput under increasing MAC-attack
// intensity on the concrete PBFT cluster.
func RunMACImpact(total int) *MACImpact {
	out := &MACImpact{}
	for _, every := range []int{0, 100, 20, 10, 5, 2} {
		m := pbft.NewCluster(1, 4).AttackWorkload(total, every)
		out.Rates = append(out.Rates, every)
		out.Goodput = append(out.Goodput, m.Goodput())
		out.Recoveries = append(out.Recoveries, m.Recoveries)
	}
	return out
}

// Render prints the series.
func (m *MACImpact) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PBFT MAC-attack impact (§6.3): goodput vs Trojan injection rate\n")
	fmt.Fprintf(&b, "  %-14s %12s %12s\n", "attack rate", "goodput", "recoveries")
	for i, every := range m.Rates {
		rate := "none"
		if every > 0 {
			rate = fmt.Sprintf("1/%d", every)
		}
		fmt.Fprintf(&b, "  %-14s %12.2f %12d\n", rate, m.Goodput[i], m.Recoveries[i])
	}
	return b.String()
}

// WildcardSummary is the §6.3 FSP wildcard experiment.
type WildcardSummary struct {
	TotalTrojans    int
	LengthClasses   int
	WildcardClasses int
	Total           time.Duration
}

// RunWildcard runs the glob-aware FSP analysis.
func RunWildcard() (*WildcardSummary, error) {
	run, err := registry.MustLookup("fsp-glob").Run(core.ModeOptimized, 0)
	if err != nil {
		return nil, err
	}
	out := &WildcardSummary{TotalTrojans: len(run.Analysis.Trojans), Total: run.Total()}
	for _, tr := range run.Analysis.Trojans {
		if _, rep, act, _ := fsp.ClassOf(tr.Concrete); act < rep {
			out.LengthClasses++
		} else {
			out.WildcardClasses++
		}
	}
	return out, nil
}

// Render prints the summary.
func (w *WildcardSummary) Render() string {
	return fmt.Sprintf("FSP wildcard experiment (§6.3): %d Trojan classes (%d mismatched-length, %d wildcard) in %s\n",
		w.TotalTrojans, w.LengthClasses, w.WildcardClasses, w.Total.Round(time.Millisecond))
}

// SpeedupRow is one parallelism level of the scaling experiment.
type SpeedupRow struct {
	Jobs    int
	Total   time.Duration
	Server  time.Duration
	Classes int
	Speedup float64 // sequential total / this total
	// Solver holds the run's solver counters. At -j 1 the pipeline is
	// sequential and the counters are deterministic, which makes them the
	// guarded search-space metrics of the bench trajectory (benchjson.go).
	Solver solver.Stats
}

// Speedup is the parallel-vs-sequential scaling study. It goes beyond the
// paper: the original Achilles ran single-threaded under S2E, whereas this
// reproduction's pipeline — client extraction, predicate preprocessing and
// the server frontier — fans out over -j workers with a shared solver cache.
type Speedup struct {
	Rows []SpeedupRow
	CPUs int
}

// RunSpeedup measures the rich-corpus FSP analysis (256 client path
// predicates, the heaviest bundled workload) at each parallelism level and
// verifies that every level reports the identical Trojan class set. On a
// single-core host the rows degenerate to "no slower"; on multicore the
// server phase scales with the frontier workers.
func RunSpeedup(jobs []int) (*Speedup, error) {
	out := &Speedup{CPUs: runtime.NumCPU()}
	var baseline *core.RunResult
	var baselineClasses []string
	for _, j := range jobs {
		run, err := core.Run(fsp.NewRichTarget(false), core.AnalysisOptions{Parallelism: j})
		if err != nil {
			return nil, err
		}
		classes := make([]string, len(run.Analysis.Trojans))
		for i, tr := range run.Analysis.Trojans {
			classes[i] = fmt.Sprintf("%s@%v", tr.Witness, tr.Concrete)
		}
		sort.Strings(classes)
		if baseline == nil {
			baseline = run
			baselineClasses = classes
		} else if !slices.Equal(classes, baselineClasses) {
			return nil, fmt.Errorf("speedup: -j %d reported a different Trojan class set than -j %d", j, jobs[0])
		}
		row := SpeedupRow{
			Jobs:    j,
			Total:   run.Total(),
			Server:  run.ServerTime,
			Classes: len(run.Analysis.Trojans),
			Solver:  run.Analysis.SolverStats,
		}
		if run.Total() > 0 {
			row.Speedup = float64(baseline.Total()) / float64(run.Total())
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the scaling table.
func (s *Speedup) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel scaling (rich FSP corpus, %d CPUs): identical class set at every -j\n", s.CPUs)
	fmt.Fprintf(&b, "  %4s %12s %12s %8s %8s\n", "-j", "total", "server", "classes", "speedup")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "  %4d %12s %12s %8d %7.2fx\n",
			r.Jobs, r.Total.Round(time.Millisecond), r.Server.Round(time.Millisecond), r.Classes, r.Speedup)
	}
	return b.String()
}

// CampaignRow is one parallelism level of the fleet-campaign scaling table.
type CampaignRow struct {
	Jobs    int
	Wall    time.Duration
	Classes int
	Speedup float64 // budget-1 wall / this wall
}

// CampaignScaling is the fleet-audit wall-clock study: the whole registry
// catalog audited as one campaign (internal/campaign) at increasing global
// -j budgets. Unlike the per-target speedup table, the campaign overlaps
// cheap and expensive targets on the cross-target worker pool, so the fleet
// wall-clock tracks the most expensive job rather than the sum of all jobs.
type CampaignScaling struct {
	Rows    []CampaignRow
	Targets int
	CPUs    int
	// Solver holds the budget-1 campaign's manifest solver counters —
	// deterministic at budget 1, guarded by the bench trajectory.
	Solver core.Counters
}

// RunCampaignScaling audits every registered target at each budget and
// verifies that every level produces the identical diffable bundle (the
// campaign inherits the core determinism contract; it errors out
// otherwise).
func RunCampaignScaling(budgets []int) (*CampaignScaling, error) {
	out := &CampaignScaling{CPUs: runtime.NumCPU()}
	var baseline *campaign.Bundle
	var baseWall time.Duration
	for _, j := range budgets {
		b, err := campaign.Run(campaign.Options{Jobs: j})
		if err != nil {
			return nil, err
		}
		for _, rm := range b.Manifest.Runs {
			if rm.Error != "" {
				return nil, fmt.Errorf("experiments: campaign job %s: %s", rm.Key(), rm.Error)
			}
		}
		if baseline == nil {
			baseline = b
			out.Targets = len(b.Manifest.Runs)
			out.Solver = b.Manifest.Solver
		} else if d := campaign.Diff(baseline, b); !d.Empty() {
			return nil, fmt.Errorf("experiments: campaign at -j %d produced a different bundle than -j %d:\n%s",
				j, budgets[0], d.Render())
		}
		classes := 0
		for _, rm := range b.Manifest.Runs {
			classes += rm.Classes
		}
		row := CampaignRow{
			Jobs:    j,
			Wall:    time.Duration(b.Manifest.WallMS) * time.Millisecond,
			Classes: classes,
		}
		if baseWall == 0 {
			baseWall = row.Wall
		}
		if row.Wall > 0 {
			row.Speedup = float64(baseWall) / float64(row.Wall)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the fleet scaling table.
func (c *CampaignScaling) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet campaign scaling (%d targets, %d CPUs): identical bundle at every -j\n", c.Targets, c.CPUs)
	fmt.Fprintf(&b, "  %4s %12s %8s %8s\n", "-j", "wall", "classes", "speedup")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "  %4d %12s %8d %7.2fx\n", r.Jobs, r.Wall.Round(time.Millisecond), r.Classes, r.Speedup)
	}
	return b.String()
}

// IncrementalCampaign is the cold-vs-warm fleet audit study: the whole
// catalog audited three times — cold (fresh solver, no baseline), with only
// the persisted solver cache warm (a forced full re-run), and fully
// incremental (baseline reuse + warm cache). The incremental row is the
// paper's continuous-audit steady state: an unchanged fleet re-audits for
// the price of recomputing input fingerprints.
type IncrementalCampaign struct {
	Targets      int
	TotalJobs    int
	Jobs         int // the -j budget used for every run
	CacheEntries int // solver verdicts persisted between the runs

	ColdWall        time.Duration
	WarmCacheWall   time.Duration // full re-run, persisted solver cache loaded
	IncrementalWall time.Duration // baseline reuse + warm cache
	CachedJobs      int           // jobs reused verbatim in the incremental run
}

// RunIncrementalCampaign measures the three runs over targets (nil = whole
// catalog) and verifies every bundle is identical to the cold one — reuse
// must never change an answer. The solver cache round-trips through a real
// file, exactly as `achilles-audit run -cache` does.
func RunIncrementalCampaign(targets []string, jobs int) (*IncrementalCampaign, error) {
	opts := func(sol *solver.Solver) campaign.Options {
		return campaign.Options{Targets: targets, Jobs: jobs, Solver: sol}
	}
	coldSol := solver.Default()
	cold, err := campaign.Run(opts(coldSol))
	if err != nil {
		return nil, err
	}
	for _, rm := range cold.Manifest.Runs {
		if rm.Error != "" {
			return nil, fmt.Errorf("experiments: cold campaign job %s: %s", rm.Key(), rm.Error)
		}
	}
	dir, err := os.MkdirTemp("", "achilles-incremental-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cacheFile := filepath.Join(dir, "solver-cache.jsonl")
	if err := coldSol.SaveCache(cacheFile); err != nil {
		return nil, err
	}

	out := &IncrementalCampaign{
		Targets:   len(targets),
		TotalJobs: len(cold.Manifest.Runs),
		Jobs:      jobs,
		ColdWall:  time.Duration(cold.Manifest.WallMS) * time.Millisecond,
	}
	if targets == nil {
		out.Targets = len(cold.Manifest.Runs)
	}

	// Forced full re-run with only the solver cache warm.
	warmSol := solver.Default()
	if out.CacheEntries, err = warmSol.LoadCache(cacheFile); err != nil {
		return nil, err
	}
	warm, err := campaign.Run(opts(warmSol))
	if err != nil {
		return nil, err
	}
	if d := campaign.Diff(cold, warm); !d.Empty() {
		return nil, fmt.Errorf("experiments: warm-cache campaign changed the bundle:\n%s", d.Render())
	}
	out.WarmCacheWall = time.Duration(warm.Manifest.WallMS) * time.Millisecond

	// Fully incremental: baseline reuse + warm cache.
	incSol := solver.Default()
	if _, err := incSol.LoadCache(cacheFile); err != nil {
		return nil, err
	}
	incOpts := opts(incSol)
	incOpts.Baseline = cold
	inc, err := campaign.Run(incOpts)
	if err != nil {
		return nil, err
	}
	if d := campaign.Diff(cold, inc); !d.Empty() {
		return nil, fmt.Errorf("experiments: incremental campaign changed the bundle:\n%s", d.Render())
	}
	out.IncrementalWall = time.Duration(inc.Manifest.WallMS) * time.Millisecond
	out.CachedJobs = inc.Manifest.CachedJobs
	return out, nil
}

// Render prints the cold/warm table.
func (ic *IncrementalCampaign) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incremental fleet audit (%d jobs, -j %d): identical bundle on every row\n",
		ic.TotalJobs, ic.Jobs)
	fmt.Fprintf(&b, "  %-28s %12s %10s %10s\n", "run", "wall", "jobs run", "of cold")
	row := func(name string, wall time.Duration, jobsRun int) {
		pctCold := 100.0
		if ic.ColdWall > 0 {
			pctCold = 100 * float64(wall) / float64(ic.ColdWall)
		}
		fmt.Fprintf(&b, "  %-28s %12s %10d %9.1f%%\n", name, wall.Round(time.Millisecond), jobsRun, pctCold)
	}
	row("cold", ic.ColdWall, ic.TotalJobs)
	row("warm solver cache", ic.WarmCacheWall, ic.TotalJobs)
	row("incremental (-baseline)", ic.IncrementalWall, ic.TotalJobs-ic.CachedJobs)
	fmt.Fprintf(&b, "  persisted solver verdicts: %d; jobs reused verbatim: %d/%d\n",
		ic.CacheEntries, ic.CachedJobs, ic.TotalJobs)
	return b.String()
}

// FuzzBaselineRow is the black-box fuzzing baseline for one registry target.
type FuzzBaselineRow struct {
	Target   string
	Tests    int
	Accepted int
	Trojans  int
	Distinct int
}

// FuzzBaselines is the registry-driven §6.2 fuzzing baseline.
type FuzzBaselines struct {
	Rows []FuzzBaselineRow
}

// RunFuzzBaselines runs each fuzzable registry target's black-box campaign
// (every target when name is "" or "all"). The per-target generator, oracle
// and pinned local state come from the descriptor.
func RunFuzzBaselines(name string, tests int) (*FuzzBaselines, error) {
	var descs []registry.Descriptor
	if name == "" || name == "all" {
		descs = registry.All()
	} else {
		d, ok := registry.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown target %q (registered: %s)",
				name, strings.Join(registry.Names(), ", "))
		}
		descs = []registry.Descriptor{d}
	}
	out := &FuzzBaselines{}
	for _, d := range descs {
		if d.Fuzz == nil {
			continue
		}
		res, err := d.FuzzCampaign(tests, 1)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, FuzzBaselineRow{
			Target:   d.Name,
			Tests:    res.Tests,
			Accepted: res.Accepted,
			Trojans:  res.Trojans,
			Distinct: res.Distinct,
		})
	}
	if len(out.Rows) == 0 {
		return nil, fmt.Errorf("experiments: target %q is not fuzzable", name)
	}
	return out, nil
}

// Render prints the baseline rows.
func (f *FuzzBaselines) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fuzzing baseline per registry target\n")
	fmt.Fprintf(&b, "  %-16s %10s %10s %10s %10s\n", "target", "tests", "accepted", "trojans", "classes")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-16s %10d %10d %10d %10d\n", r.Target, r.Tests, r.Accepted, r.Trojans, r.Distinct)
	}
	return b.String()
}

// RegistrySweepRow is one target of the whole-registry analysis sweep.
type RegistrySweepRow struct {
	Name        string
	ClientPaths int
	Trojans     int
	Verified    int // reports passing both §4 verification checks
	Expected    bool
	OK          bool // Trojan presence matches the descriptor's expectation
	Total       time.Duration
}

// RegistrySweep runs the full analysis on every registered target — the
// "as many scenarios as you can imagine" table: one row per workload, all
// resolved from the registry, no per-protocol wiring.
type RegistrySweep struct {
	Rows        []RegistrySweepRow
	Parallelism int
}

// RunRegistrySweep analyses every registry target at the given parallelism.
func RunRegistrySweep(parallelism int) (*RegistrySweep, error) {
	out := &RegistrySweep{Parallelism: parallelism}
	for _, d := range registry.All() {
		run, err := d.Run(core.ModeOptimized, parallelism)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		row := RegistrySweepRow{
			Name:        d.Name,
			ClientPaths: len(run.Clients.Paths),
			Trojans:     len(run.Analysis.Trojans),
			Expected:    d.ExpectTrojans,
			Total:       run.Total(),
		}
		for _, tr := range run.Analysis.Trojans {
			if tr.VerifiedAccept && tr.VerifiedNotClient {
				row.Verified++
			}
		}
		row.OK = (row.Trojans > 0) == d.ExpectTrojans
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the sweep table.
func (s *RegistrySweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Registry sweep (-j %d): full analysis of every registered target\n", s.Parallelism)
	fmt.Fprintf(&b, "  %-16s %8s %8s %9s %9s %12s %4s\n",
		"target", "clients", "trojans", "verified", "expected", "total", "ok")
	for _, r := range s.Rows {
		expect := "none"
		if r.Expected {
			expect = "some"
		}
		fmt.Fprintf(&b, "  %-16s %8d %8d %9d %9s %12s %4v\n",
			r.Name, r.ClientPaths, r.Trojans, r.Verified, expect,
			r.Total.Round(time.Millisecond), r.OK)
	}
	return b.String()
}
