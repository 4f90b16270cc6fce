package experiments

import (
	"strings"
	"testing"

	"achilles/internal/protocols/fsp"
)

func TestTable1Shape(t *testing.T) {
	tab, err := RunTable1(8)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: Achilles finds all 80 classes with zero false
	// positives; classic finds (at most) the same classes but buried in
	// false positives.
	if tab.AchillesTP != 80 || tab.AchillesFP != 0 {
		t.Fatalf("Achilles TP=%d FP=%d, want 80/0", tab.AchillesTP, tab.AchillesFP)
	}
	if tab.ClassicFP == 0 {
		t.Fatalf("classic baseline produced no false positives — the signal/noise point is lost")
	}
	if tab.ClassicFP < tab.ClassicTP {
		t.Fatalf("classic FP (%d) should dominate TP (%d)", tab.ClassicFP, tab.ClassicTP)
	}
	if !strings.Contains(tab.Render(), "True Positives") {
		t.Fatal("render broken")
	}
}

func TestFigure10Shape(t *testing.T) {
	fig, err := RunFigure10()
	if err != nil {
		t.Fatal(err)
	}
	if fig.Total != fig.Known {
		t.Fatalf("found %d of %d known classes", fig.Total, fig.Known)
	}
	// Monotone non-decreasing, ends at 100%.
	last := -1.0
	for _, p := range fig.Points {
		if p.Percent < last {
			t.Fatalf("discovery curve not monotone: %v", fig.Points)
		}
		last = p.Percent
	}
	if last != 100 {
		t.Fatalf("final percentage %.1f, want 100", last)
	}
	if !strings.Contains(fig.Render(), "%") {
		t.Fatal("render broken")
	}
}

func TestFigure11Shape(t *testing.T) {
	fig, err := RunFigure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Lens) < 3 {
		t.Fatalf("too few path lengths: %v", fig.Lens)
	}
	// The paper's shape: long paths match far fewer client predicates than
	// short ones.
	first := fig.MeanLive[0]
	lastMean := fig.MeanLive[len(fig.MeanLive)-1]
	if lastMean >= first {
		t.Fatalf("live counts do not fall with path length: first %.1f last %.1f", first, lastMean)
	}
	if fig.MaxLive[0] > fig.Clients {
		t.Fatalf("max live %d exceeds client paths %d", fig.MaxLive[0], fig.Clients)
	}
	_ = fig.Render()
}

func TestTrojanDensityFormula(t *testing.T) {
	d := TrojanDensity()
	if d <= 0 || d > 1e-3 {
		t.Fatalf("density out of expected range: %g", d)
	}
	// Cross-check against direct enumeration over a reduced space: use the
	// formula's own structure with 94 printable chars.
	count := 0.0
	for _, l := range []int{1, 2, 3, 4} {
		for tt := 0; tt < l; tt++ {
			c := 8.0
			for i := 0; i < tt; i++ {
				c *= 94
			}
			for i := tt + 1; i < l; i++ {
				c *= 256
			}
			count += c
		}
	}
	total := 1.0
	for i := 0; i < 7; i++ {
		total *= 256
	}
	if diff := d - count/total; diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("density mismatch: %g vs %g", d, count/total)
	}
}

func TestFuzzComparisonShape(t *testing.T) {
	fc, err := RunFuzzComparison(3000)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Tests != 3000 {
		t.Fatalf("tests = %d", fc.Tests)
	}
	// Random fuzzing over the analysed fields should essentially never hit
	// a Trojan (density ~1e-7), while Achilles finds all 80.
	if fc.DistinctClasses >= 80 {
		t.Fatalf("fuzzing covered %d classes in 3000 tests — generator is not random enough", fc.DistinctClasses)
	}
	if fc.AchillesTrojans != 80 {
		t.Fatalf("Achilles found %d", fc.AchillesTrojans)
	}
	if fc.ExpectedPerHour < 0 {
		t.Fatal("negative expectation")
	}
	_ = fc.Render()
}

func TestPhaseSplit(t *testing.T) {
	ps, err := RunPhaseSplit()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: gathering the client predicate is the cheapest
	// phase; the server analysis dominates.
	if ps.ClientExtract >= ps.Server {
		t.Fatalf("client extraction (%v) should be cheaper than server analysis (%v)",
			ps.ClientExtract, ps.Server)
	}
	_ = ps.Render()
}

func TestAblationShape(t *testing.T) {
	ab, err := RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	// All modes must find the same 80 Trojans.
	for i, n := range ab.TrojansPerMode {
		if n != 80 {
			t.Fatalf("mode %d found %d Trojans", i, n)
		}
	}
	// The optimisations must reduce solver work: full Achilles issues fewer
	// queries than the no-differentFrom variant.
	if ab.SolverQueries[0] >= ab.SolverQueries[1] {
		t.Fatalf("differentFrom did not reduce solver queries: %d vs %d",
			ab.SolverQueries[0], ab.SolverQueries[1])
	}
	_ = ab.Render()
}

func TestPBFTAnalysisShape(t *testing.T) {
	pa, err := RunPBFTAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if pa.Trojans == 0 || !pa.SingleClass {
		t.Fatalf("PBFT: trojans=%d single=%v", pa.Trojans, pa.SingleClass)
	}
	if pa.Trojans != pa.AcceptingPaths {
		t.Fatalf("MAC trojan must appear on every accepting path: %d vs %d", pa.Trojans, pa.AcceptingPaths)
	}
	if pa.Total.Seconds() > 5 {
		t.Fatalf("PBFT analysis too slow: %v", pa.Total)
	}
	_ = pa.Render()
}

func TestMACImpactShape(t *testing.T) {
	mi := RunMACImpact(2000)
	// Goodput must fall monotonically as the attack intensifies (rates are
	// ordered none, 1/100, 1/20, 1/10, 1/5, 1/2).
	for i := 1; i < len(mi.Goodput); i++ {
		if mi.Goodput[i] > mi.Goodput[i-1] {
			t.Fatalf("goodput not decreasing: %v", mi.Goodput)
		}
	}
	if mi.Recoveries[0] != 0 {
		t.Fatalf("baseline triggered recoveries: %d", mi.Recoveries[0])
	}
	if mi.Goodput[len(mi.Goodput)-1] > mi.Goodput[0]/2 {
		t.Fatalf("heavy attack did not halve goodput: %v", mi.Goodput)
	}
	_ = mi.Render()
}

func TestWildcardSummary(t *testing.T) {
	w, err := RunWildcard()
	if err != nil {
		t.Fatal(err)
	}
	if w.LengthClasses != fsp.KnownTrojanClasses() {
		t.Fatalf("length classes = %d", w.LengthClasses)
	}
	if w.WildcardClasses != 32 {
		t.Fatalf("wildcard classes = %d, want 32", w.WildcardClasses)
	}
	_ = w.Render()
}

func TestIncrementalCampaign(t *testing.T) {
	// Cheap targets keep the two-run study affordable; the whole-catalog
	// numbers live in EXPERIMENTS.md (benchtab -exp incremental).
	ic, err := RunIncrementalCampaign([]string{"kv", "kv-fixed", "paxos"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ic.TotalJobs != 3 {
		t.Fatalf("want 3 jobs, got %d", ic.TotalJobs)
	}
	if ic.CachedJobs != ic.TotalJobs {
		t.Fatalf("unchanged fleet reused %d/%d jobs", ic.CachedJobs, ic.TotalJobs)
	}
	// RunIncrementalCampaign itself fails on any bundle divergence, so the
	// rows here are guaranteed comparable; the incremental run must not cost
	// more than the cold one (it only computes fingerprints). Wall clocks
	// are noisy in CI, so assert ordering rather than the <20% headline
	// ratio, which EXPERIMENTS.md records from a quiet machine.
	if ic.IncrementalWall > ic.ColdWall {
		t.Errorf("incremental wall %v exceeds cold wall %v", ic.IncrementalWall, ic.ColdWall)
	}
	if !strings.Contains(ic.Render(), "incremental (-baseline)") {
		t.Fatalf("render missing incremental row:\n%s", ic.Render())
	}
}

func TestCampaignScaling(t *testing.T) {
	// Two budgets keep the test affordable while still exercising the
	// identical-bundle cross-check between levels.
	c, err := RunCampaignScaling([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(c.Rows))
	}
	if c.Targets == 0 {
		t.Fatal("campaign audited no targets")
	}
	if c.Rows[0].Classes != c.Rows[1].Classes {
		t.Fatalf("class totals differ across budgets: %d vs %d", c.Rows[0].Classes, c.Rows[1].Classes)
	}
	if !strings.Contains(c.Render(), "identical bundle") {
		t.Fatalf("render missing determinism banner:\n%s", c.Render())
	}
}

func TestRecallShape(t *testing.T) {
	// Two mutants per target keep the test affordable; the full-catalog
	// numbers live in EXPERIMENTS.md.
	r, err := RunRecall(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Targets) != 3 {
		t.Fatalf("want 3 targets (fsp, kv, raft), got %d", len(r.Targets))
	}
	for _, tr := range r.Targets {
		if tr.Tally.Generated != 2 {
			t.Errorf("%s generated %d mutants, want 2", tr.Target, tr.Tally.Generated)
		}
		if !tr.SeededTrojans || !tr.SeededDetected {
			t.Errorf("%s: seeded ground truth not detected", tr.Target)
		}
		if tr.Precision == nil || tr.Precision.Score != 1 {
			t.Errorf("%s: precision on ground truth not 1.00: %+v", tr.Target, tr.Precision)
		}
	}
	if fn := r.FalseNegatives(); len(fn) != 0 {
		t.Errorf("false negatives: %v", fn)
	}
	if !strings.Contains(r.Render(), "mutation recall") {
		t.Fatalf("render missing header:\n%s", r.Render())
	}
}
