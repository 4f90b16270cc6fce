package solver_test

// Invalidation coverage for what a solver proves. Verdict-cache keys are
// intern-entry IDs of one solver's intern table, so no verdict outlives its
// solver and every new process starts cold. The one store of solver results that
// does outlive a process is the campaign baseline, and solver.Version gates
// it through every job's input fingerprint: a baseline audited under any
// other revision is re-run, never reused.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/expr"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

// fingerprint hashes an input signature the way
// registry.Descriptor.InputFingerprint does.
func fingerprint(sig string, extra ...string) string {
	h := sha256.New()
	h.Write([]byte(sig))
	for _, e := range extra {
		h.Write([]byte{0})
		h.Write([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// restamped returns base as an audit under another revision would have
// written it: every job keeps its inputs, but its fingerprint is recomputed
// with the signature's solver line stamped solverRev and the campaign salt
// set to layout. Every job's report stream is emptied, so a run that reused
// the stale baseline would come back with its Trojan classes lost.
func restamped(t *testing.T, base *campaign.Bundle, layout, solverRev string) *campaign.Bundle {
	t.Helper()
	out := &campaign.Bundle{Manifest: base.Manifest, Reports: map[string][]campaign.Report{}}
	out.Manifest.Runs = make([]campaign.RunManifest, len(base.Manifest.Runs))
	live := "solver " + solver.Version + "\n"
	for i, rm := range base.Manifest.Runs {
		d, ok := registry.Lookup(rm.Target)
		if !ok {
			t.Fatalf("target %s is not registered", rm.Target)
		}
		mode, err := core.ParseMode(rm.Mode)
		if err != nil {
			t.Fatal(err)
		}
		sig := d.InputSignature(mode)
		if !strings.Contains(sig, live) {
			t.Fatalf("the input signature of %s carries no %q line", rm.Key(), live)
		}
		if got := fingerprint(sig, campaign.Version); got != rm.InputFingerprint {
			t.Fatalf("%s: recomputed fingerprint %s, the campaign recorded %s", rm.Key(), got, rm.InputFingerprint)
		}
		rm.InputFingerprint = fingerprint(strings.Replace(sig, live, "solver "+solverRev+"\n", 1), layout)
		rm.Classes = 0
		out.Manifest.Runs[i] = rm
		out.Reports[rm.Key()] = []campaign.Report{}
	}
	return out
}

func contentHash(t *testing.T, b *campaign.Bundle) string {
	t.Helper()
	h, err := b.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCacheRefusedAcrossVersionBumps: a baseline audited under any other
// solver revision (previous, ancient, future or unstamped) or campaign
// layout is refused job by job: nothing is reused and the audit matches a
// cold one. The unchanged stamp is the control: every job is reused, and
// the emptied reports show through, so the refusals are the stamps' doing.
func TestCacheRefusedAcrossVersionBumps(t *testing.T) {
	opts := func(baseline *campaign.Bundle) campaign.Options {
		return campaign.Options{Targets: []string{"kv", "kv-fixed", "paxos"}, Jobs: 2, Baseline: baseline}
	}
	base, err := campaign.Run(opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := contentHash(t, base)

	control, err := campaign.Run(opts(restamped(t, base, campaign.Version, solver.Version)))
	if err != nil {
		t.Fatal(err)
	}
	if control.Manifest.CachedJobs != len(control.Manifest.Runs) {
		t.Fatalf("an unchanged stamp reused %d of %d jobs", control.Manifest.CachedJobs, len(control.Manifest.Runs))
	}
	if contentHash(t, control) == want {
		t.Fatal("reusing the emptied baseline left the audit unchanged; the tripwire is dead")
	}

	cases := []struct {
		name   string
		layout string
		solver string
	}{
		{"previous solver revision", campaign.Version, "solver/1"},
		{"ancient solver revision", campaign.Version, "solver/0"},
		{"future solver revision", campaign.Version, solver.Version + "-next"},
		{"future layout", campaign.Version + "-next", solver.Version},
		{"both bumped", campaign.Version + "-next", "solver/1"},
		{"empty version stamp", campaign.Version, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := campaign.Run(opts(restamped(t, base, tc.layout, tc.solver)))
			if err != nil {
				t.Fatal(err)
			}
			if got.Manifest.CachedJobs != 0 {
				t.Fatalf("reused %d job(s) from a baseline stamped %q/%q", got.Manifest.CachedJobs, tc.layout, tc.solver)
			}
			if h := contentHash(t, got); h != want {
				t.Fatalf("stale baseline leaked into the audit: %s, cold audit %s", h, want)
			}
		})
	}
}

// TestRefutedVerdictRoundTrip: an Unsat verdict the budget-free refutation
// layer proved, with no search, round-trips through the verdict cache like
// any other verdict. The same query rebuilt from fresh trees is a cache hit,
// and the cache holds nothing but the queries asked: every key decodes back
// to one of them.
func TestRefutedVerdictRoundTrip(t *testing.T) {
	x, y, c := expr.Var("x"), expr.Var("y"), expr.Const
	contra := func(v *expr.Expr) []*expr.Expr { return []*expr.Expr{expr.Gt(v, c(0)), expr.Lt(v, c(-5))} }
	refuted := func() []*expr.Expr {
		return []*expr.Expr{expr.Or(expr.AndAll(contra(expr.Var("x"))), expr.AndAll(contra(expr.Var("y"))))}
	}

	s := solver.Default()
	asked := map[string]bool{}
	for _, q := range [][]*expr.Expr{contra(x), contra(y)} {
		if res, _ := s.Check(q); res != solver.Unsat {
			t.Fatalf("contradictory conjunction not refuted: %v", res)
		}
		asked[solver.QueryKey(q)] = true
	}

	// Both DNF branches of this query are refuted conjunctions, so its Unsat
	// verdict is proved without a single decision.
	q := refuted()
	asked[solver.QueryKey(q)] = true
	before := s.Stats()
	if res, _ := s.Check(q); res != solver.Unsat {
		t.Fatal("disjunction of refuted conjunctions not unsat")
	}
	mid := s.Stats()
	if mid.Decisions != before.Decisions {
		t.Fatalf("verdict was not proved by the refutation layer alone: before %+v after %+v", before, mid)
	}

	if res, _ := s.Check(refuted()); res != solver.Unsat {
		t.Fatalf("round-tripped refuted verdict lost: %v", res)
	}
	if after := s.Stats(); after.CacheHits != mid.CacheHits+1 || after.Decisions != mid.Decisions {
		t.Fatalf("the rebuilt query was not answered from the cache: before %+v after %+v", mid, after)
	}

	entries, err := solver.CachedQueries(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(asked) {
		t.Fatalf("%d cache entries for %d distinct queries", len(entries), len(asked))
	}
	for _, e := range entries {
		if !asked[solver.QueryKey(e.Constraints)] {
			t.Fatalf("cache key decodes to %v, which was never asked", e.Constraints)
		}
		if e.Res != solver.Unsat {
			t.Fatalf("cached %v for %v, want Unsat", e.Res, e.Constraints)
		}
	}
}

// TestVersionBumpColdStartMatchesWarm: nothing a solver proves outlives it,
// so a new process, and with it every solver after a solver.Version bump,
// starts cold. The cold solver must reproduce exactly the verdicts a warm
// one proved, without a single cache hit. The golden corpus relies on this
// when solver.Version is bumped.
func TestVersionBumpColdStartMatchesWarm(t *testing.T) {
	c := expr.Const
	queries := func() [][]*expr.Expr {
		var qs [][]*expr.Expr
		for i := int64(0); i < 4; i++ {
			x := expr.Var(fmt.Sprintf("v%d", i))
			qs = append(qs,
				[]*expr.Expr{expr.Gt(x, c(i)), expr.Lt(x, c(i+10))}, // sat
				[]*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(-i-1))}, // unsat, refuted
			)
		}
		return qs
	}

	warm := solver.Default()
	qs := queries()
	warmRes := make([]solver.Result, len(qs))
	for i, q := range qs {
		warmRes[i], _ = warm.Check(q)
	}
	before := warm.Stats()
	for i, q := range queries() {
		if res, _ := warm.Check(q); res != warmRes[i] {
			t.Fatalf("query %d: warm replay gives %v, first answer %v", i, res, warmRes[i])
		}
	}
	if st := warm.Stats(); st.CacheHits != before.CacheHits+len(qs) {
		t.Fatalf("warm replay hit the cache %d times for %d queries", st.CacheHits-before.CacheHits, len(qs))
	}

	cold := solver.Default()
	for i, q := range queries() {
		if res, _ := cold.Check(q); res != warmRes[i] {
			t.Fatalf("query %d: cold start gives %v, warm gave %v", i, res, warmRes[i])
		}
	}
	if st := cold.Stats(); st.CacheHits != 0 {
		t.Errorf("a fresh solver reported cache hits: %+v", st)
	}
}
