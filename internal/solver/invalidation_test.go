package solver

// Cache-invalidation coverage for the fast path (issue 7, satellite S4).
// The split-gate feasible memo and the intern arena are keyed by per-solver,
// scheduling-dependent IDs, so they must never travel across a
// solver.Version bump: only verdicts are persisted, an old-version file is
// refused wholesale, and a refused load leaves the live solver's fast-path
// state untouched. persist_test.go covers corruption and poisoning; this
// file pins the version boundary specifically.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"achilles/internal/expr"
)

// staleVersionFile writes a syntactically perfect cache file — valid header,
// valid entry for the query (x > 0 ∧ x < 10) claiming the WRONG verdict —
// stamped with the given layout/solver revision. If version gating ever
// breaks, the stale Unsat verdict is the tripwire.
func staleVersionFile(t *testing.T, format int, solverVersion string) (string, []*expr.Expr) {
	t.Helper()
	x := v("x")
	query := []*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(10))}
	hdr, _ := json.Marshal(cacheHeader{Format: format, Solver: solverVersion})
	ent, _ := json.Marshal(CacheEntry{Key: queryKey(query), Res: int(Unsat)})
	path := filepath.Join(t.TempDir(), "stale.jsonl")
	if err := os.WriteFile(path, []byte(string(hdr)+"\n"+string(ent)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, query
}

// TestCacheRefusedAcrossVersionBumps: every historical or foreign revision
// is refused with ErrCacheVersion, zero entries merge, and the refused load
// leaves the solver's fast-path state (arena, feasible memo) pristine — a
// version bump can never smuggle state from the previous decision procedure.
func TestCacheRefusedAcrossVersionBumps(t *testing.T) {
	cases := []struct {
		name    string
		format  int
		version string
	}{
		{"previous solver revision", CacheFileVersion, "solver/1"},
		{"ancient solver revision", CacheFileVersion, "solver/0"},
		{"future solver revision", CacheFileVersion, Version + "-next"},
		{"future layout", CacheFileVersion + 1, Version},
		{"both bumped", CacheFileVersion + 1, "solver/1"},
		{"empty version stamp", CacheFileVersion, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, query := staleVersionFile(t, tc.format, tc.version)
			s := Default()
			n, err := s.LoadCache(path)
			if !errors.Is(err, ErrCacheVersion) {
				t.Fatalf("want ErrCacheVersion, got %v", err)
			}
			if n != 0 {
				t.Fatalf("merged %d entries from a refused file", n)
			}
			// No leakage: the refused load must not have interned the stale
			// query's terms.
			if st := s.Stats(); st.Interned != 0 || st.CacheHits != 0 {
				t.Fatalf("refused load left fast-path state behind: %+v", st)
			}
			// The stale Unsat verdict must not be served.
			if res, m := s.Check(query); res != Sat || m["x"] <= 0 || m["x"] >= 10 {
				t.Fatalf("stale verdict leaked across the version bump: res=%v model=%v", res, m)
			}
		})
	}
}

// TestRefutedVerdictRoundTrip: an Unsat verdict the budget-free refutation
// layer proved, with no search, round-trips through SaveCache/LoadCache like
// any other verdict — and ONLY the verdict travels: the file carries no
// interned IDs or other per-solver state.
func TestRefutedVerdictRoundTrip(t *testing.T) {
	warm := Default()
	x, y := v("x"), v("y")
	contraX := expr.And(expr.Gt(x, c(0)), expr.Lt(x, c(-5)))
	contraY := expr.And(expr.Gt(y, c(0)), expr.Lt(y, c(-5)))

	for _, q := range [][]*expr.Expr{
		{expr.Gt(x, c(0)), expr.Lt(x, c(-5))},
		{expr.Gt(y, c(0)), expr.Lt(y, c(-5))},
	} {
		if res, _ := warm.Check(q); res != Unsat {
			t.Fatalf("contradictory conjunction not refuted: %v", res)
		}
	}

	// Both DNF branches of this query are refuted conjunctions, so its Unsat
	// verdict is proved without a single decision — the verdict we persist.
	refutedQuery := []*expr.Expr{expr.Or(contraX, contraY)}
	before := warm.Stats()
	if res, _ := warm.Check(refutedQuery); res != Unsat {
		t.Fatal("disjunction of refuted conjunctions not unsat")
	}
	if after := warm.Stats(); after.Decisions != before.Decisions {
		t.Fatalf("verdict was not proved by the refutation layer alone: before %+v after %+v", before, after)
	}

	path := filepath.Join(t.TempDir(), "cache.jsonl")
	if err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	// The file carries verdicts only: no interned-ID material may appear in
	// any entry (IDs are per-solver and would be garbage in the next
	// process).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n")[1:] {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		for k := range fields {
			if k != "k" && k != "r" && k != "m" {
				t.Fatalf("entry %d persists field %q beyond key/result/model", i, k)
			}
		}
	}

	cold := Default()
	loaded, err := cold.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 3 {
		t.Fatalf("loaded %d entries, want 3", loaded)
	}
	res, _ := cold.Check(refutedQuery)
	if res != Unsat {
		t.Fatalf("round-tripped refuted verdict lost: %v", res)
	}
	// The replay is either a cache hit or the sampled first-use re-solve of a
	// loaded Unsat verdict — both must agree with the warm solver: the cold
	// solver trusts the persisted verdict set, never the warm solver's
	// private indexes.
	st := cold.Stats()
	if st.CacheHits == 0 && st.Reverified == 0 {
		t.Fatalf("replay answered by neither the loaded cache nor its re-verification: %+v", st)
	}
	if st.ReverifyFailed != 0 {
		t.Fatalf("faithful round-trip failed re-verification: %+v", st)
	}
}

// TestVersionBumpColdStartMatchesWarm: the end-to-end invalidation story —
// a "new revision" solver that refuses an old cache file must reproduce
// exactly the verdicts the warm solver proved, from a cold start. This is
// the property the golden corpus relies on when solver.Version is bumped.
func TestVersionBumpColdStartMatchesWarm(t *testing.T) {
	warm := Default()
	queries := make([][]*expr.Expr, 0, 8)
	for i := 0; i < 4; i++ {
		x := v(fmt.Sprintf("v%d", i))
		queries = append(queries,
			[]*expr.Expr{expr.Gt(x, c(int64(i))), expr.Lt(x, c(int64(i)+10))}, // sat
			[]*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(int64(-i)-1))},        // unsat, refuted
		)
	}
	warmRes := make([]Result, len(queries))
	for i, q := range queries {
		warmRes[i], _ = warm.Check(q)
	}

	// Persist the warm cache, then stamp the file as the previous revision —
	// simulating a bump of solver.Version after the file was written.
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")
	if err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	hdr, _ := json.Marshal(cacheHeader{Format: CacheFileVersion, Solver: "solver/1"})
	stale := filepath.Join(dir, "stale.jsonl")
	if err := os.WriteFile(stale, []byte(string(hdr)+"\n"+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}

	cold := Default()
	if _, err := cold.LoadCache(stale); !errors.Is(err, ErrCacheVersion) {
		t.Fatalf("restamped file not refused: %v", err)
	}
	for i, q := range queries {
		if res, _ := cold.Check(q); res != warmRes[i] {
			t.Fatalf("query %d: cold start after refused load gives %v, warm gave %v", i, res, warmRes[i])
		}
	}
	if st := cold.Stats(); st.CacheHits != 0 {
		t.Errorf("cold solver reported cache hits after a refused load: %+v", st)
	}
}
