package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// This file defines the stable, machine-readable identity of analysis
// results: canonical class lines (the golden-corpus format), content
// fingerprints for diffing persisted audit bundles, and the flat counter
// view consumed by campaign manifests.

// stateSuffix renders the §3.4 state world of a report as a canonical
// " state{k=v ...}" suffix (empty for concrete-state targets).
func (r TrojanReport) stateSuffix() string {
	if len(r.StateEnv) == 0 {
		return ""
	}
	keys := make([]string, 0, len(r.StateEnv))
	for k := range r.StateEnv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, r.StateEnv[k])
	}
	return " state{" + strings.Join(parts, " ") + "}"
}

// Identity is a report's class identity. Every string derives from one
// rendering of the witness formula.
type Identity struct {
	// Witness is the rendering of the symbolic witness formula.
	Witness string
	// ClassID is the symbolic identity of the Trojan class: the witness
	// plus the state world it lives in. Two reports with the same ClassID
	// describe the same vulnerability class even if the solver picked a
	// different concrete example or a verification verdict flipped.
	ClassID string
	// ClassLine is the canonical one-line rendering of the class: the
	// witness, the concrete example, the state world and the combined
	// verification verdict. Elapsed times, state IDs and report indices
	// are deliberately excluded — they are timing- or scheduling-derived.
	// This is the exact format of the golden corpus files and of the class
	// lines stored in audit bundles, so the two can be compared byte for
	// byte.
	ClassLine string
	// Fingerprint is a stable content hash of ClassLine, suitable as a
	// compact key for bundle diffing: it changes exactly when the class
	// line changes (witness, example, state world or verification verdict).
	Fingerprint string
}

// Identity renders the witness once and derives the report's ClassID,
// ClassLine and Fingerprint from it.
func (r TrojanReport) Identity() Identity {
	witness, state := r.Witness.String(), r.stateSuffix()
	line := fmt.Sprintf("%s @ %v%s verified=%v",
		witness, r.Concrete, state, r.VerifiedAccept && r.VerifiedNotClient)
	sum := sha256.Sum256([]byte(line))
	return Identity{
		Witness:     witness,
		ClassID:     witness + state,
		ClassLine:   line,
		Fingerprint: hex.EncodeToString(sum[:8]),
	}
}

// ClassID is Identity().ClassID.
func (r TrojanReport) ClassID() string { return r.Identity().ClassID }

// ClassLine is Identity().ClassLine.
func (r TrojanReport) ClassLine() string { return r.Identity().ClassLine }

// Fingerprint is Identity().Fingerprint.
func (r TrojanReport) Fingerprint() string { return r.Identity().Fingerprint }

// ClassLines renders the run's full Trojan class set as sorted canonical
// lines — the golden-corpus representation of a run.
func ClassLines(run *RunResult) []string {
	lines := make([]string, 0, len(run.Analysis.Trojans))
	for _, tr := range run.Analysis.Trojans {
		lines = append(lines, tr.ClassLine())
	}
	sort.Strings(lines)
	return lines
}

// Counters is a flat, stable-keyed view of the integer counters a run
// produces. The map form (rather than a struct) keeps persisted manifests
// forward-compatible: consumers diff and render whatever keys are present.
type Counters map[string]int64

// Counters flattens the analysis result's counters, the engine statistics
// and a snapshot of the solver statistics. Note that when a solver is shared
// across runs (as in a campaign) the solver_* values are cumulative across
// everything the solver has seen, not per-run.
func (r *Result) Counters() Counters {
	c := Counters{
		"accepting_states":    int64(r.AcceptingStates),
		"pruned_states":       int64(r.PrunedStates),
		"filtered_reports":    int64(r.FilteredReports),
		"bulk_drops":          int64(r.BulkDrops),
		"bindkey_hits":        int64(r.BindKeyHits),
		"witness_hits":        int64(r.WitnessHits),
		"trojan_classes":      int64(len(r.Trojans)),
		"engine_states":       int64(r.EngineStats.States),
		"engine_forks":        int64(r.EngineStats.Forks),
		"engine_steps":        int64(r.EngineStats.Steps),
		"engine_solver_calls": int64(r.EngineStats.SolverCalls),
		"engine_witnessed":    int64(r.EngineStats.Witnessed),
		"engine_truncated":    boolCounter(r.EngineStats.Truncated),
		"solver_queries":      int64(r.SolverStats.Queries),
		"solver_cache_hits":   int64(r.SolverStats.CacheHits),
		"solver_cache_misses": int64(r.SolverStats.CacheMisses),
		"solver_unknowns":     int64(r.SolverStats.Unknowns),
	}
	return c
}

// boolCounter renders a flag into the flat counter map (0 or 1).
func boolCounter(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Counters flattens the counters of a full two-phase run: the analysis
// counters plus the client-predicate shape and preprocessing work.
func (r *RunResult) Counters() Counters {
	c := r.Analysis.Counters()
	c["truncated"] = boolCounter(r.Truncated())
	c["client_paths"] = int64(len(r.Clients.Paths))
	ps := r.Clients.PreprocessStats
	c["preprocess_raw_paths"] = int64(ps.RawPaths)
	c["preprocess_deduped_paths"] = int64(ps.DedupedPaths)
	c["preprocess_disjuncts"] = int64(ps.Disjuncts)
	c["preprocess_overlap_dropped"] = int64(ps.OverlapDropped)
	return c
}

// ParseMode resolves a mode name from the command line or a manifest.
// It accepts the canonical Mode.String() spellings plus the all-lowercase
// CLI forms; the empty string selects ModeOptimized.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "optimized", "":
		return ModeOptimized, nil
	case "no-differentfrom", "no-differentFrom":
		return ModeNoDifferentFrom, nil
	case "a-posteriori":
		return ModeAPosteriori, nil
	}
	return 0, fmt.Errorf("unknown mode %q (valid: optimized, no-differentfrom, a-posteriori)", name)
}
