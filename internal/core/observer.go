package core

import "time"

// Analysis phases reported to observers, in pipeline order.
const (
	PhaseExtract    = "extract"    // phase 1: gathering PC from the clients
	PhasePreprocess = "preprocess" // predicate preprocessing (§3.3)
	PhaseServer     = "server"     // phase 2: server exploration + Trojan search
)

// Observer streams analysis events to the caller while a run is in flight.
// Any callback may be nil. Callbacks are invoked synchronously from analysis
// goroutines — OnTrojan possibly from several workers at once — so they must
// be safe for concurrent use and must not block: a slow consumer stalls the
// exploration itself. Callers that need buffering (e.g. a channel-based
// event stream) should do it on their side of the callback.
type Observer struct {
	// OnPhase fires when the pipeline enters a new phase (PhaseExtract,
	// PhasePreprocess, PhaseServer).
	OnPhase func(phase string)
	// OnTrojan fires for every Trojan report the moment it is confirmed,
	// during the exploration — not after it. Two fields are provisional:
	// Index is the discovery order at emission time, and ServerStateID is
	// the state's creation-order ID while the run is live; the final result
	// list renumbers both in canonical fork-tree order (see
	// Result.Trojans). Everything else — witness, concrete example, state
	// world, verification flags — is final.
	OnTrojan func(TrojanReport)
	// OnProgress fires periodically (see AnalysisOptions.ProgressInterval)
	// during the server phase, and once more when the phase completes.
	OnProgress func(Progress)
}

// phase invokes OnPhase if set.
func (o Observer) phase(name string) {
	if o.OnPhase != nil {
		o.OnPhase(name)
	}
}

// trojan invokes OnTrojan if set.
func (o Observer) trojan(tr TrojanReport) {
	if o.OnTrojan != nil {
		o.OnTrojan(tr)
	}
}

// Progress is a periodic snapshot of a running server analysis.
type Progress struct {
	// Phase is the pipeline phase the snapshot describes (PhaseServer for
	// periodic ticks).
	Phase string
	// Elapsed is the time since the server analysis started.
	Elapsed time.Duration
	// StatesExplored counts branch constraints processed so far — the live
	// proxy for exploration volume (terminal-state counts are only merged
	// when the run ends).
	StatesExplored int
	// FrontierDepth is the deepest branch decision seen so far.
	FrontierDepth int
	// Trojans is the number of Trojan reports confirmed so far.
	Trojans int
	// SolverQueries and CacheHitRate snapshot the run's solver scope:
	// the queries this run has issued so far, client extraction and
	// preprocessing included, and the fraction answered from the verdict
	// cache. Runs that share a solver share its cache, so the hit rate
	// depends on what they asked first; the query count does not.
	SolverQueries int
	CacheHitRate  float64
}
