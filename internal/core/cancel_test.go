package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"achilles/internal/expr"
	"achilles/internal/lang"
	"achilles/internal/solver"
	"achilles/internal/testutil"
)

// deepTarget returns a target whose server phase explores 2^8 accepting
// paths, each yielding a Trojan class — wide enough that cancellation and
// first-trojan stops reliably strike mid-exploration.
func deepTarget(t *testing.T) Target {
	t.Helper()
	server := lang.MustCompile(`
var m [8]int;
var acc int;

func main() {
	recv(m);
	var i int = 0;
	acc = 0;
	while i < 8 {
		if m[i] > 0 { acc = acc + 1; }
		i = i + 1;
	}
	accept();
}`)
	client := lang.MustCompile(`
var m [8]int;

func main() {
	var i int = 0;
	while i < 8 {
		var x int = input();
		assume(x >= 0);
		assume(x < 4);
		m[i] = x;
		i = i + 1;
	}
	send(m);
}`)
	return Target{
		Name:    "deep",
		Server:  server,
		Clients: []ClientProgram{{Name: "c", Unit: client}},
	}
}

// classSet renders a run's Trojan classes as a set of canonical lines.
func classSet(run *RunResult) map[string]bool {
	out := map[string]bool{}
	for _, tr := range run.Analysis.Trojans {
		out[tr.ClassLine()] = true
	}
	return out
}

// TestRunCtxCancelMidFrontier cancels a -j 8 run from inside the server
// phase (the first confirmed Trojan, one of 256) and checks the
// partial-result contract:
// RunCtx returns the partial result together with context.Canceled, the
// result is marked Truncated, every reported class belongs to the full run's
// class set, indices are contiguous, and no goroutines leak.
func TestRunCtxCancelMidFrontier(t *testing.T) {
	tgt := deepTarget(t)
	full, err := Run(tgt, AnalysisOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated() {
		t.Fatal("full run unexpectedly truncated")
	}
	if len(full.Analysis.Trojans) == 0 {
		t.Fatal("deep target found no trojans — test needs a vulnerable target")
	}
	fullClasses := classSet(full)

	testutil.CheckGoroutineLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := AnalysisOptions{
		Parallelism: 8,
		Observer: Observer{
			// Cancel from inside the server phase, guaranteed mid-frontier:
			// the first report fires while the other accepting states are
			// still queued. (The first progress call can be the final
			// snapshot, emitted after the walk.)
			OnTrojan: func(TrojanReport) { once.Do(cancel) },
		},
	}
	partial, err := RunCtx(ctx, tgt, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("no partial result from a server-phase cancellation")
	}
	if !partial.Truncated() {
		t.Fatal("cancelled run not marked Truncated")
	}
	if !partial.Analysis.EngineStats.Cancelled {
		t.Fatalf("engine stats not marked Cancelled: %+v", partial.Analysis.EngineStats)
	}
	for i, tr := range partial.Analysis.Trojans {
		if tr.Index != i {
			t.Fatalf("partial indices not contiguous: report %d has Index %d", i, tr.Index)
		}
		if !fullClasses[tr.ClassLine()] {
			t.Fatalf("partial run reported class outside the full set: %s", tr.ClassLine())
		}
		if !tr.VerifiedNotClient {
			t.Fatalf("partial run kept an unverified report: %+v", tr)
		}
	}
}

// TestRunCtxCancelBeforeStart: a pre-cancelled context fails in phase 1 with
// (nil, ctx.Err()) — there is no usable partial predicate.
func TestRunCtxCancelBeforeStart(t *testing.T) {
	tgt := deepTarget(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := RunCtx(ctx, tgt, AnalysisOptions{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if run != nil {
		t.Fatalf("got a result from a pre-cancelled run: %+v", run)
	}
}

// TestFirstTrojanEarlyExit: FirstTrojan stops the fan-out after the first
// confirmed report — truncated, no error, and every report is from the full
// class set.
func TestFirstTrojanEarlyExit(t *testing.T) {
	tgt := deepTarget(t)
	full, err := Run(tgt, AnalysisOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	fullClasses := classSet(full)

	run, err := RunCtx(context.Background(), tgt, AnalysisOptions{Parallelism: 8, FirstTrojan: true})
	if err != nil {
		t.Fatalf("first-trojan run errored: %v", err)
	}
	if got := len(run.Analysis.Trojans); got == 0 {
		t.Fatal("first-trojan run found nothing")
	}
	if !run.Truncated() {
		t.Fatal("first-trojan run not marked Truncated")
	}
	if len(run.Analysis.Trojans) >= len(full.Analysis.Trojans) {
		t.Fatalf("first-trojan run explored everything: %d reports vs %d full",
			len(run.Analysis.Trojans), len(full.Analysis.Trojans))
	}
	for _, tr := range run.Analysis.Trojans {
		if !fullClasses[tr.ClassLine()] {
			t.Fatalf("first-trojan report outside the full class set: %s", tr.ClassLine())
		}
	}
}

// TestObserverStreaming: phases arrive in pipeline order, OnTrojan fires
// once per final report, and the final progress snapshot carries the
// completed counters.
func TestObserverStreaming(t *testing.T) {
	tgt := deepTarget(t)
	var mu sync.Mutex
	var phases []string
	var streamed []TrojanReport
	var lastProgress atomic.Pointer[Progress]
	opts := AnalysisOptions{
		Parallelism:      4,
		ProgressInterval: time.Millisecond,
		Observer: Observer{
			OnPhase: func(p string) { mu.Lock(); phases = append(phases, p); mu.Unlock() },
			OnTrojan: func(tr TrojanReport) {
				mu.Lock()
				streamed = append(streamed, tr)
				mu.Unlock()
			},
			OnProgress: func(p Progress) { lastProgress.Store(&p) },
		},
	}
	run, err := RunCtx(context.Background(), tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := []string{PhaseExtract, PhasePreprocess, PhaseServer}
	if len(phases) != len(wantPhases) {
		t.Fatalf("phases = %v, want %v", phases, wantPhases)
	}
	for i, p := range wantPhases {
		if phases[i] != p {
			t.Fatalf("phases = %v, want %v", phases, wantPhases)
		}
	}
	if len(streamed) != len(run.Analysis.Trojans) {
		t.Fatalf("streamed %d trojans, final result has %d", len(streamed), len(run.Analysis.Trojans))
	}
	finalClasses := classSet(run)
	for _, tr := range streamed {
		if !finalClasses[tr.ClassLine()] {
			t.Fatalf("streamed class missing from final result: %s", tr.ClassLine())
		}
	}
	p := lastProgress.Load()
	if p == nil {
		t.Fatal("no progress emitted")
	}
	if p.Trojans != len(run.Analysis.Trojans) {
		t.Fatalf("final progress counts %d trojans, result has %d", p.Trojans, len(run.Analysis.Trojans))
	}
	if p.StatesExplored == 0 || p.FrontierDepth == 0 {
		t.Fatalf("final progress has empty counters: %+v", *p)
	}
}

// TestPreprocessCancelled: a cancellation that lands before the per-path
// preprocessing leaves a half-built predicate rather than a panic. The
// differentFrom matrix stays TriUnknown, and the §4 guard has no member
// predicates to refute with, so every path would go to the solver.
func TestPreprocessCancelled(t *testing.T) {
	tgt := deepTarget(t)
	pc, err := ExtractClientPredicate(tgt.Clients, ExtractOptions{SkipPreprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pc.PreprocessParallelCtx(ctx, solver.Default(), 2)
	if got := pc.DifferentFrom(0, 0, 0); got != TriUnknown {
		t.Fatalf("differentFrom[0][0][0] = %v after a cancelled preprocess, want TriUnknown", got)
	}
	if pc.refutedAt(0, make([]int64, pc.NumFields), expr.Env{}) {
		t.Fatal("a cancelled preprocess left member predicates that refute a path")
	}
}
