package main

// The fsp-rich workload: one audit is one achilles.Start session on the rich
// FSP corpus (256 client paths) with a fresh solver, its events drained the
// way a library user consumes them, then Wait.

import (
	"context"
	"fmt"
	"time"

	"achilles"
	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/protocols/fsp"
	"achilles/internal/solver"
)

type sessionBackend struct{ e *env }

func setupRich(e *env) (backend, error) {
	b := &sessionBackend{e: e}
	return b, warmUp(e, b)
}

func (b *sessionBackend) audit(ctx context.Context, _ int, tr *auditTrace) outcome {
	t := time.Now()
	tgt := fsp.NewRichTarget(false)
	tr.record(0, "lang.compile", t, time.Now())

	sol := solver.Default()
	opts := []achilles.Option{achilles.WithParallelism(jobs), achilles.WithSolver(sol)}
	start := time.Now()
	root := tr.open(0, "audit")
	var ph *phaseRecorder
	if tr != nil {
		ph = newPhaseRecorder(tr, root, start)
		opts = append(opts, achilles.WithObserver(ph.observer()))
	}
	sess, err := achilles.Start(ctx, tgt, opts...)
	if err != nil {
		return outcome{failure: err.Error()}
	}
	var first time.Duration
	events := 0
	for ev := range sess.Events() {
		events++
		if ev.Kind == achilles.EventTrojan && first == 0 {
			first = time.Since(start)
		}
	}
	run, err := sess.Wait()
	o := outcome{dur: time.Since(start), firstTrojan: first}
	if ph != nil {
		ph.done()
	}
	tr.close(root)
	if err != nil {
		o.failure = "session: " + err.Error()
		return o
	}
	if o.failure = checkRun(b.e.goldens, run); o.failure != "" {
		return o
	}
	tr.set("session.events", float64(events))
	tr.set("session.dropped", float64(sess.Dropped()))
	countLayers(tr, []campaign.Counters{campaign.Counters(run.Counters())})
	solverLayers(tr.set, sol.Stats(), 1)
	return o
}

// checkRun gates a session result: complete, every report verified, the
// class set equal to fsp.golden (the rich corpus finds the same classes).
func checkRun(goldens map[string]string, run *core.RunResult) string {
	if run.Truncated() {
		return "fsp-rich: truncated"
	}
	for _, tr := range run.Analysis.Trojans {
		if !tr.VerifiedAccept || !tr.VerifiedNotClient {
			return fmt.Sprintf("fsp-rich: unverified report %s", tr.ClassID())
		}
	}
	return checkLines(goldens, "fsp-rich", "fsp", core.ClassLines(run))
}

func (b *sessionBackend) finish() (map[string]float64, error) { return nil, nil }
func (b *sessionBackend) close() error                        { return nil }

func (b *sessionBackend) units() []probeUnit {
	return []probeUnit{{name: "fsp-rich", target: func() core.Target { return fsp.NewRichTarget(false) }}}
}
