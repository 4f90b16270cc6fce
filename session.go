package achilles

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"achilles/internal/core"
	"achilles/internal/solver"
)

// Observer streams analysis events to the caller while a Session runs; see
// core.Observer for the callback contract (concurrent, non-blocking).
type Observer = core.Observer

// Progress is a periodic snapshot of a running analysis.
type Progress = core.Progress

// Analysis phases reported by observers and phase events.
const (
	PhaseExtract    = core.PhaseExtract
	PhasePreprocess = core.PhasePreprocess
	PhaseServer     = core.PhaseServer
)

// EventKind discriminates Session events.
type EventKind uint8

// Session event kinds.
const (
	// EventPhase marks a pipeline phase transition; Event.Phase names it.
	EventPhase EventKind = iota
	// EventTrojan carries a Trojan report the moment it is confirmed;
	// Event.Trojan is set. The report's Index is the discovery order — the
	// final result list is re-indexed in canonical fork-tree order.
	EventTrojan
	// EventProgress carries a periodic progress snapshot; Event.Progress is
	// set.
	EventProgress
)

// Event is one entry of a Session's event stream.
type Event struct {
	Kind     EventKind
	Phase    string        // EventPhase
	Trojan   *TrojanReport // EventTrojan
	Progress *Progress     // EventProgress
}

// eventBuffer is the Events channel capacity. Events are dropped (counted in
// Session.Dropped) rather than ever blocking the analysis when a consumer
// falls this far behind; Wait's result is always complete regardless. A
// variable only so tests can shrink it (see export_test.go) and force the
// overflow path deterministically.
var eventBuffer = 4096

// config collects what the functional options build up.
type config struct {
	aopts     core.AnalysisOptions
	maxStates int
	cachePath string
	observers []Observer
}

// Option configures a Session (functional options for Start).
type Option func(*config)

// WithAnalysisOptions seeds the full AnalysisOptions struct — the bridge
// from the registry's per-target defaults. It replaces
// everything set so far, so pass it first and layer the other options on
// top. (An Observer carried in the struct composes with WithObserver ones;
// FirstTrojan and ProgressInterval are kept as given unless overridden.)
func WithAnalysisOptions(opts AnalysisOptions) Option {
	return func(c *config) { c.aopts = opts }
}

// WithParallelism sets the number of analysis workers (the -j knob) across
// client extraction, preprocessing and the server exploration.
func WithParallelism(n int) Option {
	return func(c *config) { c.aopts.Parallelism = n }
}

// WithMode selects the analysis mode (ModeOptimized, ModeNoDifferentFrom,
// ModeAPosteriori).
func WithMode(m Mode) Option {
	return func(c *config) { c.aopts.Mode = m }
}

// WithMaxStates bounds the number of states either engine explores (the
// runaway backstop): it overrides the MaxStates budget of both the server
// and the client explorations. A run that hits it is marked Truncated.
func WithMaxStates(n int) Option {
	return func(c *config) { c.maxStates = n }
}

// WithSolver shares a prepared solver (and its verdict cache) with the
// session — e.g. one kept warm across many sessions of a long-lived server.
func WithSolver(s *solver.Solver) Option {
	return func(c *config) { c.aopts.Solver = s }
}

// WithSolverCache persists the solver's formula→verdict cache at path: the
// session loads it before the run (a missing, version-mismatched or corrupt
// file means a cold start, never an error) and saves it when the run ends —
// including cancelled runs, whose completed verdicts are still valid. Loaded
// verdicts are re-verified on first use (see solver.LoadCache).
func WithSolverCache(path string) Option {
	return func(c *config) { c.cachePath = path }
}

// WithObserver attaches callback-style observation to the session, in
// addition to (and independent of) the Events channel. May be given several
// times; all observers fire.
func WithObserver(obs Observer) Option {
	return func(c *config) { c.observers = append(c.observers, obs) }
}

// WithFirstTrojan stops the entire fan-out at the first confirmed Trojan
// class: a real speedup on deep targets when one witness is enough (see
// EXPERIMENTS.md, "First-trojan early exit"). The result carries at least
// one report and is marked Truncated; Wait returns a nil error.
func WithFirstTrojan() Option {
	return func(c *config) { c.aopts.FirstTrojan = true }
}

// WithProgressInterval paces progress events and OnProgress callbacks;
// zero keeps the default (200ms).
func WithProgressInterval(d time.Duration) Option {
	return func(c *config) { c.aopts.ProgressInterval = d }
}

// Session is one in-flight analysis started by Start. It is safe for
// concurrent use: any goroutine may consume Events while another Waits.
type Session struct {
	cancel  context.CancelFunc
	events  chan Event
	dropped atomic.Int64

	done     chan struct{}
	res      *RunResult
	err      error
	cacheErr error
}

// Start launches both Achilles phases on a target as a cancellable,
// streaming session and returns immediately. The analysis runs until it
// completes, ctx is cancelled (or its deadline passes), or a WithFirstTrojan
// early exit fires; consume Events for live discoveries and progress, and
// call Wait for the result.
//
//	sess, err := achilles.Start(ctx, target,
//		achilles.WithParallelism(runtime.NumCPU()),
//		achilles.WithFirstTrojan())
//	...
//	for ev := range sess.Events() {
//		if ev.Kind == achilles.EventTrojan { fmt.Println(ev.Trojan) }
//	}
//	run, err := sess.Wait()
//
// Cancellation contract: Wait returns the context error (context.Canceled /
// context.DeadlineExceeded). When the cancellation struck the server phase,
// the partial RunResult is returned alongside the error with Truncated()
// reporting true; earlier cancellations have no usable partial result and
// return a nil RunResult.
func Start(ctx context.Context, t Target, opts ...Option) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.Server == nil {
		return nil, errors.New("achilles: target has no server model")
	}
	if len(t.Clients) == 0 {
		return nil, errors.New("achilles: target has no client models")
	}
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxStates > 0 {
		t.ServerExec.MaxStates = cfg.maxStates
		t.ClientExec.MaxStates = cfg.maxStates
	}
	if cfg.aopts.Solver == nil {
		cfg.aopts.Solver = solver.Default()
	}
	sol := cfg.aopts.Solver
	if cfg.cachePath != "" {
		// Best effort: a missing cache file is the normal first run, and a
		// stale or corrupt one means a cold start (it is replaced on save).
		// No load outcome may fail Start — the cache is an accelerator, not
		// an input.
		_, _ = sol.LoadCache(cfg.cachePath)
	}

	runCtx, cancel := context.WithCancel(ctx)
	s := &Session{
		cancel: cancel,
		events: make(chan Event, eventBuffer),
		done:   make(chan struct{}),
	}

	// The session observer fans out to the event stream and every user
	// observer (WithObserver plus one carried in WithAnalysisOptions).
	userObs := append([]Observer{}, cfg.observers...)
	if o := cfg.aopts.Observer; o.OnPhase != nil || o.OnTrojan != nil || o.OnProgress != nil {
		userObs = append(userObs, o)
	}
	cfg.aopts.Observer = Observer{
		OnPhase: func(phase string) {
			s.push(Event{Kind: EventPhase, Phase: phase})
			for _, o := range userObs {
				if o.OnPhase != nil {
					o.OnPhase(phase)
				}
			}
		},
		OnTrojan: func(tr TrojanReport) {
			s.push(Event{Kind: EventTrojan, Trojan: &tr})
			for _, o := range userObs {
				if o.OnTrojan != nil {
					o.OnTrojan(tr)
				}
			}
		},
		OnProgress: func(p Progress) {
			s.push(Event{Kind: EventProgress, Progress: &p})
			for _, o := range userObs {
				if o.OnProgress != nil {
					o.OnProgress(p)
				}
			}
		},
	}

	go func() {
		defer cancel()
		res, err := core.RunCtx(runCtx, t, cfg.aopts)
		if cfg.cachePath != "" {
			// Persist even after cancellation: completed verdicts are valid
			// and make the retry warm.
			s.cacheErr = sol.SaveCache(cfg.cachePath)
		}
		s.res, s.err = res, err
		// Every observer callback fires synchronously inside RunCtx, so no
		// push can race the close.
		close(s.events)
		close(s.done)
	}()
	return s, nil
}

// push delivers an event without ever blocking the analysis: when the
// consumer has fallen eventBuffer events behind, the event is dropped and
// counted instead.
func (s *Session) push(ev Event) {
	select {
	case s.events <- ev:
	default:
		s.dropped.Add(1)
	}
}

// Events returns the session's event stream: phase transitions, Trojan
// classes as they are confirmed, and periodic progress. The channel closes
// when the session ends. Consuming it is optional — a session whose events
// are never read completes normally. The stream never blocks the analysis:
// a consumer more than eventBuffer events behind loses the overflow (see
// Dropped); the result returned by Wait is always complete.
func (s *Session) Events() <-chan Event { return s.events }

// Dropped reports how many events were discarded because the consumer fell
// behind the event buffer.
func (s *Session) Dropped() int64 { return s.dropped.Load() }

// Cancel aborts the session's analysis (idempotent). Wait then returns the
// cancellation error and — when the server phase had started — the partial,
// Truncated-marked result.
func (s *Session) Cancel() { s.cancel() }

// Wait blocks until the analysis ends and returns its outcome. On
// cancellation or deadline the error is the context error and the result is
// the partial one (nil if the cancellation struck before the server phase).
// When WithSolverCache was set and the run itself succeeded, a cache-save
// failure is reported here.
func (s *Session) Wait() (*RunResult, error) {
	<-s.done
	if s.err == nil && s.cacheErr != nil {
		return s.res, s.cacheErr
	}
	return s.res, s.err
}

// Done returns a channel closed when the session ends — select-friendly
// alongside other work; call Wait afterwards for the outcome.
func (s *Session) Done() <-chan struct{} { return s.done }
