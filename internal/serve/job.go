package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/protocols/registry"
)

// Request is the submission body of POST /v1/jobs: which targets to audit,
// in which modes, and the session knobs. Unknown fields are rejected — a
// misspelled option must fail loudly, not silently audit with defaults.
type Request struct {
	// Targets lists registry names to audit; at least one is required.
	Targets []string `json:"targets"`
	// Modes lists analysis modes per target; empty means optimized only.
	Modes []string `json:"modes,omitempty"`
	// Parallelism is the worker count the job asks for; it is clamped to
	// [1, the daemon's global -j budget] and the whole amount is leased from
	// that budget while the job runs, split across the job's units exactly
	// as achilles-audit run -j splits its budget.
	Parallelism int `json:"parallelism,omitempty"`
	// MaxStates optionally bounds either engine's exploration (the runaway
	// backstop); truncated units are flagged in the manifest.
	MaxStates int `json:"max_states,omitempty"`
	// FirstTrojan stops each unit at its first confirmed class — the
	// "vulnerable at all?" triage mode.
	FirstTrojan bool `json:"first_trojan,omitempty"`
}

// Job states reported by the status endpoint and the done event.
const (
	stateQueued    = "queued"    // waiting for worker-budget admission
	stateRunning   = "running"   // sessions in flight
	stateDone      = "done"      // all units ran (individual units may have failed)
	stateCancelled = "cancelled" // cancelled by the client or a daemon drain
	stateFailed    = "failed"    // the job itself failed (e.g. bundle store error)
)

// job is one submitted audit: a planned campaign of target×mode units, run
// as one campaign.RunCtx call under a single worker lease.
type job struct {
	id     string
	client string
	req    Request
	opts   campaign.Options // the planned campaign; Jobs is the granted parallelism

	ctx    context.Context
	cancel context.CancelFunc
	bcast  *broadcaster
	done   chan struct{} // closed by finishJob, after the last publish

	created time.Time

	mu      sync.Mutex
	state   string
	err     string
	started map[string]bool // units whose analysis began
	runs    []campaign.RunManifest
	classes int
	bundle  string // content hash once persisted
}

// UnitStatus is the wire shape of one target×mode unit in a job status.
type UnitStatus struct {
	Key       string `json:"key"`
	Classes   int    `json:"classes"`
	Truncated bool   `json:"truncated,omitempty"`
	WallMS    int64  `json:"wall_ms"`
	Error     string `json:"error,omitempty"`
}

// JobStatus is the wire shape of GET /v1/jobs/{id} and the done event.
type JobStatus struct {
	ID          string       `json:"id"`
	Client      string       `json:"client"`
	State       string       `json:"state"`
	Targets     []string     `json:"targets"`
	Modes       []string     `json:"modes"`
	Parallelism int          `json:"parallelism"`
	CreatedAt   string       `json:"created_at"`
	Units       []UnitStatus `json:"units,omitempty"`
	Classes     int          `json:"classes"`
	Bundle      string       `json:"bundle,omitempty"`
	Error       string       `json:"error,omitempty"`
	// EventsURL is the SSE endpoint for this job's event stream — see the
	// events endpoint contract for replay and slow-consumer semantics.
	EventsURL string `json:"events_url"`
}

// planJob validates a request against the daemon's catalog and turns it
// into the campaign options its job runs with. Every target resolves
// through the daemon's lookup and travels as a campaign-local descriptor
// carrying the request's budgets; campaign.Plan then canonicalises, sorts
// and deduplicates the units exactly as it does for achilles-audit run.
func (s *Server) planJob(req Request) (campaign.Options, error) {
	if len(req.Targets) == 0 {
		return campaign.Options{}, fmt.Errorf("request selects no target")
	}
	if req.MaxStates < 0 {
		return campaign.Options{}, fmt.Errorf("max_states %d is negative", req.MaxStates)
	}
	opts := campaign.Options{Jobs: min(max(req.Parallelism, 1), s.cfg.Workers), Solver: s.solver}
	for _, n := range req.Targets {
		d, ok := s.lookup(n)
		if !ok {
			return campaign.Options{}, fmt.Errorf("unknown target %q", n)
		}
		opts.Targets = append(opts.Targets, d.Name)
		opts.Extra = append(opts.Extra, withBudgets(d, req))
	}
	for _, name := range req.Modes {
		if name == "" {
			return campaign.Options{}, fmt.Errorf("empty mode name")
		}
		m, err := core.ParseMode(name)
		if err != nil {
			return campaign.Options{}, err
		}
		opts.Modes = append(opts.Modes, m)
	}
	return opts, nil
}

// withBudgets applies a request's exploration budgets to a descriptor:
// max_states caps both engines, as achilles.WithMaxStates does, and
// first_trojan stops each unit at its first confirmed class.
func withBudgets(d registry.Descriptor, req Request) registry.Descriptor {
	if n := req.MaxStates; n > 0 {
		target := d.Target
		d.Target = func() core.Target {
			t := target()
			t.ServerExec.MaxStates = n
			t.ClientExec.MaxStates = n
			return t
		}
	}
	if req.FirstTrojan {
		d.Analysis.FirstTrojan = true
	}
	return d
}

// observe is the job's campaign.Options.Observe hook: it marks the unit as
// started and streams its events to the job's subscribers.
func (j *job) observe(u campaign.Job) core.Observer {
	j.mu.Lock()
	j.started[u.Key()] = true
	j.mu.Unlock()
	return unitObserver(j, u.Key())
}

// runJob is the job goroutine: lease workers from the global budget, run
// the job's campaign, persist the bundle, publish the terminal state.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	defer s.releaseClient(j.client)

	// Admission: the whole lease is granted atomically and FIFO (see wsem),
	// so a queued job can never deadlock against another partial acquirer
	// and never starves behind a stream of small jobs. A job cancelled while
	// queued still makes the campaign call, under its cancelled context, so
	// the engine records every planned unit as interrupted and the artifact
	// stays complete.
	if err := s.sem.acquire(j.ctx, j.opts.Jobs); err == nil {
		defer s.sem.release(j.opts.Jobs)
		s.setJobState(j, stateRunning)
	}
	b, err := campaign.RunCtx(j.ctx, j.opts)
	s.finishJob(j, b, err)
}

// finishJob persists the campaign's bundle in the content-addressed store,
// records the terminal state and closes done. Every publish happens before
// done closes, so an SSE handler that sees done can drain its channel and
// know the stream is complete.
func (s *Server) finishJob(j *job, b *campaign.Bundle, runErr error) {
	state, jobErr, hash := stateDone, "", ""
	if runErr != nil {
		state = stateCancelled
	}
	if b == nil {
		// Only an invalid plan returns no bundle, and planJob refuses those.
		state, jobErr, b = stateFailed, runErr.Error(), &campaign.Bundle{}
	} else if h, err := s.store.Put(b); err != nil {
		state, jobErr = stateFailed, fmt.Sprintf("persist bundle: %v", err)
	} else {
		hash = h
		s.metrics.bundlesStored.Add(1)
	}

	j.mu.Lock()
	classes := 0
	for _, rm := range b.Manifest.Runs {
		classes += rm.Classes
		// Count units cut short after they started, not units that never ran.
		if strings.HasPrefix(rm.Error, "interrupted") && j.started[rm.Key()] {
			s.metrics.sessionsCancelled.Add(1)
		}
	}
	j.state, j.err, j.runs, j.classes, j.bundle = state, jobErr, b.Manifest.Runs, classes, hash
	j.mu.Unlock()

	switch state {
	case stateDone:
		s.metrics.jobsDone.Add(1)
	case stateCancelled:
		s.metrics.jobsCancelled.Add(1)
	case stateFailed:
		s.metrics.jobsFailed.Add(1)
	}
	// Retention runs before the done event goes out, so a client that saw a
	// job finish observes the post-eviction job table.
	s.evictTerminalJobs()
	j.bcast.publish(jsonEvent(eventState, stateEventPayload{ID: j.id, State: state}), true)
	close(j.done)
}

// setJobState records a non-terminal transition and publishes it.
func (s *Server) setJobState(j *job, state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
	j.bcast.publish(jsonEvent(eventState, stateEventPayload{ID: j.id, State: state}), true)
}

// jobStatus snapshots a job for the status endpoint and the done event.
func (s *Server) jobStatus(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := JobStatus{
		ID:          j.id,
		Client:      j.client,
		State:       j.state,
		Targets:     append([]string{}, j.req.Targets...),
		Modes:       append([]string{}, j.req.Modes...),
		Parallelism: j.opts.Jobs,
		CreatedAt:   j.created.UTC().Format(time.RFC3339),
		Classes:     j.classes,
		Bundle:      j.bundle,
		Error:       j.err,
		EventsURL:   "/v1/jobs/" + j.id + "/events",
	}
	for _, rm := range j.runs {
		out.Units = append(out.Units, UnitStatus{
			Key:       rm.Key(),
			Classes:   rm.Classes,
			Truncated: rm.Truncated,
			WallMS:    rm.WallMS,
			Error:     rm.Error,
		})
	}
	return out
}

// wsem is a FIFO weighted semaphore over the daemon's global worker budget.
// Leases are granted atomically (all n tokens or none), which rules out the
// partial-acquisition deadlock of counting semaphores, and strictly in
// arrival order, so a wide job is never starved by a stream of narrow ones.
type wsem struct {
	mu      sync.Mutex
	avail   int
	waiters []*wsemWaiter
}

type wsemWaiter struct {
	n     int
	ready chan struct{}
}

func newWsem(capacity int) *wsem { return &wsem{avail: capacity} }

// acquire leases n tokens, blocking FIFO until they are free or ctx ends.
func (s *wsem) acquire(ctx context.Context, n int) error {
	s.mu.Lock()
	if len(s.waiters) == 0 && s.avail >= n {
		s.avail -= n
		s.mu.Unlock()
		return nil
	}
	w := &wsemWaiter{n: n, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		granted := true
		for i, q := range s.waiters {
			if q == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				granted = false
				break
			}
		}
		if !granted {
			// Leaving the queue can unblock it: a waiter behind the
			// cancelled one whose demand already fits must be granted now,
			// not when some unrelated holder eventually releases.
			s.grantLocked()
		}
		s.mu.Unlock()
		if granted {
			// The grant raced the cancellation: hand the lease back.
			s.release(n)
		}
		return ctx.Err()
	}
}

// release returns n tokens and grants queued waiters in FIFO order.
func (s *wsem) release(n int) {
	s.mu.Lock()
	s.avail += n
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked grants head waiters in FIFO order while they fit the
// available tokens. Callers hold s.mu.
func (s *wsem) grantLocked() {
	for len(s.waiters) > 0 && s.waiters[0].n <= s.avail {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.avail -= w.n
		close(w.ready)
	}
}
