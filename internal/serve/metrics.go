package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"
)

// metrics are the daemon's operational counters, exposed in Prometheus text
// exposition format on /metrics. Gauges (jobs queued/running, the shared
// solver's interned terms) are read at scrape time; everything else is a
// monotonic counter. Solver totals come from the shared solver, which every
// job's runs count into through their scopes, so they are cumulative across
// every session the daemon ever ran — exactly what a rate() wants.
type metrics struct {
	jobsDone          atomic.Int64
	jobsFailed        atomic.Int64
	jobsCancelled     atomic.Int64
	sessionsCancelled atomic.Int64
	quotaRejections   atomic.Int64
	eventDrops        atomic.Int64
	bundlesStored     atomic.Int64
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, running := 0, 0
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case stateQueued:
			queued++
		case stateRunning:
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	st := s.solver.Stats()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	write := func(name, kind, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
	}
	write("achillesd_jobs_queued", "gauge", "Jobs waiting for worker-budget admission.", int64(queued))
	write("achillesd_jobs_running", "gauge", "Jobs with sessions in flight.", int64(running))
	write("achillesd_jobs_done_total", "counter", "Jobs that ran every unit to the end.", s.metrics.jobsDone.Load())
	write("achillesd_jobs_failed_total", "counter", "Jobs that failed outright (e.g. bundle store errors).", s.metrics.jobsFailed.Load())
	write("achillesd_jobs_cancelled_total", "counter", "Jobs cancelled by clients or a daemon drain.", s.metrics.jobsCancelled.Load())
	write("achillesd_sessions_cancelled_total", "counter", "Analysis sessions torn down mid-exploration.", s.metrics.sessionsCancelled.Load())
	write("achillesd_quota_rejections_total", "counter", "Submissions rejected by the per-client quota (HTTP 429).", s.metrics.quotaRejections.Load())
	write("achillesd_event_stream_drops_total", "counter", "Events dropped because a subscriber fell behind its buffer.", s.metrics.eventDrops.Load())
	write("achillesd_bundles_stored_total", "counter", "Bundles persisted to the content-addressed store (deduplicated puts included).", s.metrics.bundlesStored.Load())
	write("achillesd_solver_queries_total", "counter", "Queries issued to the shared solver.", int64(st.Queries))
	write("achillesd_solver_cache_hits_total", "counter", "Solver queries answered from the shared verdict cache.", int64(st.CacheHits))
	write("achillesd_solver_interned_terms", "gauge", "Structurally distinct expressions held by the shared solver's intern table.", int64(st.Interned))
}
