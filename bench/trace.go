package main

// Tracing from outside the program: spans are recorded by the benchmark
// around its calls into each layer (and from the observer callbacks and
// event streams the layers already expose), never inside the program. A
// traced audit also records the counters its seams report, so every ratio
// is measured where the work happens.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"achilles/internal/core"
)

// span is one timed interval of a traced audit. Trace is the audit's
// identifier; Parent is 0 for a top-level span. Times are milliseconds since
// the run started.
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// spanLog keeps every traced audit of a run in memory until the run ends.
type spanLog struct {
	t0     time.Time
	mu     sync.Mutex
	audits []*auditTrace
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// audit starts the trace of one audit.
func (l *spanLog) audit(id int) *auditTrace {
	a := &auditTrace{log: l, id: id, vals: map[string]float64{}}
	l.mu.Lock()
	l.audits = append(l.audits, a)
	l.mu.Unlock()
	return a
}

// aggregate turns the traced audits into per-layer values: each audit's
// total time in spans of one name becomes "<name>_ms" next to the values the
// workload recorded, and every value is the median over the audits that
// recorded it.
func (l *spanLog) aggregate() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	samples := map[string][]float64{}
	for _, a := range l.audits {
		a.mu.Lock()
		for k, v := range a.vals {
			samples[k] = append(samples[k], v)
		}
		sums := map[string]float64{}
		for _, s := range a.spans {
			sums[s.Name+"_ms"] += s.ms()
		}
		a.mu.Unlock()
		for k, v := range sums {
			if _, set := a.vals[k]; !set {
				samples[k] = append(samples[k], v)
			}
		}
	}
	out := map[string]float64{}
	for k, xs := range samples {
		out[k] = quantile(xs, 0.5)
	}
	return out
}

// write saves every span of the run as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	var all []span
	for _, a := range l.audits {
		a.mu.Lock()
		all = append(all, a.spans...)
		a.mu.Unlock()
	}
	l.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Trace != all[j].Trace {
			return all[i].Trace < all[j].Trace
		}
		return all[i].ID < all[j].ID
	})
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{all}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// auditTrace is one traced audit: its spans and the per-layer values its
// seams reported. Every method accepts a nil receiver and then does nothing,
// so an untraced audit runs the same code with tracing off. Observer
// callbacks reach it from analysis goroutines, hence the mutex.
type auditTrace struct {
	log *spanLog
	id  int

	mu    sync.Mutex
	spans []span
	vals  map[string]float64
}

func (a *auditTrace) since(t time.Time) float64 { return durMS(t.Sub(a.log.t0)) }

// open starts a span now and returns its ID for close and for children.
func (a *auditTrace) open(parent int, name string) int {
	if a == nil {
		return 0
	}
	now := a.since(time.Now())
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spans = append(a.spans, span{Trace: a.id, ID: len(a.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(a.spans)
}

// close ends the span id now.
func (a *auditTrace) close(id int) {
	if a == nil || id == 0 {
		return
	}
	now := a.since(time.Now())
	a.mu.Lock()
	a.spans[id-1].End = now
	a.mu.Unlock()
}

// record adds a span whose interval is already known.
func (a *auditTrace) record(parent int, name string, start, end time.Time) int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spans = append(a.spans, span{Trace: a.id, ID: len(a.spans) + 1, Parent: parent, Name: name, Start: a.since(start), End: a.since(end)})
	return len(a.spans)
}

// set records a per-layer value of this audit.
func (a *auditTrace) set(name string, v float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.vals[name] = v
	a.mu.Unlock()
}

// min records v unless a smaller value of the same name is already there.
func (a *auditTrace) min(name string, v float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if old, ok := a.vals[name]; !ok || v < old {
		a.vals[name] = v
	}
	a.mu.Unlock()
}

// sum is the total duration of the spans named name, in ms.
func (a *auditTrace) sum(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := 0.0
	for _, s := range a.spans {
		if s.Name == name {
			t += s.ms()
		}
	}
	return t
}

// longest is the duration of the longest span named name, in ms.
func (a *auditTrace) longest(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := 0.0
	for _, s := range a.spans {
		if s.Name == name && s.ms() > m {
			m = s.ms()
		}
	}
	return m
}

// dur is the duration of span id, in ms.
func (a *auditTrace) dur(id int) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spans[id-1].ms()
}

// self is span id's self time: its duration minus the part of its interval
// its child spans cover.
func (a *auditTrace) self(id int) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.spans[id-1]
	var kids []span
	for _, s := range a.spans {
		if s.Parent == id {
			kids = append(kids, span{Start: max(s.Start, p.Start), End: min(s.End, p.End)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, reach := 0.0, p.Start
	for _, k := range kids {
		if k.End <= reach {
			continue
		}
		covered += k.End - max(k.Start, reach)
		reach = k.End
	}
	return p.ms() - covered
}

// phaseRecorder turns core.Observer callbacks of one analysis into
// core.extract / core.preprocess / core.server spans under a parent span,
// and records the earliest Trojan as core.first_trojan_ms, counted from
// origin.
type phaseRecorder struct {
	tr     *auditTrace
	parent int
	origin time.Time

	mu    sync.Mutex
	phase string
	since time.Time
}

func newPhaseRecorder(tr *auditTrace, parent int, origin time.Time) *phaseRecorder {
	return &phaseRecorder{tr: tr, parent: parent, origin: origin}
}

// enter closes the running phase span at t and opens phase.
func (p *phaseRecorder) enter(phase string, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.phase != "" {
		p.tr.record(p.parent, "core."+p.phase, p.since, t)
	}
	p.phase, p.since = phase, t
}

// trojan notes a Trojan confirmed at t.
func (p *phaseRecorder) trojan(t time.Time) {
	p.tr.min("core.first_trojan_ms", durMS(t.Sub(p.origin)))
}

// done closes the last phase span.
func (p *phaseRecorder) done() { p.enter("", time.Now()) }

// observer is the core.Observer that feeds the recorder.
func (p *phaseRecorder) observer() core.Observer {
	return core.Observer{
		OnPhase:  func(phase string) { p.enter(phase, time.Now()) },
		OnTrojan: func(core.TrojanReport) { p.trojan(time.Now()) },
	}
}
