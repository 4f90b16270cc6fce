package main

// The daemon workload: achillesd's serve.Server behind a loopback HTTP
// server, driven by two closed-loop clients on a connection each. A client
// submits a job, follows its SSE stream to the terminal state, then reads the
// bundle back over HTTP — the manifest and every report file — and checks it
// against the goldens; every fourth job of a client also diffs its bundle
// against that client's previous one. The benchmark holds the daemon's
// solver, which stays warm across jobs, so the verdict cache and the serving
// layer do most of the work.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/serve"
	"achilles/internal/solver"
)

// daemonClients is the number of concurrent clients: two jobs of -j 2
// contend for the daemon's -j 2 budget, so one always queues.
const daemonClients = 2

type jobKind struct {
	targets []string
	modes   []string
}

var (
	kvPair   = jobKind{targets: []string{"kv", "kv-fixed"}}
	catalog  = jobKind{targets: []string{"raft", "raft-fixed", "pbft", "pbft-fixed", "paxos", "paxos-fixed", "paxos-concrete", "noisehs", "noisehs-fixed"}}
	fspModes = jobKind{targets: []string{"fsp"}, modes: []string{"optimized", "a-posteriori"}}
	// kinds are the job kinds, for the warm-up and the layer probe.
	kinds = []jobKind{kvPair, catalog, fspModes}
	// deck is four jobs of the traffic mix: half kv pairs, a quarter the
	// catalog, a quarter fsp in two modes. Each client deals its jobs from
	// the deck, shuffled from the seed every four jobs, so every run serves
	// exactly this mix. With each job drawn independently, the shares varied
	// by a few percent from seed to seed, and runs at equal throughput had
	// p50s from 51 to 66 ms: the p50 lies between the kv pairs and the rest,
	// where few jobs are.
	deck = []jobKind{kvPair, kvPair, catalog, fspModes}
)

type daemonBackend struct {
	e       *env
	sol     *solver.Solver
	srv     *serve.Server
	ts      *httptest.Server
	clients []*daemonClient

	mu      sync.Mutex
	jobs    int             // jobs completed since setup
	hashes  map[string]bool // distinct bundles among them
	sol0    solver.Stats
	scrape0 map[string]float64
	// client-side timings of traced jobs, ms
	submit, queue, running, gets, diffs, events []float64
	traced                                      []servedBundle
}

// daemonClient is one closed-loop client; only its own goroutine uses it.
type daemonClient struct {
	name string
	http *http.Client
	rng  *rand.Rand
	hand []jobKind // the rest of the shuffled deck
	n    int       // jobs completed
	prev string    // bundle of the previous job
	// In a traced run, which traces every other job of a client, each kind
	// dealt is served twice in a row, once traced and once not. The kinds'
	// latencies lie far apart (kv pairs about 10 ms, fsp about 100 ms), so
	// halves with even a slightly different mix would make
	// trace.overhead_frac measure the mix instead of the tracing.
	paired bool
	again  *jobKind
}

func newDaemonClient(name string, seed int64, i int) *daemonClient {
	return &daemonClient{
		name: name,
		http: &http.Client{Transport: &http.Transport{}},
		rng:  rand.New(rand.NewPCG(uint64(seed), uint64(i))),
	}
}

func (c *daemonClient) next() jobKind {
	if c.again != nil {
		k := *c.again
		c.again = nil
		return k
	}
	if len(c.hand) == 0 {
		c.hand = append(c.hand, deck...)
		c.rng.Shuffle(len(c.hand), func(i, j int) { c.hand[i], c.hand[j] = c.hand[j], c.hand[i] })
	}
	k := c.hand[0]
	c.hand = c.hand[1:]
	if c.paired {
		c.again = &k
	}
	return k
}

// send makes one request and returns the status code and the whole body.
func (c *daemonClient) send(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Achilles-Client", c.name)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// do sends a request and decodes a 2xx JSON answer into out; it returns the
// status code.
func (c *daemonClient) do(ctx context.Context, method, url string, body []byte, out any) (int, error) {
	code, data, err := c.send(ctx, method, url, body)
	if err == nil && code/100 == 2 && out != nil {
		if err = json.Unmarshal(data, out); err != nil {
			err = fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return code, err
}

// getRaw fetches url and fails on anything but 200.
func (c *daemonClient) getRaw(ctx context.Context, url string) ([]byte, error) {
	code, data, err := c.send(ctx, http.MethodGet, url, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, code)
	}
	return data, err
}

func setupDaemon(e *env) (backend, error) {
	store, err := e.scratch("store-")
	if err != nil {
		return nil, err
	}
	sol := solver.Default()
	srv, err := serve.New(serve.Config{Workers: jobs, StoreDir: store, Solver: sol})
	if err != nil {
		return nil, err
	}
	b := &daemonBackend{e: e, sol: sol, srv: srv, ts: httptest.NewServer(srv.Handler()), hashes: map[string]bool{}}
	// The clients of every daemon of a run shuffle from their own streams of
	// the seed.
	for i := 0; i < daemonClients; i++ {
		cl := newDaemonClient(fmt.Sprintf("bench-%d", i), e.cfg.seed, e.backends*daemonClients+i)
		cl.paired = e.cfg.trace
		b.clients = append(b.clients, cl)
	}
	if err := b.warmUp(); err != nil {
		b.close()
		return nil, err
	}
	// The timed loop starts right after setup: its job counts and counter
	// deltas start here.
	b.jobs, b.hashes = 0, map[string]bool{}
	b.sol0 = sol.Stats()
	b.scrape0 = b.scrape()
	return b, nil
}

// warmUp waits for /healthz and runs one job of each kind, so the timed
// loop starts with the solver's cache filled.
func (b *daemonBackend) warmUp() error {
	ctx, cancel := context.WithTimeout(context.Background(), b.e.timeout)
	defer cancel()
	cl := newDaemonClient("bench-warm-up", 0, daemonClients)
	defer cl.http.CloseIdleConnections()
	if code, err := cl.do(ctx, http.MethodGet, b.ts.URL+"/healthz", nil, nil); err != nil || code != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d: %v", code, err)
	}
	for _, k := range kinds {
		if o := b.job(ctx, cl, k, nil); o.failure != "" {
			return fmt.Errorf("warm-up job: %s", o.failure)
		}
	}
	return nil
}

func (b *daemonBackend) audit(ctx context.Context, c int, tr *auditTrace) outcome {
	cl := b.clients[c]
	return b.job(ctx, cl, cl.next(), tr)
}

// stream is what a client saw on a job's event stream.
type stream struct {
	state             string // terminal job state
	status            serve.JobStatus
	running, terminal time.Time
	firstTrojan       time.Duration
	events            int
}

func (b *daemonBackend) job(ctx context.Context, cl *daemonClient, kind jobKind, tr *auditTrace) outcome {
	body, err := json.Marshal(serve.Request{Targets: kind.targets, Modes: kind.modes, Parallelism: jobs})
	if err != nil {
		return outcome{failure: err.Error()}
	}
	start := time.Now()
	root := tr.open(0, "audit")
	id := tr.open(root, "serve.submit")
	var st serve.JobStatus
	code, err := cl.do(ctx, http.MethodPost, b.ts.URL+"/v1/jobs", body, &st)
	tr.close(id)
	submitted := time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		return outcome{failure: "submit: " + err.Error()}
	}
	s, err := b.follow(ctx, cl, st.EventsURL, start, newPhaseRecorder(tr, root, start))
	tr.close(root)
	if err != nil {
		return outcome{failure: fmt.Sprintf("%s events: %v", st.ID, err)}
	}
	o := outcome{dur: s.terminal.Sub(start), firstTrojan: s.firstTrojan}
	if s.state != "done" || s.status.Error != "" || s.status.Bundle == "" {
		o.failure = fmt.Sprintf("%s ended %s %q without a bundle", st.ID, s.state, s.status.Error)
		return o
	}
	hash := s.status.Bundle

	id = tr.open(0, "serve.bundle_get")
	bundle, err := b.fetchBundle(ctx, cl, hash)
	tr.close(id)
	if err != nil {
		o.failure = fmt.Sprintf("%s bundle %s: %v", st.ID, hash, err)
		return o
	}
	if f := checkBundle(bundle, b.e.goldens); f != "" {
		o.failure = fmt.Sprintf("%s bundle %s: %s", st.ID, hash, f)
		return o
	}
	if want := len(kind.targets) * max(1, len(kind.modes)); len(bundle.Manifest.Runs) != want {
		o.failure = fmt.Sprintf("%s bundle %s lists %d jobs, want %d", st.ID, hash, len(bundle.Manifest.Runs), want)
		return o
	}
	diffed := cl.n%4 == 2 && cl.prev != "" // every fourth job of a client
	if diffed {
		id = tr.open(0, "serve.diff")
		var d serve.DiffResult
		code, err := cl.do(ctx, http.MethodGet, b.ts.URL+"/v1/diff?old="+cl.prev+"&new="+hash, nil, &d)
		tr.close(id)
		if err == nil && (code != http.StatusOK || (cl.prev == hash && !d.Empty)) {
			err = fmt.Errorf("HTTP %d, empty=%v", code, d.Empty)
		}
		if err != nil {
			o.failure = fmt.Sprintf("diff %s %s: %v", cl.prev, hash, err)
			return o
		}
	}
	cl.prev = hash
	cl.n++
	b.mu.Lock()
	b.jobs++
	b.hashes[hash] = true
	b.mu.Unlock()
	if tr != nil {
		b.mu.Lock()
		b.submit = append(b.submit, tr.sum("serve.submit"))
		b.queue = append(b.queue, durMS(s.running.Sub(submitted)))
		b.running = append(b.running, durMS(s.terminal.Sub(s.running)))
		b.gets = append(b.gets, tr.sum("serve.bundle_get"))
		if diffed {
			b.diffs = append(b.diffs, tr.sum("serve.diff"))
		}
		b.events = append(b.events, float64(s.events))
		b.traced = append(b.traced, servedBundle{tr, kind, bundle, hash})
		b.mu.Unlock()
		countLayers(tr, manifestCounters(bundle.Manifest))
	}
	return o
}

// servedBundle is a traced job's bundle as read back over HTTP, for finish.
type servedBundle struct {
	tr     *auditTrace
	kind   jobKind
	bundle *campaign.Bundle
	hash   string
}

// repeat times the layers the daemon runs inside the server for a traced
// job by repeating the work on the job's inputs: compiling its targets, and
// hashing, writing and reading back the bundle it served — whose content
// hash must be the address the daemon stored it under.
func (b *daemonBackend) repeat(s servedBundle) string {
	tr, bundle, hash := s.tr, s.bundle, s.hash
	compileTargets(tr, s.kind.targets)
	t := time.Now()
	h, err := bundle.ContentHash()
	tr.record(0, "campaign.content_hash", t, time.Now())
	if err != nil || h != hash {
		return fmt.Sprintf("bundle served as %s hashes to %s (%v)", hash, h, err)
	}
	dir, err := b.e.scratch("bundle-")
	if err != nil {
		return err.Error()
	}
	defer os.RemoveAll(dir)
	t = time.Now()
	err = bundle.Write(dir)
	tr.record(0, "campaign.bundle_write", t, time.Now())
	if err != nil {
		return err.Error()
	}
	t = time.Now()
	_, err = campaign.Read(dir)
	tr.record(0, "campaign.bundle_read", t, time.Now())
	if err != nil {
		return err.Error()
	}
	return ""
}

// follow reads a job's SSE stream up to its final done event. Phase events
// become core spans (a phase ends where the next one, or the job, does) and
// the first trojan event is the job's first Trojan.
func (b *daemonBackend) follow(ctx context.Context, cl *daemonClient, path string, start time.Time, ph *phaseRecorder) (stream, error) {
	var s stream
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+path, nil)
	if err != nil {
		return s, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	name := ""
	for {
		line, err := rd.ReadString('\n')
		if errors.Is(err, io.EOF) {
			return s, errors.New("stream ended without a done event")
		}
		if err != nil {
			return s, err
		}
		line = strings.TrimSuffix(line, "\n")
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			name = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		s.events++
		var p struct{ State, Phase string }
		if name != "trojan" {
			if err := json.Unmarshal([]byte(data), &p); err != nil {
				return s, fmt.Errorf("%s event: %w", name, err)
			}
		}
		switch name {
		case "state":
			switch p.State {
			case "running":
				s.running = now
			case "done", "cancelled", "failed":
				s.state, s.terminal = p.State, now
				ph.enter("", now)
			}
		case "phase":
			ph.enter(p.Phase, now)
		case "trojan":
			if s.firstTrojan == 0 {
				s.firstTrojan = now.Sub(start)
				ph.trojan(now)
			}
		case "done":
			if s.terminal.IsZero() || s.running.IsZero() {
				return s, errors.New("done event before the job ran to a terminal state")
			}
			if err := json.Unmarshal([]byte(data), &s.status); err != nil {
				return s, fmt.Errorf("done event: %w", err)
			}
			// The stream ends here; reading it to EOF lets the connection
			// be reused for the bundle reads.
			_, err := io.Copy(io.Discard, rd)
			return s, err
		}
	}
}

// fetchBundle reassembles a stored bundle from the daemon's bundle
// endpoints: the manifest, then the report file of every clean job.
func (b *daemonBackend) fetchBundle(ctx context.Context, cl *daemonClient, hash string) (*campaign.Bundle, error) {
	base := b.ts.URL + "/v1/bundles/" + hash
	bundle := &campaign.Bundle{Reports: map[string][]campaign.Report{}}
	code, err := cl.do(ctx, http.MethodGet, base, nil, &bundle.Manifest)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", base, code)
	}
	if err != nil {
		return nil, err
	}
	for _, rm := range bundle.Manifest.Runs {
		if rm.Error != "" {
			continue
		}
		raw, err := cl.getRaw(ctx, base+"/files/"+rm.ReportFile)
		if err != nil {
			return nil, err
		}
		reps := []campaign.Report{}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if line == "" {
				continue
			}
			var r campaign.Report
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", rm.ReportFile, err)
			}
			reps = append(reps, r)
		}
		bundle.Reports[rm.Key()] = reps
	}
	return bundle, nil
}

func (b *daemonBackend) finish() (map[string]float64, error) {
	m := b.scrape()
	st := b.sol.Stats()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, t := range b.traced {
		if f := b.repeat(t); f != "" {
			return nil, fmt.Errorf("traced job %d: %s", t.tr.id, f)
		}
	}
	vals := map[string]float64{}
	vals["serve.submit_ms_p50"] = quantile(b.submit, 0.5)
	vals["serve.queue_ms_p50"] = quantile(b.queue, 0.5)
	vals["serve.queue_ms_p90"] = quantile(b.queue, 0.9)
	vals["serve.run_ms_p50"] = quantile(b.running, 0.5)
	vals["serve.bundle_get_ms_p50"] = quantile(b.gets, 0.5)
	vals["serve.diff_ms_p50"] = quantile(b.diffs, 0.5)
	total := 0.0
	for _, n := range b.events {
		total += n
	}
	vals["serve.events_per_job"] = ratio(total, float64(len(b.events)))
	vals["serve.store_dedup_ratio"] = ratio(float64(len(b.hashes)), float64(b.jobs))
	delta := func(k string) float64 { return m[k] - b.scrape0[k] }
	vals["serve.event_drops"] = delta("achillesd_event_stream_drops_total")
	vals["serve.quota_rejections"] = delta("achillesd_quota_rejections_total")
	vals["serve.solver_cache_hit_ratio"] = ratio(delta("achillesd_solver_cache_hits_total"), delta("achillesd_solver_queries_total"))
	solverLayers(func(k string, v float64) { vals[k] = v }, statsDelta(b.sol0, st), float64(b.jobs))
	return vals, nil
}

// scrape reads the daemon's /metrics counters; an unreadable scrape reads as
// no counters.
func (b *daemonBackend) scrape() map[string]float64 {
	ctx, cancel := context.WithTimeout(context.Background(), b.e.timeout)
	defer cancel()
	cl := newDaemonClient("bench-scrape", 0, daemonClients)
	defer cl.http.CloseIdleConnections()
	out := map[string]float64{}
	raw, err := cl.getRaw(ctx, b.ts.URL+"/metrics")
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

func (b *daemonBackend) units() []probeUnit {
	var names []string
	for _, k := range kinds {
		names = append(names, k.targets...)
	}
	return registryUnits(names)
}

// close drains the daemon before closing its listener: event streams end
// only once their jobs are terminal.
func (b *daemonBackend) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), b.e.timeout)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	b.ts.Close()
	for _, cl := range b.clients {
		cl.http.CloseIdleConnections()
	}
	return err
}
