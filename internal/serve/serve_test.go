// White-box tests for the serving layer's concurrency and storage
// primitives: the FIFO weighted semaphore behind the worker budget, the
// drop-counted SSE broadcaster, the content-addressed bundle store, the
// request planner and the solver series of /metrics. The HTTP surface is
// covered black-box in e2e_test.go.
package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/expr"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

// TestWsemAllOrNothingFIFO: grants are atomic and strictly in arrival
// order — a small lease queued behind a large one must not overtake it even
// when it would fit, because that overtaking (granting whatever fits) is
// exactly how wide jobs starve.
func TestWsemAllOrNothingFIFO(t *testing.T) {
	sem := newWsem(4)
	if err := sem.acquire(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	// B wants 3 (does not fit: 1 free), C wants 1 (fits, but is behind B).
	bGranted, cGranted := make(chan struct{}), make(chan struct{})
	go func() {
		sem.acquire(context.Background(), 3)
		close(bGranted)
	}()
	// Let B reach the queue before C, then queue C.
	time.Sleep(20 * time.Millisecond)
	go func() {
		sem.acquire(context.Background(), 1)
		close(cGranted)
	}()
	select {
	case <-cGranted:
		t.Fatal("C (1 token) overtook B (3 tokens) in the queue")
	case <-time.After(50 * time.Millisecond):
	}

	sem.release(3) // A done: 4 free → B (3) granted, then C (1) granted too.
	select {
	case <-bGranted:
	case <-time.After(2 * time.Second):
		t.Fatal("B never granted after release")
	}
	select {
	case <-cGranted:
	case <-time.After(2 * time.Second):
		t.Fatal("C never granted after B fit")
	}
}

// TestWsemCancelWhileQueued: a cancelled waiter leaves the queue without
// leaking tokens or wedging the waiters behind it.
func TestWsemCancelWhileQueued(t *testing.T) {
	sem := newWsem(2)
	if err := sem.acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- sem.acquire(ctx, 1) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	// The full capacity is still accounted for: release and re-acquire it.
	sem.release(2)
	done := make(chan struct{})
	go func() {
		if err := sem.acquire(context.Background(), 2); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("tokens leaked by the cancelled waiter")
	}
}

// TestWsemCancelRegrantsSatisfiableWaiter: when a queued waiter cancels,
// the grant scan re-runs immediately — a waiter behind it whose demand
// already fits the free tokens is admitted right away, not when some
// unrelated holder eventually releases.
func TestWsemCancelRegrantsSatisfiableWaiter(t *testing.T) {
	sem := newWsem(3)
	if err := sem.acquire(context.Background(), 1); err != nil { // 2 free
		t.Fatal(err)
	}
	waitQueue := func(n int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			sem.mu.Lock()
			got := len(sem.waiters)
			sem.mu.Unlock()
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue length %d, want %d", got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// B wants 3 (only 2 free: queued); C wants 2 (would fit, behind B).
	bCtx, cancelB := context.WithCancel(context.Background())
	bErr := make(chan error, 1)
	go func() { bErr <- sem.acquire(bCtx, 3) }()
	waitQueue(1)
	cGranted := make(chan struct{})
	go func() {
		if err := sem.acquire(context.Background(), 2); err != nil {
			t.Error(err)
		}
		close(cGranted)
	}()
	waitQueue(2)

	cancelB()
	if err := <-bErr; err != context.Canceled {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	// No release happens here: C's grant must come from the cancel itself.
	select {
	case <-cGranted:
	case <-time.After(2 * time.Second):
		t.Fatal("C (2 tokens, 2 free) stayed queued after the waiter ahead of it cancelled")
	}
}

// TestBroadcasterDropsNeverBlocks: a subscriber that stops reading loses
// overflow events — counted — while publish returns immediately, and the
// durable history still replays complete to the next subscriber. This is the
// serving-layer mirror of the Session.Events slow-consumer contract.
func TestBroadcasterDropsNeverBlocks(t *testing.T) {
	var drops atomic.Int64
	b := newBroadcaster(2, &drops)
	_, ch, cancel := b.subscribe()
	defer cancel()

	publishDone := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			b.publish(sseEvent{name: "state", data: []byte(`{}`)}, true)
		}
		close(publishDone)
	}()
	select {
	case <-publishDone:
	case <-time.After(2 * time.Second):
		t.Fatal("publish blocked on a full subscriber buffer")
	}
	if got := len(ch); got != 2 {
		t.Fatalf("subscriber holds %d events, want its full buffer of 2", got)
	}
	if got := drops.Load(); got != 8 {
		t.Fatalf("drop counter = %d, want 8", got)
	}

	// Durable history is unaffected by live-path drops.
	replay, ch2, cancel2 := b.subscribe()
	defer cancel2()
	_ = ch2
	if len(replay) != 10 {
		t.Fatalf("history replays %d events, want all 10", len(replay))
	}

	// cancel is idempotent and detaches the subscriber.
	cancel()
	cancel()
	b.publish(sseEvent{name: "state", data: []byte(`{}`)}, false)
	if got := drops.Load(); got != 8 {
		t.Fatalf("detached subscriber still counted a drop: %d", got)
	}
}

// testBundle builds a minimal valid bundle with the given report's class
// line, for store tests.
func testBundle(class string) *campaign.Bundle {
	u := campaign.Job{Target: "t", Mode: core.ModeOptimized}
	return &campaign.Bundle{
		Manifest: campaign.Manifest{
			FormatVersion: campaign.FormatVersion,
			Tool:          campaign.Version,
			Jobs:          1,
			CreatedAt:     "2026-01-01T00:00:00Z",
			Runs: []campaign.RunManifest{{
				Target:     u.Target,
				Mode:       u.Mode.String(),
				ReportFile: u.ReportFile(),
				Classes:    1,
			}},
		},
		Reports: map[string][]campaign.Report{
			u.Key(): {{Fingerprint: "fp", ClassID: "c1", Class: class, Witness: "w", Fields: []string{"m0"}}},
		},
	}
}

// TestStoreContentAddressing: identical content stores once under one hash
// regardless of volatile manifest fields; different content gets a different
// address; reads round-trip.
func TestStoreContentAddressing(t *testing.T) {
	st, err := newStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	b1 := testBundle("m[0] == 7")
	h1, err := st.Put(b1)
	if err != nil {
		t.Fatal(err)
	}
	// Same analysis content, different wall-clock metadata: same address.
	b2 := testBundle("m[0] == 7")
	b2.Manifest.CreatedAt = "2026-02-02T00:00:00Z"
	b2.Manifest.WallMS = 12345
	h2, err := st.Put(b2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("volatile metadata changed the content hash: %s vs %s", h1, h2)
	}
	// Different content: different address.
	h3, err := st.Put(testBundle("m[0] == 8"))
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different class sets collided on one content hash")
	}
	got, err := st.Get(h1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Manifest.Runs) != 1 || got.Manifest.Runs[0].Classes != 1 {
		t.Fatalf("round-tripped bundle manifest: %+v", got.Manifest)
	}
	listed, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 {
		t.Fatalf("store lists %d bundles, want 2", len(listed))
	}
}

// TestStoreValidation: wire-supplied hashes and file names are validated
// before they are allowed to form a path.
func TestStoreValidation(t *testing.T) {
	st, err := newStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"", "xyz", "../escape", "ABCDEF00112233445566778899AABBCC"} {
		if _, err := st.Get(h); err == nil {
			t.Errorf("Get(%q) accepted an invalid hash", h)
		}
	}
	good := "00112233445566778899aabbccddeeff"
	for _, name := range []string{"", ".", "..", "../manifest.json", "a/b.jsonl", ".hidden.jsonl", "notes.txt"} {
		if _, err := st.FilePath(good, name); err == nil {
			t.Errorf("FilePath(%q) accepted an invalid member name", name)
		}
	}
	if _, err := st.FilePath(good, campaign.ManifestName); err != nil {
		t.Errorf("FilePath rejected the manifest: %v", err)
	}
	if _, err := st.FilePath(good, "t__optimized.jsonl"); err != nil {
		t.Errorf("FilePath rejected a report stream: %v", err)
	}
}

// fakeCatalog registers two targets under canonical and alias names.
func fakeCatalog(name string) (registry.Descriptor, bool) {
	switch name {
	case "alpha", "a":
		return registry.Descriptor{Name: "alpha"}, true
	case "beta":
		return registry.Descriptor{Name: "beta"}, true
	}
	return registry.Descriptor{}, false
}

// TestPlanJob: requests expand into sorted, deduplicated (target, mode)
// units with clamped parallelism — the same canonical plan the campaign
// engine would produce.
func TestPlanJob(t *testing.T) {
	s, err := New(Config{Workers: 4, StoreDir: filepath.Join(t.TempDir(), "store"), Lookup: fakeCatalog})
	if err != nil {
		t.Fatal(err)
	}
	plan := func(req Request) ([]campaign.Job, int, error) {
		opts, err := s.planJob(req)
		if err != nil {
			return nil, 0, err
		}
		units, err := campaign.Plan(opts)
		return units, opts.Jobs, err
	}
	units, par, err := plan(Request{Targets: []string{"beta", "a", "alpha"}, Parallelism: 99})
	if err != nil {
		t.Fatal(err)
	}
	// "a" is the alias of "alpha": canonicalized and deduplicated; sorted.
	if len(units) != 2 || units[0].Target != "alpha" || units[1].Target != "beta" {
		t.Fatalf("units = %+v", units)
	}
	if units[0].Mode != core.ModeOptimized {
		t.Fatalf("default mode = %v, want optimized", units[0].Mode)
	}
	if par != 4 {
		t.Fatalf("parallelism clamped to %d, want the 4-worker budget", par)
	}

	units, par, err = plan(Request{Targets: []string{"alpha"}, Modes: []string{"optimized", "a-posteriori", "optimized"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("duplicate modes not deduplicated: %+v", units)
	}
	if par != 1 {
		t.Fatalf("default parallelism = %d, want 1", par)
	}

	for _, bad := range []Request{
		{},
		{Targets: []string{"gamma"}},
		{Targets: []string{"alpha"}, Modes: []string{"warp"}},
		{Targets: []string{"alpha"}, MaxStates: -5},
	} {
		if _, err := s.planJob(bad); err == nil {
			t.Errorf("planJob(%+v) accepted an invalid request", bad)
		}
	}
}

// TestMetricsSolverFootprint: /metrics exports the shared solver's intern
// table as a gauge of its distinct expressions and its query total as a
// counter, as well-formed samples carrying the solver's own Stats.
func TestMetricsSolverFootprint(t *testing.T) {
	sol := solver.Default()
	sol.Check([]*expr.Expr{expr.Lt(expr.Var("x"), expr.Const(3))})
	s, err := New(Config{StoreDir: filepath.Join(t.TempDir(), "store"), Solver: sol})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	types, samples := map[string]string{}, map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			types[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
		case len(f) == 2:
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[f[0]] = v
		default:
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	st := sol.Stats()
	if st.Interned == 0 {
		t.Fatal("the solver interned nothing")
	}
	for _, m := range []struct {
		name, kind string
		want       int64
	}{
		{"achillesd_solver_interned_terms", "gauge", int64(st.Interned)},
		{"achillesd_solver_queries_total", "counter", int64(st.Queries)},
	} {
		got, ok := samples[m.name]
		if !ok || got != m.want || types[m.name] != m.kind {
			t.Errorf("%s: sample %d (present %v), type %q; want %d, %s", m.name, got, ok, types[m.name], m.want, m.kind)
		}
	}
}
