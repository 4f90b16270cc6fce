package dispatch

// Coordinator coverage: the distributed determinism invariant (bundles hash
// identically to the in-process engine at every worker count), the hello
// handshake's fail-fast on version skew, crash requeue up to a fully dead
// fleet, cache seeding and collection, cancellation, and leak-free teardown.
// The fleet runs in-process over pipes here — the subprocess plumbing is
// covered by cmd/achilles-audit's re-exec tests.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/solver"
	"achilles/internal/testutil"

	// Populate the registry: dispatch tests run real (cheap) targets.
	_ "achilles/internal/protocols"
)

// inprocFleet spawns workers as goroutines running Serve over pipe pairs —
// the same protocol traffic as subprocesses, without fork/exec cost. The
// crash hook becomes runtime.Goexit, whose deferred pipe closes look to the
// coordinator exactly like an abruptly dead process.
func inprocFleet(wc func(i int) WorkerConfig) func(int) (workerIO, error) {
	return func(i int) (workerIO, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		served := make(chan struct{})
		cfg := wc(i)
		if cfg.exit == nil {
			cfg.exit = func(int) { runtime.Goexit() }
		}
		go func() {
			defer close(served)
			defer outW.Close()
			defer inR.Close()
			Serve(inR, outW, cfg)
		}()
		return workerIO{
			in:  inW,
			out: outR,
			wait: func() error {
				<-served
				return nil
			},
			kill: func() {
				inW.Close()
				outR.Close()
			},
		}, nil
	}
}

// scriptedWorker is a protocol-level stand-in for a worker: it greets like a
// real one, then hands every message it receives to onMsg and hangs up —
// an abrupt death, as far as the coordinator can tell — once onMsg returns
// true or its stdin closes.
func scriptedWorker(onMsg func(message) (hangUp bool)) (workerIO, error) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer outW.Close()
		defer inR.Close()
		w := newWire(inR, outW)
		if w.write(helloMessage()) != nil {
			return
		}
		for {
			m, err := w.read()
			if err != nil || onMsg(m) {
				return
			}
		}
	}()
	return workerIO{
		in:   inW,
		out:  outR,
		wait: func() error { <-served; return nil },
		kill: func() { inW.Close(); outR.Close() },
	}, nil
}

// freshWorkers gives every worker its own solver, like separate processes.
func freshWorkers(i int) WorkerConfig { return WorkerConfig{Solver: solver.Default()} }

var parityTargets = []string{"kv", "kv-fixed", "pbft"}

// TestDistributedContentHashParity is the tentpole invariant: a campaign
// dispatched over 1, 2 and 4 workers produces a bundle ContentHash-identical
// to the in-process engine's.
func TestDistributedContentHashParity(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	local, err := campaign.Run(campaign.Options{Targets: parityTargets, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			c, err := Start(Config{Workers: workers, spawn: inprocFleet(freshWorkers)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			b, err := campaign.Run(campaign.Options{Targets: parityTargets, Jobs: 2, Executor: c})
			if err != nil {
				t.Fatal(err)
			}
			for _, rm := range b.Manifest.Runs {
				if rm.Error != "" {
					t.Fatalf("job %s failed on the fleet: %s", rm.Key(), rm.Error)
				}
			}
			got, err := b.ContentHash()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%d-worker bundle drifted from single-process run: %s != %s", workers, got, want)
			}
		})
	}
}

// TestWorkerCrashRequeues: a worker killed mid-job (abrupt exit, no
// farewell) has that job requeued on a surviving worker, and the finished
// bundle still matches the single-process hash — a crash costs time, never
// results.
func TestWorkerCrashRequeues(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	local, err := campaign.Run(campaign.Options{Targets: parityTargets, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := local.ContentHash()

	sentinel := filepath.Join(t.TempDir(), "crash-once")
	c, err := Start(Config{Workers: 2, spawn: inprocFleet(func(i int) WorkerConfig {
		return WorkerConfig{Solver: solver.Default(), CrashJob: "kv/optimized", CrashOnce: sentinel}
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b, err := campaign.Run(campaign.Options{Targets: parityTargets, Jobs: 2, Executor: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("crash sentinel missing — the fault was never injected: %v", err)
	}
	for _, rm := range b.Manifest.Runs {
		if rm.Error != "" {
			t.Fatalf("job %s failed despite a surviving worker: %s", rm.Key(), rm.Error)
		}
	}
	got, err := b.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-crash bundle drifted: %s != %s", got, want)
	}
}

// TestAllWorkersDeadFailsJobs: when the whole fleet is gone the campaign
// still completes as an artifact — every unfinished job carries a pool-death
// error in its manifest entry instead of hanging the run.
func TestAllWorkersDeadFailsJobs(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	// One worker, unconditional crash on its first assignment (no sentinel).
	c, err := Start(Config{Workers: 1, spawn: inprocFleet(func(i int) WorkerConfig {
		return WorkerConfig{Solver: solver.Default(), CrashJob: "kv/optimized"}
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b, err := campaign.Run(campaign.Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1, Executor: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Manifest.Runs) != 2 {
		t.Fatalf("want 2 manifest entries, got %d", len(b.Manifest.Runs))
	}
	for _, rm := range b.Manifest.Runs {
		if !strings.Contains(rm.Error, "workers exited") {
			t.Fatalf("job %s: want pool-death error, got %q", rm.Key(), rm.Error)
		}
		if len(b.Reports[rm.Key()]) != 0 {
			t.Fatalf("job %s: errored entry must carry no reports", rm.Key())
		}
	}
}

// cacheKeys returns the keys of a solver's verdict cache.
func cacheKeys(t *testing.T, s *solver.Solver) map[string]bool {
	t.Helper()
	entries, err := s.ExportCache()
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, len(entries))
	for _, e := range entries {
		keys[e.Key] = true
	}
	return keys
}

// sameKeys fails the test unless got and want hold the same keys.
func sameKeys(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Fatalf("%s: %d keys, not the %d expected", what, len(got), len(want))
	}
}

// TestCollectCacheUnionsWorkerVerdicts: workers keep their verdicts until
// asked; CollectCache then leaves the coordinator holding its seed plus
// exactly the union of what the workers computed themselves — so -cache
// persists everything the fleet learned — and a warm coordinator cache
// still seeds a freshly spawned fleet.
func TestCollectCacheUnionsWorkerVerdicts(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	fleet := func(coord *solver.Solver, wsol []*solver.Solver) *Coordinator {
		t.Helper()
		c, err := Start(Config{Workers: len(wsol), Solver: coord, spawn: inprocFleet(func(i int) WorkerConfig {
			wsol[i] = solver.Default()
			return WorkerConfig{Solver: wsol[i]}
		})})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	// Cold: nothing is seeded, so the coordinator ends up with the union of
	// the workers' caches — and holds nothing before it asks.
	coord := solver.Default()
	wsol := make([]*solver.Solver, 2)
	c := fleet(coord, wsol)
	if _, err := campaign.Run(campaign.Options{Targets: parityTargets, Jobs: 2, Executor: c}); err != nil {
		t.Fatal(err)
	}
	if n := len(cacheKeys(t, coord)); n != 0 {
		t.Fatalf("coordinator holds %d verdicts before collecting — a job pushed its cache", n)
	}
	union := map[string]bool{}
	for i, s := range wsol {
		keys := cacheKeys(t, s)
		if len(keys) == 0 {
			t.Fatalf("worker %d holds no verdicts", i)
		}
		for k := range keys {
			union[k] = true
		}
	}
	n, err := c.CollectCache(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	seed := cacheKeys(t, coord)
	sameKeys(t, "cold collect", seed, union)
	if n != len(union) {
		t.Fatalf("CollectCache reported %d merged verdicts, coordinator gained %d", n, len(union))
	}

	// Warm: a fresh fleet started from the now-warm coordinator receives
	// every verdict before its first job, and a later collect brings back
	// only what the workers computed beyond that seed. A worker handles
	// its messages in order, so once a collect is answered the seed sent
	// before it has been merged.
	wsol2 := make([]*solver.Solver, 2)
	c2 := fleet(coord, wsol2)
	if n, err := c2.CollectCache(t.Context()); n != 0 || err != nil {
		t.Fatalf("collect before any job = %d, %v; want 0 new verdicts", n, err)
	}
	for i := range wsol2 {
		if got := len(cacheKeys(t, wsol2[i])); got != len(seed) {
			t.Fatalf("seed did not reach worker %d: it holds %d of %d verdicts", i, got, len(seed))
		}
	}
	if _, err := campaign.Run(campaign.Options{Targets: append([]string{"paxos"}, parityTargets...), Jobs: 2, Executor: c2}); err != nil {
		t.Fatal(err)
	}
	own := map[string]bool{}
	for _, s := range wsol2 {
		for k := range cacheKeys(t, s) {
			if !seed[k] {
				own[k] = true
			}
		}
	}
	if len(own) == 0 {
		t.Fatal("the warm fleet computed nothing beyond its seed; the case needs a new target")
	}
	n, err = c2.CollectCache(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want := maps.Clone(seed)
	maps.Copy(want, own)
	sameKeys(t, "warm collect", cacheKeys(t, coord), want)
	if n != len(own) {
		t.Fatalf("CollectCache reported %d merged verdicts, want the %d the workers computed", n, len(own))
	}
}

// TestCollectCacheSkipsDeadWorker: a worker that dies instead of answering
// ends its share of the wait, and the collect still returns every verdict
// the surviving worker computed.
func TestCollectCacheSkipsDeadWorker(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	coord, live := solver.Default(), solver.Default()
	c, err := Start(Config{Workers: 2, Solver: coord, spawn: func(i int) (workerIO, error) {
		if i == 0 {
			return inprocFleet(func(int) WorkerConfig { return WorkerConfig{Solver: live} })(i)
		}
		return scriptedWorker(func(m message) bool { return m.Type == msgCollect })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A Run takes the lowest free worker: every job lands on worker 0.
	for _, target := range []string{"kv", "kv-fixed"} {
		rm, _ := c.Run(t.Context(), campaign.Job{Target: target, Mode: core.ModeOptimized}, 1)
		if rm.Error != "" {
			t.Fatalf("%s failed: %s", target, rm.Error)
		}
	}
	n, err := c.CollectCache(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want := cacheKeys(t, live)
	if n != len(want) || n == 0 {
		t.Fatalf("CollectCache merged %d verdicts, the surviving worker computed %d", n, len(want))
	}
	sameKeys(t, "collect past a dead worker", cacheKeys(t, coord), want)
}

// TestCollectCacheCancelled: a worker that never answers cannot hang the
// collect — cancelling its context ends the wait with ctx.Err().
func TestCollectCacheCancelled(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	c, err := Start(Config{Workers: 1, spawn: func(int) (workerIO, error) {
		return scriptedWorker(func(m message) bool { return m.Type == msgShutdown })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(t.Context())
	time.AfterFunc(20*time.Millisecond, cancel)
	if n, err := c.CollectCache(ctx); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("CollectCache on a silent worker = %d, %v; want 0, context.Canceled", n, err)
	}
}

// TestCancelInterruptsFleet: cancelling a distributed campaign yields the
// same interrupted bundle shape as the local engine and tears down without
// leaking goroutines.
func TestCancelInterruptsFleet(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	c, err := Start(Config{Workers: 2, spawn: inprocFleet(freshWorkers)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first job is even fed
	b, err := campaign.RunCtx(ctx, campaign.Options{Targets: parityTargets, Jobs: 2, Executor: c})
	if err == nil {
		t.Fatal("want context error from a cancelled campaign")
	}
	if !b.Manifest.Interrupted {
		t.Fatal("bundle not marked interrupted")
	}
	for _, rm := range b.Manifest.Runs {
		if !strings.HasPrefix(rm.Error, "interrupted: ") {
			t.Fatalf("job %s: want interrupted entry, got %q", rm.Key(), rm.Error)
		}
	}

	// The backend's own Run honours the same contract when asked directly.
	rm, reports := c.Run(ctx, campaign.Job{Target: "kv", Mode: core.ModeOptimized}, 1)
	if rm.Error != "interrupted: "+context.Canceled.Error() || len(reports) != 0 {
		t.Fatalf("direct cancelled Run: got %+v with %d reports", rm, len(reports))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStartRejectsVersionSkew: a worker greeting with a different protocol
// revision kills the whole spawn — no campaign runs on a mixed-dialect
// fleet.
func TestStartRejectsVersionSkew(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	skewed := func(i int) (workerIO, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		go func() {
			defer outW.Close()
			json.NewEncoder(outW).Encode(message{Type: msgHello, Proto: ProtoVersion + 1, Campaign: campaign.Version, Solver: solver.Version})
			io.Copy(io.Discard, inR) // park until the coordinator hangs up
		}()
		return workerIO{in: inW, out: outR, wait: func() error { return nil }, kill: func() { inR.Close(); outR.Close() }}, nil
	}
	if _, err := Start(Config{Workers: 1, spawn: skewed}); err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("want version-mismatch error, got %v", err)
	}

	// A worker dying before its hello is the same fail-fast path.
	stillborn := func(i int) (workerIO, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		outW.Close()
		go io.Copy(io.Discard, inR)
		return workerIO{in: inW, out: outR, wait: func() error { return nil }, kill: func() { inR.Close() }}, nil
	}
	if _, err := Start(Config{Workers: 1, spawn: stillborn}); err == nil || !strings.Contains(err.Error(), "before hello") {
		t.Fatalf("want exited-before-hello error, got %v", err)
	}
}

// TestNegotiateSplitsBudget: Negotiate grants one lane per worker, capped
// at the pending job count, and splits the whole budget across the lanes
// with none floored to zero.
func TestNegotiateSplitsBudget(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	c, err := Start(Config{Workers: 4, spawn: inprocFleet(freshWorkers)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pending := []campaign.PlannedJob{
		{Job: campaign.Job{Target: "kv", Mode: core.ModeOptimized}, Fingerprint: "fp-kv"},
		{Job: campaign.Job{Target: "pbft", Mode: core.ModeOptimized}, Fingerprint: "fp-pbft"},
		{Job: campaign.Job{Target: "raft", Mode: core.ModeOptimized}, Fingerprint: "fp-raft"},
	}
	grants := c.Negotiate(8, pending)
	if len(grants) != 3 { // lanes capped at pending jobs
		t.Fatalf("want 3 lanes for 3 pending jobs, got %v", grants)
	}
	sum := 0
	for _, g := range grants {
		if g < 1 {
			t.Fatalf("zero-starved lane in %v", grants)
		}
		sum += g
	}
	if sum != 8 {
		t.Fatalf("grants %v sum to %d, want the full budget 8", grants, sum)
	}
}
