package dispatch

// Coordinator coverage: the distributed determinism invariant (bundles hash
// identically to the in-process engine at every worker count), the hello
// handshake's fail-fast on version skew, crash requeue up to a fully dead
// fleet, cancellation, and leak-free teardown.
// The fleet runs in-process over pipes here — the subprocess plumbing is
// covered by cmd/achilles-audit's re-exec tests.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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
