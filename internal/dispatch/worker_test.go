package dispatch

// Protocol-level Serve coverage: drive the worker side of the wire by hand
// and assert on the exact message traffic — the half of the contract a
// coordinator (this repo's or a reimplementation's) depends on.

import (
	"encoding/json"
	"errors"
	"io"
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

// handDrivenWorker runs Serve over pipes and hands back the coordinator-side
// wire plus Serve's eventual return value.
func handDrivenWorker(t *testing.T, cfg WorkerConfig) (*wire, io.Closer, <-chan error) {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer outW.Close()
		errc <- Serve(inR, outW, cfg)
	}()
	t.Cleanup(func() { inW.Close() })
	return newWire(outR, inW), inW, errc
}

func mustRead(t *testing.T, w *wire) message {
	t.Helper()
	m, err := w.read()
	if err != nil {
		t.Fatalf("reading from worker: %v", err)
	}
	return m
}

// TestServeProtocolExchange walks one full conversation: hello, a job
// assignment streaming back report/done and no cache traffic, a collect
// answered with the verdicts the job computed, a bad-mode assignment
// failing softly, and a clean shutdown.
func TestServeProtocolExchange(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	w, _, errc := handDrivenWorker(t, WorkerConfig{Solver: solver.Default()})

	if err := checkHello(mustRead(t, w)); err != nil {
		t.Fatal(err)
	}
	if err := w.write(message{Type: msgJob, ID: 7, Target: "kv", Mode: "optimized", Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	var reports int
	var done message
	for done.Type == "" {
		switch m := mustRead(t, w); m.Type {
		case msgReport:
			if m.ID != 7 || m.Report == nil {
				t.Fatalf("malformed report message: %+v", m)
			}
			reports++
		case msgDone:
			if m.ID != 7 {
				t.Fatalf("done for wrong assignment: %+v", m)
			}
			done = m
		case msgProgress:
			// Optional ticks; frequency is the engine's business.
		default:
			t.Fatalf("unexpected message type %q", m.Type)
		}
	}
	if done.Run == nil || done.Run.Error != "" {
		t.Fatalf("job failed on the worker: %+v", done.Run)
	}
	if done.Run.Classes != reports {
		t.Fatalf("manifest says %d classes, worker streamed %d reports", done.Run.Classes, reports)
	}

	// The verdicts stay on the worker until asked for.
	if err := w.write(message{Type: msgCollect, ID: 9}); err != nil {
		t.Fatal(err)
	}
	if m := mustRead(t, w); m.Type != msgCache || m.ID != 9 || len(m.Entries) == 0 {
		t.Fatalf("want a non-empty cache reply to collect 9, got %+v", m)
	}

	// An unknown mode must fail the assignment, not the worker.
	if err := w.write(message{Type: msgJob, ID: 8, Target: "kv", Mode: "no-such-mode"}); err != nil {
		t.Fatal(err)
	}
	m := mustRead(t, w)
	if m.Type != msgDone || m.ID != 8 || m.Run == nil || !strings.Contains(m.Run.Error, "bad mode") {
		t.Fatalf("want bad-mode done message, got %+v", m)
	}

	// Unknown downlink types are ignored for forward compatibility.
	if err := w.write(message{Type: "future-extension"}); err != nil {
		t.Fatal(err)
	}
	if err := w.write(message{Type: msgShutdown}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
}

// TestServeAnswersCollectMidJob: the reader goroutine answers collect, so
// a request sent while a job explores comes back before that job's done.
func TestServeAnswersCollectMidJob(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	w, _, errc := handDrivenWorker(t, WorkerConfig{Solver: solver.Default()})
	checkHello(mustRead(t, w))
	// Pipe writes return once the worker has read them, and the reader
	// hands a job over before it reads on: the collect arrives mid-job.
	w.write(message{Type: msgJob, ID: 1, Target: "fsp", Mode: "optimized", Parallelism: 1})
	w.write(message{Type: msgCollect, ID: 2})
	answered := false
	for {
		m := mustRead(t, w)
		if m.Type == msgCache && m.ID == 2 {
			answered = true
		}
		if m.Type == msgDone {
			if !answered {
				t.Fatal("collect waited behind the job in flight")
			}
			break
		}
	}
	w.write(message{Type: msgShutdown})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestServeCollectExcludesSeed: a collect reply carries only what the
// worker computed, never the coordinator's seed echoed back.
func TestServeCollectExcludesSeed(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	j := campaign.Job{Target: "kv", Mode: core.ModeOptimized}
	warm := solver.Default()
	campaign.ExecuteJob(t.Context(), j, 1, warm, core.Observer{})
	seed, err := warm.ExportCache()
	if err != nil || len(seed) == 0 {
		t.Fatalf("no seed to send: %d entries, %v", len(seed), err)
	}
	seeded := map[string]bool{}
	for _, e := range seed {
		seeded[e.Key] = true
	}

	w, _, errc := handDrivenWorker(t, WorkerConfig{Solver: solver.Default()})
	checkHello(mustRead(t, w))
	w.write(message{Type: msgCache, Entries: seed})
	// kv-fixed shares queries with kv and adds its own.
	w.write(message{Type: msgJob, ID: 1, Target: "kv-fixed", Mode: "optimized", Parallelism: 1})
	for m := mustRead(t, w); m.Type != msgDone; m = mustRead(t, w) {
	}
	w.write(message{Type: msgCollect, ID: 2})
	m := mustRead(t, w)
	if m.Type != msgCache || m.ID != 2 || len(m.Entries) == 0 {
		t.Fatalf("want a non-empty cache reply to collect 2, got %+v", m)
	}
	for _, e := range m.Entries {
		if seeded[e.Key] {
			t.Fatalf("collect reply echoed seeded verdict %q", e.Key)
		}
	}
	w.write(message{Type: msgShutdown})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestServeReportsMatchLocalRun: the report stream on the wire is the exact
// canonical stream the local engine produces — the per-job byte-level half
// of the distributed determinism argument.
func TestServeReportsMatchLocalRun(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	j := campaign.Job{Target: "kv", Mode: core.ModeOptimized}
	_, wantReports := campaign.ExecuteJob(t.Context(), j, 1, solver.Default(), core.Observer{})

	w, _, errc := handDrivenWorker(t, WorkerConfig{Solver: solver.Default()})
	if err := checkHello(mustRead(t, w)); err != nil {
		t.Fatal(err)
	}
	if err := w.write(message{Type: msgJob, ID: 1, Target: j.Target, Mode: j.Mode.String(), Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	var got []campaign.Report
	for {
		m := mustRead(t, w)
		if m.Type == msgDone {
			break
		}
		if m.Type == msgReport {
			got = append(got, *m.Report)
		}
	}
	if len(got) != len(wantReports) {
		t.Fatalf("wire carried %d reports, local run produced %d", len(got), len(wantReports))
	}
	for i := range got {
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(wantReports[i])
		if string(a) != string(b) {
			t.Fatalf("report %d drifted over the wire:\n%s\n%s", i, a, b)
		}
	}
	w.write(message{Type: msgShutdown})
	<-errc
}

// TestServeMalformedStream: a typeless message is a protocol error and
// Serve says so; EOF mid-stream is a normal coordinator hangup and is not.
func TestServeMalformedStream(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	w, _, errc := handDrivenWorker(t, WorkerConfig{Solver: solver.Default()})
	checkHello(mustRead(t, w))
	if err := w.write(message{}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "without a type") {
		t.Fatalf("want typeless-message error, got %v", err)
	}

	w2, closer, errc2 := handDrivenWorker(t, WorkerConfig{Solver: solver.Default()})
	checkHello(mustRead(t, w2))
	closer.Close()
	if err := <-errc2; err != nil {
		t.Fatalf("plain EOF must be a clean exit, got %v", err)
	}
}

// TestServeCrashHook: the fault-injection hook fires on exactly the
// configured job key and claims the sentinel exclusively — the second
// worker assigned the same job runs it to completion.
func TestServeCrashHook(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	sentinel := t.TempDir() + "/claimed"
	cfg := func() WorkerConfig {
		return WorkerConfig{
			Solver:    solver.Default(),
			CrashJob:  "kv/optimized",
			CrashOnce: sentinel,
			exit:      func(int) { runtime.Goexit() },
		}
	}

	w, _, errc := handDrivenWorker(t, cfg())
	checkHello(mustRead(t, w))
	// A non-matching job runs normally even with the hook armed.
	w.write(message{Type: msgJob, ID: 1, Target: "kv-fixed", Mode: "optimized", Parallelism: 1})
	for m := mustRead(t, w); m.Type != msgDone; m = mustRead(t, w) {
	}
	// The matching job kills the worker mid-protocol: no done, just EOF.
	w.write(message{Type: msgJob, ID: 2, Target: "kv", Mode: "optimized", Parallelism: 1})
	if _, err := w.read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF from crashed worker, got %v", err)
	}
	select {
	case <-errc:
		t.Fatal("Serve returned normally from a simulated crash")
	case <-time.After(50 * time.Millisecond):
	}

	// The sentinel is spent: a replacement worker runs the same job fine.
	w2, _, errc2 := handDrivenWorker(t, cfg())
	checkHello(mustRead(t, w2))
	w2.write(message{Type: msgJob, ID: 3, Target: "kv", Mode: "optimized", Parallelism: 1})
	var done message
	for done = mustRead(t, w2); done.Type != msgDone; done = mustRead(t, w2) {
	}
	if done.Run == nil || done.Run.Error != "" {
		t.Fatalf("requeued job failed on the second worker: %+v", done.Run)
	}
	w2.write(message{Type: msgShutdown})
	<-errc2
}
