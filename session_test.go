package achilles_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"achilles"
	"achilles/internal/testutil"
)

// sessionTarget is a target wide enough (2^8 accepting paths, each a Trojan
// class) that cancellation reliably lands mid-exploration.
func sessionTarget(t *testing.T) achilles.Target {
	t.Helper()
	server := achilles.MustCompile(`
var m [8]int;
var acc int;

func main() {
	recv(m);
	var i int = 0;
	acc = 0;
	while i < 8 {
		if m[i] > 0 { acc = acc + 1; }
		i = i + 1;
	}
	accept();
}`)
	client := achilles.MustCompile(`
var m [8]int;

func main() {
	var i int = 0;
	while i < 8 {
		var x int = input();
		assume(x >= 0);
		assume(x < 4);
		m[i] = x;
		i = i + 1;
	}
	send(m);
}`)
	return achilles.Target{
		Name:    "session-deep",
		Server:  server,
		Clients: []achilles.ClientProgram{{Name: "c", Unit: client}},
	}
}

// TestSessionStreamsEvents: a full session emits the three phases in order,
// streams every Trojan class before Wait returns, and ends with a closed
// event channel.
func TestSessionStreamsEvents(t *testing.T) {
	sess, err := achilles.Start(context.Background(), sessionTarget(t),
		achilles.WithParallelism(4),
		achilles.WithProgressInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	trojans, progress := 0, 0
	for ev := range sess.Events() {
		switch ev.Kind {
		case achilles.EventPhase:
			phases = append(phases, ev.Phase)
		case achilles.EventTrojan:
			trojans++
			if ev.Trojan == nil || ev.Trojan.Witness == nil {
				t.Fatal("trojan event without a report")
			}
		case achilles.EventProgress:
			progress++
		}
	}
	run, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{achilles.PhaseExtract, achilles.PhasePreprocess, achilles.PhaseServer}
	if len(phases) != 3 || phases[0] != want[0] || phases[1] != want[1] || phases[2] != want[2] {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	if trojans != len(run.Analysis.Trojans) {
		t.Fatalf("streamed %d trojan events, result has %d classes", trojans, len(run.Analysis.Trojans))
	}
	if progress == 0 {
		t.Fatal("no progress events")
	}
	if sess.Dropped() != 0 {
		t.Fatalf("%d events dropped from a drained stream", sess.Dropped())
	}
}

// TestSessionWaitWithoutEvents: never touching Events must not wedge the
// session.
func TestSessionWaitWithoutEvents(t *testing.T) {
	sess, err := achilles.Start(context.Background(), sessionTarget(t), achilles.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sess.Wait()
	if err != nil || len(run.Analysis.Trojans) == 0 {
		t.Fatalf("Wait = (%v trojans, %v)", run, err)
	}
}

// TestSessionCancelMidFrontier: cancelling a -j 8 session mid-server-phase
// makes Wait return context.Canceled with a partial, Truncated result, and
// leaks no goroutines.
func TestSessionCancelMidFrontier(t *testing.T) {
	tgt := sessionTarget(t)
	testutil.CheckGoroutineLeak(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sess, err := achilles.Start(ctx, tgt,
		achilles.WithParallelism(8),
		achilles.WithProgressInterval(time.Millisecond),
		// Cancel from the first server-phase progress callback: guaranteed
		// mid-frontier.
		achilles.WithObserver(achilles.Observer{
			OnProgress: func(achilles.Progress) { once.Do(cancel) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sess.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if run == nil {
		t.Fatal("no partial result from a server-phase cancellation")
	}
	if !run.Truncated() {
		t.Fatal("cancelled session result not marked Truncated")
	}
	// The events channel still closes and drains; the goroutine-leak guard
	// registered above verifies the teardown on cleanup.
	for range sess.Events() {
	}
}

// TestSessionDeadline: a context deadline behaves like Cancel and Wait
// reports context.DeadlineExceeded.
func TestSessionDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sess, err := achilles.Start(ctx, sessionTarget(t), achilles.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSessionFirstTrojan: the early-exit mode returns at least one class,
// marked Truncated, without an error, and faster paths than the full walk.
func TestSessionFirstTrojan(t *testing.T) {
	tgt := sessionTarget(t)
	ref, err := achilles.Start(context.Background(), tgt, achilles.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ref.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := achilles.Start(context.Background(), tgt,
		achilles.WithParallelism(4), achilles.WithFirstTrojan())
	if err != nil {
		t.Fatal(err)
	}
	run, err := sess.Wait()
	if err != nil {
		t.Fatalf("first-trojan Wait err = %v", err)
	}
	if len(run.Analysis.Trojans) == 0 {
		t.Fatal("first-trojan session found nothing")
	}
	if !run.Truncated() {
		t.Fatal("first-trojan result not marked Truncated")
	}
	if len(run.Analysis.Trojans) >= len(full.Analysis.Trojans) {
		t.Fatalf("first-trojan explored everything (%d vs %d classes)",
			len(run.Analysis.Trojans), len(full.Analysis.Trojans))
	}
}

// TestSessionMaxStates: WithMaxStates truncates the exploration without an
// error.
func TestSessionMaxStates(t *testing.T) {
	sess, err := achilles.Start(context.Background(), sessionTarget(t),
		achilles.WithParallelism(2), achilles.WithMaxStates(16))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !run.Truncated() {
		t.Fatal("MaxStates-capped run not marked Truncated")
	}
}

// TestSessionSolverCache: WithSolverCache persists verdicts that warm the
// next session.
func TestSessionSolverCache(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "verdicts.jsonl")
	tgt := sessionTarget(t)
	s1, err := achilles.Start(context.Background(), tgt,
		achilles.WithParallelism(2), achilles.WithSolverCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := achilles.Start(context.Background(), tgt,
		achilles.WithParallelism(2), achilles.WithSolverCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(warm.Analysis.Trojans), len(cold.Analysis.Trojans); got != want {
		t.Fatalf("warm session found %d classes, cold %d", got, want)
	}
	if warm.Analysis.SolverStats.CacheHits == 0 {
		t.Fatal("second session never hit the persisted cache")
	}
}

// TestStartValidation: structurally broken targets fail at Start, not Wait.
func TestStartValidation(t *testing.T) {
	if _, err := achilles.Start(context.Background(), achilles.Target{}); err == nil {
		t.Fatal("Start accepted a target without a server")
	}
	tgt := sessionTarget(t)
	tgt.Clients = nil
	if _, err := achilles.Start(context.Background(), tgt); err == nil {
		t.Fatal("Start accepted a target without clients")
	}
}

// TestSessionEventOverflowDrops: an undrained session never blocks and
// accounts for anything it had to discard.
func TestSessionEventOverflowDrops(t *testing.T) {
	var emitted atomic.Int64
	sess, err := achilles.Start(context.Background(), sessionTarget(t),
		achilles.WithParallelism(4),
		achilles.WithProgressInterval(time.Microsecond), // flood progress
		achilles.WithObserver(achilles.Observer{
			OnProgress: func(achilles.Progress) { emitted.Add(1) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	// Nothing read from Events: the channel holds at most its buffer; the
	// rest must be accounted as dropped, not deadlocked on.
	buffered := len(sess.Events())
	if int64(buffered)+sess.Dropped() < emitted.Load() {
		t.Fatalf("event accounting: %d buffered + %d dropped < %d emitted",
			buffered, sess.Dropped(), emitted.Load())
	}
}

// TestSessionSlowConsumerNeverBlocks: the documented contract of Events is
// that a consumer slower than the analysis observes the drop counter — the
// producer is never blocked waiting for it. With the channel shrunk to a
// handful of slots and the consumer gated until Wait has returned, drops are
// guaranteed (the session emits 3 phases + 256 trojans + progress), so this
// is deterministic: if the producer ever blocked on the full channel, Wait
// would deadlock and the test would time out instead of passing.
func TestSessionSlowConsumerNeverBlocks(t *testing.T) {
	t.Cleanup(achilles.SetEventBufferForTest(8))
	testutil.CheckGoroutineLeak(t)

	sess, err := achilles.Start(context.Background(), sessionTarget(t),
		achilles.WithParallelism(4),
		achilles.WithProgressInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// The slowest possible consumer: one that does not read at all until the
	// whole analysis is over.
	run, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Analysis.Trojans) == 0 {
		t.Fatal("analysis found nothing; the overflow premise is gone")
	}

	// Now drain. The channel must already be closed (Wait returned), hold at
	// most its capacity, and the overflow must be visible in Dropped.
	received := 0
	for range sess.Events() {
		received++
	}
	if received > 8 {
		t.Fatalf("drained %d events from a channel with capacity 8", received)
	}
	if sess.Dropped() == 0 {
		t.Fatal("slow consumer observed no drops despite a flooded 8-slot buffer")
	}
	// The accounting adds up: everything emitted was either received or
	// counted as dropped. Wait's result itself is complete regardless — 256
	// classes, none lost to the event stream.
	if got := len(run.Analysis.Trojans); got != 256 {
		t.Fatalf("dropped events corrupted the result: %d classes, want 256", got)
	}
}
