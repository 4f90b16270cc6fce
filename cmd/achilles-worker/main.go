// Command achilles-worker is one worker of a distributed audit campaign: it
// speaks the internal/dispatch JSONL protocol on stdin/stdout and executes
// the jobs a coordinator (achilles-audit run -workers N) assigns to it.
//
// The binary is not meant to be invoked by hand — it greets with a version
// handshake and then waits for assignments, so a terminal session just sits
// silent. Its stderr passes through to the coordinator's for human eyes.
//
// Each worker owns a private solver whose verdict cache is seeded by the
// coordinator at spawn; the verdicts it computes itself stay in that cache
// until the coordinator collects them (achilles-audit does so only when
// -cache is set, to persist them). Because a job's class set is a
// deterministic function of its inputs, a fleet of these produces bundles
// ContentHash-identical to a single-process run.
//
// Fault-injection environment hooks (tests and the CI distributed-smoke job
// only): ACHILLES_WORKER_CRASH_JOB names a job key (target/mode) on whose
// assignment the worker dies abruptly mid-protocol; ACHILLES_WORKER_CRASH_ONCE
// points at a sentinel file claimed with O_EXCL so exactly one worker of the
// fleet crashes and the requeued job survives elsewhere.
package main

import (
	"fmt"
	"os"

	"achilles/internal/dispatch"
	_ "achilles/internal/protocols"
)

func main() {
	err := dispatch.Serve(os.Stdin, os.Stdout, dispatch.WorkerConfig{
		CrashJob:  os.Getenv("ACHILLES_WORKER_CRASH_JOB"),
		CrashOnce: os.Getenv("ACHILLES_WORKER_CRASH_ONCE"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "achilles-worker:", err)
		os.Exit(1)
	}
}
