package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/dispatch"
)

// TestMain lets the test binary stand in for two executables: achilles-audit
// itself (ACHILLES_AUDIT_CLI holds the full argv, subcommand included) and
// achilles-worker (ACHILLES_WORKER_REEXEC=1, set by the shell shim handed to
// -worker-bin) — so the distributed tests below drive real coordinator →
// subprocess traffic without a separate build step. The older
// ACHILLES_AUDIT_ARGS hook (cmdRun flags only, dispatched inside
// TestUsageErrorsExit2) is untouched.
func TestMain(m *testing.M) {
	switch {
	case os.Getenv("ACHILLES_WORKER_REEXEC") == "1":
		// Checked first: workers spawned by a re-exec'd audit run inherit
		// the parent's ACHILLES_AUDIT_CLI too.
		if err := dispatch.Serve(os.Stdin, os.Stdout, dispatch.WorkerConfig{
			CrashJob:  os.Getenv("ACHILLES_WORKER_CRASH_JOB"),
			CrashOnce: os.Getenv("ACHILLES_WORKER_CRASH_ONCE"),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "achilles-worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case os.Getenv("ACHILLES_AUDIT_CLI") != "":
		os.Args = append([]string{"achilles-audit"}, strings.Split(os.Getenv("ACHILLES_AUDIT_CLI"), " ")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reexecAudit re-runs the test binary as the full achilles-audit CLI.
func reexecAudit(t *testing.T, args string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ACHILLES_AUDIT_CLI="+args)
	cmd.Env = append(cmd.Env, extraEnv...)
	return cmd
}

// workerShim writes an executable that re-enters this test binary in worker
// mode — what -worker-bin gets instead of a separately built
// cmd/achilles-worker.
func workerShim(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "achilles-worker")
	script := "#!/bin/sh\nexport ACHILLES_WORKER_REEXEC=1\nexec " + os.Args[0] + "\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// bundleHash runs `achilles-audit hash DIR` and returns the printed digest.
func bundleHash(t *testing.T, dir string) string {
	t.Helper()
	out, err := reexecAudit(t, "hash "+dir).Output()
	if err != nil {
		t.Fatalf("hash %s: %v", dir, err)
	}
	return strings.TrimSpace(string(out))
}

// TestDistributedRunMatchesSingleProcess: `run -workers 2` over real worker
// subprocesses produces a bundle whose content hash equals the in-process
// run's — the CLI-level form of the distributed determinism invariant.
func TestDistributedRunMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real audit subprocesses")
	}
	root := t.TempDir()
	single, distributed := filepath.Join(root, "single"), filepath.Join(root, "fleet")

	if out, err := reexecAudit(t, "run -targets kv,kv-fixed -j 2 -out "+single).CombinedOutput(); err != nil {
		t.Fatalf("single-process run: %v\n%s", err, out)
	}
	out, err := reexecAudit(t, "run -targets kv,kv-fixed -j 2 -workers 2 -worker-bin "+workerShim(t)+" -out "+distributed).CombinedOutput()
	if err != nil {
		t.Fatalf("distributed run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "distributed: 2 worker(s)") {
		t.Fatalf("run never announced its fleet:\n%s", out)
	}
	if h1, h2 := bundleHash(t, single), bundleHash(t, distributed); h1 != h2 {
		t.Fatalf("distributed bundle drifted: %s != %s", h2, h1)
	}
}

// TestDistributedRunSurvivesWorkerKill: with the crash hook killing one
// worker mid-job, the run still exits 0 and converges to the single-process
// content hash — the requeue path over real processes.
func TestDistributedRunSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real audit subprocesses")
	}
	root := t.TempDir()
	single, distributed := filepath.Join(root, "single"), filepath.Join(root, "fleet")
	sentinel := filepath.Join(root, "crash-once")

	if out, err := reexecAudit(t, "run -targets kv,kv-fixed,paxos -j 2 -out "+single).CombinedOutput(); err != nil {
		t.Fatalf("single-process run: %v\n%s", err, out)
	}
	out, err := reexecAudit(t,
		"run -targets kv,kv-fixed,paxos -j 2 -workers 2 -worker-bin "+workerShim(t)+" -out "+distributed,
		"ACHILLES_WORKER_CRASH_JOB=kv/optimized",
		"ACHILLES_WORKER_CRASH_ONCE="+sentinel,
	).CombinedOutput()
	if err != nil {
		t.Fatalf("distributed run with worker kill: %v\n%s", err, out)
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("crash sentinel missing — no worker was actually killed: %v", err)
	}
	if h1, h2 := bundleHash(t, single), bundleHash(t, distributed); h1 != h2 {
		t.Fatalf("post-kill bundle drifted: %s != %s", h2, h1)
	}
}

// TestLsShowsContentHashAndInterrupted: the listing carries each bundle's
// short content hash and flags interrupted bundles.
func TestLsShowsContentHashAndInterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real audit subprocesses")
	}
	root := t.TempDir()
	clean := filepath.Join(root, "clean")
	if out, err := reexecAudit(t, "run -targets kv -j 1 -out "+clean).CombinedOutput(); err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}

	// An interrupted bundle, fabricated deterministically: a campaign under
	// an already-cancelled context writes interrupted entries.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := campaign.RunCtx(ctx, campaign.Options{Targets: []string{"kv"}, Jobs: 1})
	if !b.Manifest.Interrupted {
		t.Fatal("fabricated bundle not interrupted")
	}
	if err := b.Write(filepath.Join(root, "cut-short")); err != nil {
		t.Fatal(err)
	}

	out, err := reexecAudit(t, "ls "+root).Output()
	if err != nil {
		t.Fatalf("ls: %v", err)
	}
	listing := string(out)
	short := bundleHash(t, clean)[:12]
	if !strings.Contains(listing, short) {
		t.Fatalf("ls output lacks the clean bundle's short hash %s:\n%s", short, listing)
	}
	var cleanLine, cutLine string
	for _, line := range strings.Split(listing, "\n") {
		if strings.Contains(line, "clean") {
			cleanLine = line
		}
		if strings.Contains(line, "cut-short") {
			cutLine = line
		}
	}
	if cleanLine == "" || cutLine == "" {
		t.Fatalf("ls listed neither bundle:\n%s", listing)
	}
	if strings.Contains(cleanLine, "interrupted") {
		t.Fatalf("clean bundle flagged interrupted:\n%s", cleanLine)
	}
	if !strings.Contains(cutLine, "interrupted") {
		t.Fatalf("interrupted bundle not flagged:\n%s", cutLine)
	}
}

// TestWorkersFlagValidation: -workers rejects negatives with the usage exit
// code, and a missing worker binary is a clean error, not a hung fleet.
func TestWorkersFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real audit subprocesses")
	}
	out, err := reexecAudit(t, "run -workers -1").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-workers -1: want exit 2, got %v\n%s", err, out)
	}
	out, err = reexecAudit(t, "run -targets kv -workers 1 -worker-bin /no/such/binary -out "+filepath.Join(t.TempDir(), "x")).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("bad -worker-bin: want exit 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "-worker-bin") {
		t.Fatalf("error does not mention -worker-bin:\n%s", out)
	}
}

func TestParseTargetsDropsEmptyTokens(t *testing.T) {
	got, err := parseTargets("fsp,,kv")
	if err != nil || !slices.Equal(got, []string{"fsp", "kv"}) {
		t.Errorf("parseTargets(\"fsp,,kv\") = %v, %v", got, err)
	}
	got, err = parseTargets(" fsp , kv, ")
	if err != nil || !slices.Equal(got, []string{"fsp", "kv"}) {
		t.Errorf("parseTargets with spaces/trailing comma = %v, %v", got, err)
	}
	for _, all := range []string{"", "all"} {
		if got, err := parseTargets(all); got != nil || err != nil {
			t.Errorf("parseTargets(%q) = %v, %v, want nil, nil", all, got, err)
		}
	}
	for _, bad := range []string{",", ",,", " , "} {
		if _, err := parseTargets(bad); err == nil {
			t.Errorf("parseTargets(%q) accepted a token-free value", bad)
		}
	}
}

func TestParseModesDropsEmptyTokens(t *testing.T) {
	got, err := parseModes("optimized,,a-posteriori,")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Mode{core.ModeOptimized, core.ModeAPosteriori}
	if !slices.Equal(got, want) {
		t.Errorf("parseModes = %v, want %v", got, want)
	}
	// An empty token must NOT silently select the default mode (ParseMode
	// maps "" to optimized — the bug this guards against).
	for _, bad := range []string{",", "", " "} {
		if _, err := parseModes(bad); err == nil {
			t.Errorf("parseModes(%q) accepted a token-free value", bad)
		}
	}
	if _, err := parseModes("optimized,nope"); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestUsageErrorsExit2 re-executes the test binary as achilles-audit with
// malformed flags and asserts the process exits with the usage-error code 2
// (and not 1, the "audit found problems" code CI must distinguish it from).
func TestUsageErrorsExit2(t *testing.T) {
	if args := os.Getenv("ACHILLES_AUDIT_ARGS"); args != "" {
		cmdRun(strings.Split(args, " "))
		return
	}
	cases := map[string]string{
		"empty-targets":  "-targets ,",
		"empty-modes":    "-modes ,",
		"unknown-target": "-targets no-such-proto",
		"bad-j":          "-j 0",
		"bad-baseline":   "-baseline /no/such/bundle",
	}
	for name, args := range cases {
		name, args := name, args
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestUsageErrorsExit2")
			cmd.Env = append(os.Environ(), "ACHILLES_AUDIT_ARGS="+args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v\noutput:\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("exit code %d, want 2\noutput:\n%s", code, out)
			}
		})
	}
}

// TestClobberRefusedBeforeAuditing: an occupied -out without -force is
// refused up front (exit 1, with the -force hint) — not after minutes of
// fleet auditing whose results would then be discarded.
func TestClobberRefusedBeforeAuditing(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestUsageErrorsExit2")
	cmd.Env = append(os.Environ(), "ACHILLES_AUDIT_ARGS=-out "+dir)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-force") {
		t.Errorf("refusal lacks the -force hint:\n%s", out)
	}
	// The pre-flight must fire before any analysis: a fleet audit takes
	// seconds even on fast hardware, the refusal must not.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("clobber refusal took %v — it ran the audit first", d)
	}
}

func TestClaimRunDirCollisionProof(t *testing.T) {
	root := t.TempDir()
	seen := map[string]bool{}
	// Three claims within the same second must yield three distinct, empty,
	// existing directories (run-<ts>, run-<ts>.2, run-<ts>.3).
	for i := 0; i < 3; i++ {
		dir, err := claimRunDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if seen[dir] {
			t.Fatalf("claimRunDir returned %s twice", dir)
		}
		seen[dir] = true
		st, err := os.Stat(dir)
		if err != nil || !st.IsDir() {
			t.Fatalf("claimed dir %s not created: %v", dir, err)
		}
		if filepath.Dir(dir) != root {
			t.Errorf("claimed dir %s escaped root %s", dir, root)
		}
	}
}

// TestTimeoutExitsThreeWithPartialBundle: a campaign cut off by -timeout
// exits with the distinct code 3 and still leaves a readable, interrupted-
// marked bundle behind; that bundle is then refused as a -baseline (zero
// cached jobs) by a follow-up run.
func TestTimeoutExitsThreeWithPartialBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "partial")
	cmd := exec.Command(os.Args[0], "-test.run", "TestUsageErrorsExit2")
	cmd.Env = append(os.Environ(), "ACHILLES_AUDIT_ARGS=-out "+dir+" -timeout 1ms -j 2")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("want exit 3, got %v\noutput:\n%s", err, out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("interrupted run left no manifest: %v", err)
	}
	if !strings.Contains(string(raw), `"interrupted": true`) {
		t.Fatalf("manifest not marked interrupted:\n%s", raw)
	}

	after := filepath.Join(t.TempDir(), "after")
	cmd = exec.Command(os.Args[0], "-test.run", "TestUsageErrorsExit2")
	cmd.Env = append(os.Environ(),
		"ACHILLES_AUDIT_ARGS=-targets kv -out "+after+" -baseline "+dir+" -j 2")
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("follow-up run failed: %v\noutput:\n%s", err, out)
	}
	if strings.Contains(string(out), "(cached)") {
		t.Fatalf("job reused from an interrupted baseline:\n%s", out)
	}
}

// TestGoldenGateRefusesInterruptedBundle: -golden on an interrupted
// campaign exits 3 (interrupted wins) and names the refusal — it must not
// certify the corpus of a run that did not finish.
func TestGoldenGateRefusesInterruptedBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "partial")
	cmd := exec.Command(os.Args[0], "-test.run", "TestUsageErrorsExit2")
	cmd.Env = append(os.Environ(),
		"ACHILLES_AUDIT_ARGS=-out "+dir+" -timeout 1ms -j 2 -golden ../../internal/protocols/testdata")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("want exit 3, got %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(string(out), "interrupted bundle cannot be gated") {
		t.Fatalf("golden gate did not refuse the interrupted bundle:\n%s", out)
	}
}
