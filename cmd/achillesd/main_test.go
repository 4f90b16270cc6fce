package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// reexec re-runs the test binary as achillesd with the given argument
// string; the child branch in each test dispatches on ACHILLESD_ARGS.
func reexec(t *testing.T, testName, args string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", testName)
	cmd.Env = append(os.Environ(), "ACHILLESD_ARGS="+args)
	cmd.Env = append(cmd.Env, extraEnv...)
	return cmd
}

// TestUsageErrorsExit2 re-executes the test binary as achillesd with
// malformed flags and asserts the usage-error exit code 2 — distinct from 0
// (clean drain), 1 (serve failure) and 3 (incomplete drain), which is what
// lets init systems tell a misconfiguration from a crash.
func TestUsageErrorsExit2(t *testing.T) {
	if args := os.Getenv("ACHILLESD_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, " "), os.Stdout, os.Stderr))
	}
	// An occupied port for the address-in-use case.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cases := map[string]string{
		"unknown-flag":      "-no-such-flag",
		"bad-j":             "-j 0",
		"bad-quota":         "-quota 0",
		"bad-drain-timeout": "-drain-timeout -1s",
		"empty-store":       "-store=",
		"addr-in-use":       "-addr " + ln.Addr().String() + " -store " + t.TempDir(),
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			out, err := reexec(t, "TestUsageErrorsExit2", args).CombinedOutput()
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

// TestSigtermDrainsAndExits0: a real achillesd process with a job in flight
// AND a live SSE stream attached exits 0 on SIGTERM after draining — the
// session is cancelled, the interrupted bundle persisted, the open event
// stream ends with its terminal done event, and the "drained cleanly" line
// printed. The open stream is the hard part: the drain must cancel jobs
// before the HTTP shutdown's idle-wait, or the live SSE connection burns
// the whole -drain-timeout and the process exits 3 instead. This is the
// contract the CI smoke job and any process supervisor rely on.
func TestSigtermDrainsAndExits0(t *testing.T) {
	if args := os.Getenv("ACHILLESD_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, " "), os.Stdout, os.Stderr))
	}
	store := filepath.Join(t.TempDir(), "store")
	cmd := reexec(t, "TestSigtermDrainsAndExits0", "-addr 127.0.0.1:0 -j 2 -store "+store)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon announces its resolved listen address on stdout; everything
	// after that is the drain narrative.
	sc := bufio.NewScanner(stdout)
	addr := ""
	var tail strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "achillesd: listening on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		t.Fatal("daemon never announced its listen address")
	}
	// Wait closes the stdout pipe, so it may only run once the narrative has
	// been read to EOF; tailDone orders the two.
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		for sc.Scan() {
			tail.WriteString(sc.Text() + "\n")
		}
	}()

	base := "http://" + addr
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", hr.Status)
	}
	// Put a real audit in flight so the drain has something to cancel.
	jr, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"targets":["kv"],"parallelism":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.NewDecoder(jr.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", jr.Status)
	}
	// Attach a live event stream and keep it open across the SIGTERM: the
	// drain must end it with a done event, not hang on it until the timeout.
	es, err := http.Get(base + js.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	if es.StatusCode != http.StatusOK {
		t.Fatalf("events: %s", es.Status)
	}
	stream := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(es.Body)
		es.Body.Close()
		stream <- string(b)
	}()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		<-tailDone
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM drain exited non-zero: %v\noutput:\n%s", err, tail.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not exit within 60s of SIGTERM\noutput:\n%s", tail.String())
	}
	if !strings.Contains(tail.String(), "drained cleanly") {
		t.Errorf("drain narrative missing 'drained cleanly':\n%s", tail.String())
	}
	select {
	case body := <-stream:
		if !strings.Contains(body, "event: done") {
			t.Errorf("live event stream ended without a done event:\n%s", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live event stream still open after the daemon exited")
	}
	// The drained job's bundle — finished or interrupted, depending on where
	// the TERM landed — made it to the store.
	entries, err := os.ReadDir(store)
	if err != nil || len(entries) == 0 {
		t.Fatalf("store after drain: entries=%v err=%v", entries, err)
	}
}

// TestHelpMentionsFlags: -h prints the flag set (and exits 2 via
// flag.ErrHelp handling in ContinueOnError mode — also covered above, but
// this pins the usage text actually listing the knobs).
func TestHelpMentionsFlags(t *testing.T) {
	if args := os.Getenv("ACHILLESD_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, " "), os.Stdout, os.Stderr))
	}
	out, err := reexec(t, "TestHelpMentionsFlags", "-h").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-h: want exit 2, got %v", err)
	}
	for _, flag := range []string{"-addr", "-j", "-quota", "-store", "-drain-timeout"} {
		if !strings.Contains(string(out), flag) {
			t.Errorf("usage text missing %s:\n%s", flag, out)
		}
	}
}
