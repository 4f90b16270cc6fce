// Black-box end-to-end suite for the achillesd serving layer: every test
// drives a real HTTP server (httptest over serve.Handler) with real registry
// targets or injected synthetic catalogs, consumes the SSE streams like an
// external client would, and asserts on the wire artifacts — never on
// package internals. The core property under test is that putting the
// pipeline behind a daemon changes nothing about its results: a bundle
// fetched over HTTP is byte-identical to what `achilles-audit run` writes
// for the same targets.
package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/lang"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/registry"
	"achilles/internal/serve"
	"achilles/internal/solver"
	"achilles/internal/testutil"
)

// daemon spins up a complete achillesd instance for one test: the serving
// layer mounted in an httptest server, drained and torn down on cleanup.
func daemon(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = filepath.Join(t.TempDir(), "store")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

// deepLookup is a synthetic single-target catalog: 2^12 accepting paths, each
// its own Trojan class, progress ticking every millisecond — wide and chatty
// enough that cancellation reliably lands mid-frontier and event streams
// carry real traffic. Injected via Config.Lookup so the HTTP surface stays
// black-box.
func deepLookup(name string) (registry.Descriptor, bool) {
	if name != "deep" {
		return registry.Descriptor{}, false
	}
	server := lang.MustCompile(`
var m [12]int;
var acc int;

func main() {
	recv(m);
	var i int = 0;
	acc = 0;
	while i < 12 {
		if m[i] > 0 { acc = acc + 1; }
		i = i + 1;
	}
	accept();
}`)
	client := lang.MustCompile(`
var m [12]int;

func main() {
	var i int = 0;
	while i < 12 {
		var x int = input();
		assume(x >= 0);
		assume(x < 4);
		m[i] = x;
		i = i + 1;
	}
	send(m);
}`)
	return registry.Descriptor{
		Name: "deep",
		Target: func() core.Target {
			return core.Target{
				Name:    "deep",
				Server:  server,
				Clients: []core.ClientProgram{{Name: "c", Unit: client}},
			}
		},
		Analysis: core.AnalysisOptions{ProgressInterval: time.Millisecond},
	}, true
}

// postJob submits a request body and returns the raw response.
func postJob(t *testing.T, ts *httptest.Server, body string, client string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Achilles-Client", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// submit posts a job and decodes the 202 status.
func submit(t *testing.T, ts *httptest.Server, body, client string) serve.JobStatus {
	t.Helper()
	resp := postJob(t, ts, body, client)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var js serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	if js.ID == "" || js.EventsURL == "" {
		t.Fatalf("submit returned incomplete status: %+v", js)
	}
	return js
}

// sse is one decoded server-sent event.
type sse struct {
	Name string
	Data json.RawMessage
}

// streamEvents connects to a job's event stream and forwards every event;
// the channel closes when the stream ends (after the done event) or errs.
// onOpen, when non-nil, runs once the subscription is live (response headers
// received) — the hook cancel tests use to order "subscribed" before "act".
func streamEvents(t *testing.T, ts *httptest.Server, eventsURL string, onOpen func()) <-chan sse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + eventsURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	if onOpen != nil {
		onOpen()
	}
	out := make(chan sse, 4096)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var cur sse
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.Name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
			case line == "" && cur.Name != "":
				out <- cur
				cur = sse{}
			}
		}
	}()
	return out
}

// collectUntilDone drains an event stream to its terminal done event and
// returns everything seen, failing the test on timeout.
func collectUntilDone(t *testing.T, events <-chan sse, timeout time.Duration) []sse {
	t.Helper()
	var all []sse
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event stream ended without a done event (saw %d events)", len(all))
			}
			all = append(all, ev)
			if ev.Name == "done" {
				return all
			}
		case <-deadline:
			t.Fatalf("no done event within %v (saw %d events)", timeout, len(all))
		}
	}
}

// terminalStatus decodes the JobStatus payload of the final done event.
func terminalStatus(t *testing.T, all []sse) serve.JobStatus {
	t.Helper()
	last := all[len(all)-1]
	if last.Name != "done" {
		t.Fatalf("last event is %q, not done", last.Name)
	}
	var js serve.JobStatus
	if err := json.Unmarshal(last.Data, &js); err != nil {
		t.Fatal(err)
	}
	return js
}

// getJSON fetches a URL and decodes the JSON body into v, returning the
// status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestE2EAuditMatchesCLIBundle is the heart of the suite: a daemon audit of
// real registry targets, followed end to end over SSE, must persist a bundle
// whose report streams are byte-identical to the files achilles-audit run
// writes for the same targets — the determinism invariant, extended to the
// wire.
func TestE2EAuditMatchesCLIBundle(t *testing.T) {
	_, ts := daemon(t, serve.Config{})
	js := submit(t, ts, `{"targets":["kv","kv-fixed"],"parallelism":8}`, "e2e")

	all := collectUntilDone(t, streamEvents(t, ts, js.EventsURL, nil), 60*time.Second)
	final := terminalStatus(t, all)
	if final.State != "done" || final.Error != "" {
		t.Fatalf("terminal status = %+v", final)
	}
	if final.Bundle == "" {
		t.Fatal("finished job has no bundle hash")
	}
	if final.Classes != 1 {
		t.Fatalf("kv+kv-fixed audit found %d classes, want 1 (the seeded kv Trojan)", final.Classes)
	}

	// The stream must have carried the discovery itself: exactly one trojan
	// event, tagged with the kv unit, with a canonical class line.
	var trojans []map[string]any
	phases := 0
	for _, ev := range all {
		switch ev.Name {
		case "trojan":
			var p map[string]any
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatal(err)
			}
			trojans = append(trojans, p)
		case "phase":
			phases++
		}
	}
	if len(trojans) != 1 {
		t.Fatalf("streamed %d trojan events, want 1", len(trojans))
	}
	if unit := trojans[0]["unit"]; unit != "kv/optimized" {
		t.Fatalf("trojan event unit = %v, want kv/optimized", unit)
	}
	if cls, _ := trojans[0]["class"].(string); cls == "" {
		t.Fatal("trojan event has no class line")
	}
	// 2 units × 3 pipeline phases each.
	if phases != 6 {
		t.Fatalf("streamed %d phase events, want 6", phases)
	}

	// Reference: the exact campaign-engine path achilles-audit run takes.
	cliDir := filepath.Join(t.TempDir(), "cli-bundle")
	cliBundle, err := campaign.RunCtx(context.Background(), campaign.Options{
		Targets: []string{"kv", "kv-fixed"},
		Modes:   []core.Mode{core.ModeOptimized},
		Jobs:    8,
		Solver:  solver.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cliBundle.Write(cliDir); err != nil {
		t.Fatal(err)
	}

	// Byte-identity, report stream by report stream. (The manifests agree on
	// content but not bytes — they carry wall-clock times and solver
	// counters — which is exactly why the content hash excludes them.)
	var manifest campaign.Manifest
	if code := getJSON(t, ts, "/v1/bundles/"+final.Bundle, &manifest); code != http.StatusOK {
		t.Fatalf("fetch manifest: HTTP %d", code)
	}
	if len(manifest.Runs) != 2 || manifest.Interrupted {
		t.Fatalf("daemon manifest: %+v", manifest)
	}
	for _, rm := range manifest.Runs {
		if rm.Error != "" {
			t.Fatalf("unit %s failed: %s", rm.Key(), rm.Error)
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/bundles/" + final.Bundle + "/files/" + rm.ReportFile)
		if err != nil {
			t.Fatal(err)
		}
		wire, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch %s: %s", rm.ReportFile, resp.Status)
		}
		disk, err := os.ReadFile(filepath.Join(cliDir, rm.ReportFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, disk) {
			t.Fatalf("report stream %s differs between daemon and achilles-audit:\ndaemon: %q\ncli:    %q",
				rm.ReportFile, wire, disk)
		}
	}

	// And the daemon's own fingerprints line up with the CLI manifest's.
	cliFP := map[string]string{}
	for _, rm := range cliBundle.Manifest.Runs {
		cliFP[rm.Key()] = rm.InputFingerprint
	}
	for _, rm := range manifest.Runs {
		if rm.InputFingerprint != cliFP[rm.Key()] {
			t.Fatalf("unit %s: daemon fingerprint %s != cli %s", rm.Key(), rm.InputFingerprint, cliFP[rm.Key()])
		}
	}

	// The store address is the CLI bundle's content hash.
	if want, err := cliBundle.ContentHash(); err != nil || final.Bundle != want {
		t.Fatalf("daemon bundle hash %s, cli bundle hashes to %s (%v)", final.Bundle, want, err)
	}
}

// TestE2EMultiTargetJobMatchesCampaign: a multi-target, multi-mode job runs
// its units on cross-target lanes and still stores the bundle
// campaign.RunCtx assembles for the same targets, modes and -j. Every unit
// streams its three pipeline phases, and every trojan event carries the
// unit that produced it even though the lanes interleave.
func TestE2EMultiTargetJobMatchesCampaign(t *testing.T) {
	_, ts := daemon(t, serve.Config{})
	modes := []core.Mode{core.ModeOptimized, core.ModeAPosteriori}
	for _, par := range []int{1, 2} {
		body := fmt.Sprintf(`{"targets":["kv","kv-fixed","paxos"],"modes":["optimized","a-posteriori"],"parallelism":%d}`, par)
		js := submit(t, ts, body, "lanes")
		all := collectUntilDone(t, streamEvents(t, ts, js.EventsURL, nil), 60*time.Second)
		final := terminalStatus(t, all)
		if final.State != "done" || final.Parallelism != par {
			t.Fatalf("-j %d: terminal status = %+v", par, final)
		}

		ref, err := campaign.RunCtx(context.Background(), campaign.Options{
			Targets: []string{"kv", "kv-fixed", "paxos"},
			Modes:   modes,
			Jobs:    par,
			Solver:  solver.Default(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if want, err := ref.ContentHash(); err != nil || final.Bundle != want {
			t.Fatalf("-j %d: daemon bundle hash %s, campaign.RunCtx hashes to %s (%v)", par, final.Bundle, want, err)
		}

		phases := map[string]int{}
		streamed := map[string][]string{}
		for _, ev := range all {
			var p struct{ Unit, Class string }
			if ev.Name != "phase" && ev.Name != "trojan" {
				continue
			}
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatal(err)
			}
			if ev.Name == "phase" {
				phases[p.Unit]++
			} else {
				streamed[p.Unit] = append(streamed[p.Unit], p.Class)
			}
		}
		for _, rm := range ref.Manifest.Runs {
			if phases[rm.Key()] != 3 {
				t.Errorf("-j %d: unit %s streamed %d phase events, want 3", par, rm.Key(), phases[rm.Key()])
			}
			want, _ := ref.ClassLines(rm.Key())
			got := streamed[rm.Key()]
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("-j %d: unit %s streamed trojans %q, its report stream holds %q", par, rm.Key(), got, want)
			}
			delete(phases, rm.Key())
			delete(streamed, rm.Key())
		}
		if len(phases) != 0 || len(streamed) != 0 {
			t.Errorf("-j %d: events tagged with units outside the plan: phases %v, trojans %v", par, phases, streamed)
		}
	}
}

// metric scrapes one sample from /metrics.
func metric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("metrics lack %s:\n%s", name, body)
	return 0
}

// TestE2ECancelWhileQueued: a job cancelled before it leaves the admission
// queue still persists a complete, Interrupted bundle: every planned unit
// is listed with an "interrupted:" error and its input fingerprint, and no
// unit has a report stream. Units that never started are not counted as
// cancelled sessions.
func TestE2ECancelWhileQueued(t *testing.T) {
	_, ts := daemon(t, serve.Config{Lookup: deepLookup, Workers: 1})

	// The running job holds the whole one-worker budget.
	running := submit(t, ts, `{"targets":["deep"]}`, "ahead")
	runEvents := streamEvents(t, ts, running.EventsURL, nil)
	for ev := range runEvents {
		if ev.Name == "progress" {
			break
		}
		if ev.Name == "done" {
			t.Fatal("the running job finished before the queued one was submitted")
		}
	}

	queued := submit(t, ts, `{"targets":["deep"],"modes":["optimized","no-differentfrom","a-posteriori"]}`, "behind")
	if queued.State != "queued" {
		t.Fatalf("second job on a full budget is %s, want queued", queued.State)
	}
	cr, err := ts.Client().Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	all := collectUntilDone(t, streamEvents(t, ts, queued.EventsURL, nil), 30*time.Second)
	for _, ev := range all {
		if ev.Name == "phase" || ev.Name == "trojan" || strings.Contains(string(ev.Data), `"state":"running"`) {
			t.Fatalf("a job cancelled while queued ran: %s %s", ev.Name, ev.Data)
		}
	}
	final := terminalStatus(t, all)
	if final.State != "cancelled" || final.Bundle == "" || final.Classes != 0 {
		t.Fatalf("terminal status = %+v", final)
	}

	var manifest campaign.Manifest
	if code := getJSON(t, ts, "/v1/bundles/"+final.Bundle, &manifest); code != http.StatusOK {
		t.Fatalf("fetch manifest: HTTP %d", code)
	}
	if !manifest.Interrupted || len(manifest.Runs) != 3 {
		t.Fatalf("queued-cancel manifest: interrupted=%v, %d runs", manifest.Interrupted, len(manifest.Runs))
	}
	d, _ := deepLookup("deep")
	for _, rm := range manifest.Runs {
		mode, err := core.ParseMode(rm.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(rm.Error, "interrupted: ") || rm.Classes != 0 {
			t.Errorf("unit %s: error %q, %d classes; want interrupted with none", rm.Key(), rm.Error, rm.Classes)
		}
		if want := d.InputFingerprint(mode, campaign.Version); rm.InputFingerprint != want {
			t.Errorf("unit %s: fingerprint %q, want %q", rm.Key(), rm.InputFingerprint, want)
		}
		if code := getJSON(t, ts, "/v1/bundles/"+final.Bundle+"/files/"+rm.ReportFile, nil); code != http.StatusNotFound {
			t.Errorf("unit %s: report stream served with HTTP %d, want 404", rm.Key(), code)
		}
	}
	if n := metric(t, ts, "achillesd_sessions_cancelled_total"); n != 0 {
		t.Fatalf("units that never started counted as %d cancelled sessions", n)
	}

	// The running job's unit did start: cancelling it counts one session.
	cr, err = ts.Client().Post(ts.URL+"/v1/jobs/"+running.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	ahead := terminalStatus(t, collectUntilDone(t, runEvents, 30*time.Second))
	want := int64(0)
	if ahead.State == "cancelled" {
		want = 1
	}
	if n := metric(t, ts, "achillesd_sessions_cancelled_total"); n != want {
		t.Fatalf("job ended %s; sessions cancelled = %d, want %d", ahead.State, n, want)
	}
}

// TestE2ERequestBudgets: max_states and first_trojan reach the analysis. A
// 50-state budget on the 4,096-class deep target stores 50 classes, and the
// first-trojan triage stores one; both units are flagged truncated.
func TestE2ERequestBudgets(t *testing.T) {
	_, ts := daemon(t, serve.Config{Lookup: deepLookup})
	for _, tc := range []struct {
		body    string
		classes int
	}{
		{`{"targets":["deep"],"max_states":50}`, 50},
		{`{"targets":["deep"],"first_trojan":true}`, 1},
	} {
		js := submit(t, ts, tc.body, "budgets")
		final := terminalStatus(t, collectUntilDone(t, streamEvents(t, ts, js.EventsURL, nil), 60*time.Second))
		if final.State != "done" || final.Classes != tc.classes {
			t.Fatalf("%s: state %s, %d classes; want done with %d", tc.body, final.State, final.Classes, tc.classes)
		}
		if len(final.Units) != 1 || !final.Units[0].Truncated {
			t.Fatalf("%s: units %+v, want one truncated unit", tc.body, final.Units)
		}
		var manifest campaign.Manifest
		if code := getJSON(t, ts, "/v1/bundles/"+final.Bundle, &manifest); code != http.StatusOK {
			t.Fatalf("%s: fetch manifest: HTTP %d", tc.body, code)
		}
		if rm := manifest.Runs[0]; !rm.Truncated || rm.Classes != tc.classes {
			t.Fatalf("%s: manifest entry %+v", tc.body, rm)
		}
	}
}

// TestE2EContentAddressingDedupes: the same audit submitted twice — at
// different parallelism, which must not matter — produces the same content
// hash, and the store keeps exactly one copy.
func TestE2EContentAddressingDedupes(t *testing.T) {
	cfg := serve.Config{StoreDir: filepath.Join(t.TempDir(), "store")}
	_, ts := daemon(t, cfg)

	hashes := map[string]bool{}
	for _, body := range []string{
		`{"targets":["kv"],"parallelism":1}`,
		`{"targets":["kv"],"parallelism":8}`,
	} {
		js := submit(t, ts, body, "dedupe")
		final := terminalStatus(t, collectUntilDone(t, streamEvents(t, ts, js.EventsURL, nil), 60*time.Second))
		if final.State != "done" {
			t.Fatalf("job %s ended %s: %s", final.ID, final.State, final.Error)
		}
		hashes[final.Bundle] = true
	}
	if len(hashes) != 1 {
		t.Fatalf("same audit produced %d distinct content hashes: %v", len(hashes), hashes)
	}
	entries, err := os.ReadDir(cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store holds %d bundles after a duplicate audit, want 1", len(entries))
	}

	var listed []serve.BundleInfo
	if code := getJSON(t, ts, "/v1/bundles", &listed); code != http.StatusOK || len(listed) != 1 {
		t.Fatalf("bundle listing: HTTP %d, %d entries", code, len(listed))
	}

	// A self-diff of the stored bundle is empty — the diff endpoint works on
	// store hashes end to end.
	var d serve.DiffResult
	hash := listed[0].Hash
	if code := getJSON(t, ts, "/v1/diff?old="+hash+"&new="+hash, &d); code != http.StatusOK {
		t.Fatalf("diff: HTTP %d", code)
	}
	if !d.Empty {
		t.Fatalf("self-diff not empty: %s", d.Render)
	}
}

// TestE2ECancelMidFrontier: cancelling a running job over HTTP tears the
// session down mid-exploration, streams the cancelled terminal state,
// persists an interrupted bundle (never a partial class set posing as
// complete), and leaks no goroutines.
func TestE2ECancelMidFrontier(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	_, ts := daemon(t, serve.Config{Lookup: deepLookup})
	js := submit(t, ts, `{"targets":["deep"],"parallelism":8}`, "cancel")

	events := streamEvents(t, ts, js.EventsURL, nil)
	// Cancel the moment the exploration proves it is underway: the first
	// progress event (progress is live-only, so seeing one means the unit is
	// mid-frontier right now).
	cancelled := false
	var all []sse
	deadline := time.After(60 * time.Second)
	for !cancelled {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream ended before any progress event")
			}
			all = append(all, ev)
			if ev.Name == "progress" {
				resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+js.ID+"/cancel", "", nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("cancel: %s", resp.Status)
				}
				cancelled = true
			}
			if ev.Name == "done" {
				t.Fatal("job finished before the test could cancel it — deep target too shallow")
			}
		case <-deadline:
			t.Fatal("no progress event to cancel on")
		}
	}
	all = append(all, collectUntilDone(t, events, 30*time.Second)...)
	final := terminalStatus(t, all)
	if final.State != "cancelled" {
		t.Fatalf("terminal state = %s, want cancelled", final.State)
	}
	if len(final.Units) != 1 || !strings.HasPrefix(final.Units[0].Error, "interrupted") {
		t.Fatalf("cancelled unit not marked interrupted: %+v", final.Units)
	}

	// The interrupted artifact is still persisted — flagged, so it can never
	// serve as a baseline or golden gate input.
	if final.Bundle == "" {
		t.Fatal("cancelled job persisted no bundle")
	}
	var manifest campaign.Manifest
	if code := getJSON(t, ts, "/v1/bundles/"+final.Bundle, &manifest); code != http.StatusOK {
		t.Fatalf("fetch interrupted manifest: HTTP %d", code)
	}
	if !manifest.Interrupted {
		t.Fatal("interrupted bundle not flagged Interrupted")
	}

	// Cancel is idempotent: a second cancel of a finished job is still 200.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+js.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second cancel: %s", resp.Status)
	}
}

// TestE2EQuotaBackpressure: a client at its in-flight quota gets 429 +
// Retry-After while other clients are unaffected, the rejection is counted
// in /metrics, and finishing a job frees the slot.
func TestE2EQuotaBackpressure(t *testing.T) {
	// One worker and a wide target keep the first job running (and the second
	// queued) while the quota is probed.
	_, ts := daemon(t, serve.Config{Lookup: deepLookup, Workers: 1, ClientQuota: 2})

	j1 := submit(t, ts, `{"targets":["deep"]}`, "tenant-a")
	j2 := submit(t, ts, `{"targets":["deep"]}`, "tenant-a")

	resp := postJob(t, ts, `{"targets":["deep"]}`, "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "quota") {
		t.Fatalf("429 body: %q, %v", e.Error, err)
	}
	resp.Body.Close()

	// Another tenant is not throttled by tenant-a's backlog.
	j3 := submit(t, ts, `{"targets":["deep"]}`, "tenant-b")

	// The rejection shows up in the metrics.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "achillesd_quota_rejections_total 1") {
		t.Fatalf("metrics missing the quota rejection:\n%s", mbody)
	}

	// Drain everything (cancel is the fast path) and verify the freed slot:
	// tenant-a can submit again.
	for _, j := range []serve.JobStatus{j1, j2, j3} {
		cr, err := ts.Client().Post(ts.URL+"/v1/jobs/"+j.ID+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		cr.Body.Close()
		collectUntilDone(t, streamEvents(t, ts, j.EventsURL, nil), 30*time.Second)
	}
	j4 := submit(t, ts, `{"targets":["deep"]}`, "tenant-a")
	cr, _ := ts.Client().Post(ts.URL+"/v1/jobs/"+j4.ID+"/cancel", "", nil)
	cr.Body.Close()
	collectUntilDone(t, streamEvents(t, ts, j4.EventsURL, nil), 30*time.Second)
}

// TestE2EMalformedRequests: every malformed submission and lookup fails
// loudly with the right status code and a JSON error body — never a silent
// default audit.
func TestE2EMalformedRequests(t *testing.T) {
	_, ts := daemon(t, serve.Config{})

	badSubmits := []struct {
		name, body string
	}{
		{"invalid JSON", `{"targets": [`},
		{"unknown field", `{"targets":["kv"],"paralellism":4}`},
		{"no targets", `{"targets":[]}`},
		{"unknown target", `{"targets":["does-not-exist"]}`},
		{"unknown mode", `{"targets":["kv"],"modes":["turbo"]}`},
		{"empty mode", `{"targets":["kv"],"modes":[""]}`},
		{"negative max_states", `{"targets":["kv"],"max_states":-1}`},
	}
	for _, tc := range badSubmits {
		resp := postJob(t, ts, tc.body, "mal")
		var e struct {
			Error string `json:"error"`
		}
		err := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
		if err != nil || e.Error == "" {
			t.Errorf("%s: no JSON error body (%v)", tc.name, err)
		}
	}

	if code := getJSON(t, ts, "/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts, "/v1/jobs/job-999999/events", nil); code != http.StatusNotFound {
		t.Errorf("unknown job events: HTTP %d, want 404", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/job-999999/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job cancel: %s, want 404", resp.Status)
	}
	// Bundle hashes are validated before they touch the filesystem.
	for _, path := range []string{
		"/v1/bundles/../../etc/passwd",
		"/v1/bundles/ZZZZ",
		"/v1/bundles/" + strings.Repeat("a", 32) + "/files/../manifest.json",
		"/v1/bundles/" + strings.Repeat("a", 32) + "/files/notes.txt",
	} {
		if code := getJSON(t, ts, path, nil); code != http.StatusBadRequest && code != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 400/404", path, code)
		}
	}
	if code := getJSON(t, ts, "/v1/diff?old=abc", nil); code != http.StatusBadRequest {
		t.Errorf("diff without new=: HTTP %d, want 400", code)
	}
	missing := strings.Repeat("0", 32)
	if code := getJSON(t, ts, "/v1/diff?old="+missing+"&new="+missing, nil); code != http.StatusNotFound {
		t.Errorf("diff of missing bundles: HTTP %d, want 404", code)
	}
}

// TestE2EGracefulShutdown: a drain refuses new work with 503, cancels the
// running session mid-frontier, persists its interrupted bundle, ends the
// event stream with a terminal done event, and unwinds every goroutine.
func TestE2EGracefulShutdown(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	cfg := serve.Config{Lookup: deepLookup, StoreDir: filepath.Join(t.TempDir(), "store")}
	srv, ts := daemon(t, cfg)

	js := submit(t, ts, `{"targets":["deep"],"parallelism":8}`, "drain")
	events := streamEvents(t, ts, js.EventsURL, nil)
	// Wait until the exploration is demonstrably underway, then pull the plug.
	for ev := range events {
		if ev.Name == "progress" {
			break
		}
		if ev.Name == "done" {
			t.Fatal("job finished before the drain started")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Draining is observable: health flips to 503 and submissions bounce.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %s, want 503", hresp.Status)
	}
	sresp := postJob(t, ts, `{"targets":["deep"]}`, "late")
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %s, want 503", sresp.Status)
	}
	if sresp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// The stream the drain cut short still terminates properly, and the
	// interrupted manifest is on disk (checked directly — the artifact must
	// survive the daemon).
	final := terminalStatus(t, collectUntilDone(t, events, 15*time.Second))
	if final.State != "cancelled" {
		t.Fatalf("terminal state after drain = %s, want cancelled", final.State)
	}
	if final.Bundle == "" {
		t.Fatal("drained job persisted no bundle")
	}
	b, err := campaign.Read(filepath.Join(cfg.StoreDir, final.Bundle))
	if err != nil {
		t.Fatalf("read interrupted bundle from the store: %v", err)
	}
	if !b.Manifest.Interrupted {
		t.Fatal("drained bundle not flagged Interrupted")
	}
}

// TestE2EShutdownWithLiveEventStream pins the daemon's shutdown ordering
// (serve.Drain → http.Server.Shutdown → serve.Shutdown) with an SSE stream
// open on a mid-frontier job — the achillesd SIGTERM path. Drain must end
// the stream with its terminal done event so the HTTP shutdown's idle-wait
// returns well inside the drain deadline; shutting the HTTP server down
// first would block on the live connection for the whole window and leave
// the job drain an expired context.
func TestE2EShutdownWithLiveEventStream(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	cfg := serve.Config{Lookup: deepLookup, StoreDir: filepath.Join(t.TempDir(), "store")}
	srv, ts := daemon(t, cfg)

	js := submit(t, ts, `{"targets":["deep"],"parallelism":8}`, "live")
	events := streamEvents(t, ts, js.EventsURL, nil)
	for ev := range events {
		if ev.Name == "progress" {
			break
		}
		if ev.Name == "done" {
			t.Fatal("job finished before the shutdown started")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	srv.Drain()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("HTTP shutdown with a live event stream: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("job drain after HTTP shutdown: %v", err)
	}

	// The cut-short stream still terminated properly and the interrupted
	// bundle was persisted before the connections went idle.
	final := terminalStatus(t, collectUntilDone(t, events, 15*time.Second))
	if final.State != "cancelled" {
		t.Fatalf("terminal state = %s, want cancelled", final.State)
	}
	if final.Bundle == "" {
		t.Fatal("drained job persisted no bundle")
	}
	if _, err := campaign.Read(filepath.Join(cfg.StoreDir, final.Bundle)); err != nil {
		t.Fatalf("read drained bundle from the store: %v", err)
	}
}

// TestE2ETerminalJobRetention: the job table is bounded — once more
// terminal jobs than MaxTerminalJobs accumulate, the oldest are evicted
// (status becomes 404, the listing shrinks) while their bundles survive in
// the content-addressed store.
func TestE2ETerminalJobRetention(t *testing.T) {
	_, ts := daemon(t, serve.Config{MaxTerminalJobs: 1})

	var finals []serve.JobStatus
	for i := 0; i < 3; i++ {
		js := submit(t, ts, `{"targets":["kv"]}`, "retain")
		finals = append(finals, terminalStatus(t,
			collectUntilDone(t, streamEvents(t, ts, js.EventsURL, nil), 60*time.Second)))
	}

	var jobs []serve.JobStatus
	if code := getJSON(t, ts, "/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("list jobs: HTTP %d", code)
	}
	if len(jobs) != 1 || jobs[0].ID != finals[2].ID {
		t.Fatalf("job table after 3 audits with MaxTerminalJobs=1: %+v", jobs)
	}
	for _, old := range finals[:2] {
		if code := getJSON(t, ts, "/v1/jobs/"+old.ID, nil); code != http.StatusNotFound {
			t.Errorf("evicted job %s status: HTTP %d, want 404", old.ID, code)
		}
	}
	// Eviction drops bookkeeping, never artifacts: the evicted jobs' bundle
	// is still served from the store.
	if code := getJSON(t, ts, "/v1/bundles/"+finals[0].Bundle, nil); code != http.StatusOK {
		t.Fatalf("evicted job's bundle: HTTP %d, want 200", code)
	}
}

// TestE2ELateSubscriberReplay: an event stream opened after the job has
// already finished replays the full durable history — every state
// transition, phase and trojan discovery — before its done event. Discovery
// events are never lost to timing.
func TestE2ELateSubscriberReplay(t *testing.T) {
	_, ts := daemon(t, serve.Config{})
	js := submit(t, ts, `{"targets":["kv"]}`, "late")

	// First consumer drives the job to completion.
	live := collectUntilDone(t, streamEvents(t, ts, js.EventsURL, nil), 60*time.Second)

	// Second consumer attaches after the fact.
	replay := collectUntilDone(t, streamEvents(t, ts, js.EventsURL, nil), 10*time.Second)

	count := func(evs []sse, name string) int {
		n := 0
		for _, ev := range evs {
			if ev.Name == name {
				n++
			}
		}
		return n
	}
	for _, durable := range []string{"state", "phase", "trojan"} {
		if l, r := count(live, durable), count(replay, durable); l != r {
			t.Errorf("late subscriber saw %d %s events, live saw %d", r, durable, l)
		}
	}
	if count(replay, "trojan") != 1 {
		t.Fatalf("replay lost the trojan discovery: %d trojan events", count(replay, "trojan"))
	}
	if fs := terminalStatus(t, replay); fs.State != "done" {
		t.Fatalf("replayed terminal state = %s", fs.State)
	}
}

// TestE2EJobListing: the job table lists every submission with its current
// state.
func TestE2EJobListing(t *testing.T) {
	_, ts := daemon(t, serve.Config{})
	j1 := submit(t, ts, `{"targets":["kv"]}`, "ls")
	collectUntilDone(t, streamEvents(t, ts, j1.EventsURL, nil), 60*time.Second)

	var jobs []serve.JobStatus
	if code := getJSON(t, ts, "/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("list jobs: HTTP %d", code)
	}
	if len(jobs) != 1 || jobs[0].ID != j1.ID || jobs[0].State != "done" {
		t.Fatalf("job listing = %+v", jobs)
	}
}
