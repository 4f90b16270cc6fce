// Command bench is the end-to-end benchmark of Achilles: it drives the four
// user-visible paths — the fleet campaign, the rich FSP session, a
// distributed -workers run and the achillesd daemon — as closed-loop
// workloads through the same public entry points the CLIs and the daemon
// use, checks every audit's Trojan class set against the golden corpus, and
// prints one JSON result line.
//
//	bench -workload fleet -seed 1 -seconds 25 -trace 0
//	bench compare A.jsonl B.jsonl
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 every
// other audit is traced at the public seams and the result holds the
// per-layer metrics. See README.md for the workloads, metrics and numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setups is how many times a run sets its workload up. One setup lasts about
// one audit and varies by ±20% from one to the next, so setup_s reports the
// median of seven. A variable only so the smoke test can run one.
var setups = 7

// metricSpec names one reported metric and its unit; BENCHMARK.json lists the
// same names and units (the schema test holds the two together).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"audit_ms_p50", "ms"},
	// p80, not p90: a fsp-rich or workers run completes 45-75 audits, and p80
	// is the highest percentile with about ten samples beyond it on every
	// workload.
	{"audit_ms_p80", "ms"},
	{"audits_per_s", "1/s"},
	{"first_trojan_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"lang.compile_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.preprocess_ms", "ms"},
	{"core.server_ms", "ms"},
	{"core.first_trojan_ms", "ms"},
	{"core.client_paths", "count"},
	{"core.preprocess.disjuncts", "count"},
	{"core.preprocess.overlap_dropped", "count"},
	{"core.preprocess.difffrom_decided_ratio", "ratio"},
	{"core.preprocess.solver_queries", "count"},
	{"core.server.accepting_states", "count"},
	{"core.server.pruned_states", "count"},
	{"core.server.bulk_drops", "count"},
	{"core.server.bindkey_hits", "count"},
	{"core.server.trojan_yield", "ratio"},
	{"core.server_ms.optimized", "ms"},
	{"core.server_ms.no-differentfrom", "ms"},
	{"core.server_ms.a-posteriori", "ms"},
	{"symexec.states", "count"},
	{"symexec.forks", "count"},
	{"symexec.steps", "count"},
	{"symexec.solver_calls", "count"},
	{"symexec.subsumed_ratio", "ratio"},
	{"solver.queries", "count"},
	{"solver.cache_hit_ratio", "ratio"},
	{"solver.decisions", "count"},
	{"solver.propagations", "count"},
	{"solver.splits", "count"},
	{"solver.unknowns", "count"},
	{"solver.learned_sets", "count"},
	{"solver.learned_hit_ratio", "ratio"},
	{"solver.feasible_hits", "count"},
	{"solver.interned", "count"},
	{"session.events", "count"},
	{"session.dropped", "count"},
	{"campaign.job_ms_sum", "ms"},
	{"campaign.slowest_job_ms", "ms"},
	{"campaign.lane_busy_frac", "ratio"},
	{"campaign.overhead_ms", "ms"},
	{"campaign.fingerprint_ms", "ms"},
	{"campaign.bundle_write_ms", "ms"},
	{"campaign.content_hash_ms", "ms"},
	{"campaign.bundle_read_ms", "ms"},
	{"dispatch.start_ms", "ms"},
	{"dispatch.close_ms", "ms"},
	{"dispatch.job_ms_sum", "ms"},
	{"dispatch.job_overhead_ms", "ms"},
	{"dispatch.lane_busy_frac", "ratio"},
	{"dispatch.worker_peak_rss_mb", "MB"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p90", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.bundle_get_ms_p50", "ms"},
	{"serve.diff_ms_p50", "ms"},
	{"serve.events_per_job", "count"},
	{"serve.event_drops", "count"},
	{"serve.quota_rejections", "count"},
	{"serve.store_dedup_ratio", "ratio"},
	{"serve.solver_cache_hit_ratio", "ratio"},
	{"gc.alloc_mb_per_audit", "MB"},
	{"gc.pause_ms_per_audit", "ms"},
	{"gc.cycles_per_audit", "count"},
	{"trace.overhead_frac", "ratio"},
}

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	audits    int // stop after this many timed audits; 0 = run for seconds only
	spans     string
	out       string
	workerBin string
	golden    string
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a result with what produced it, the
// input of the compare subcommand.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (the daemon traffic draw)")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "how long the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "1 traces every other audit and reports the per-layer metrics")
	fs.IntVar(&cfg.audits, "audits", 0, "stop after this many timed audits (0 = run for -seconds)")
	fs.StringVar(&cfg.spans, "spans", "", "write the spans of a traced run to this JSON file")
	fs.StringVar(&cfg.out, "out", "", "append the result, with workload and seed, to this JSONL file")
	fs.StringVar(&cfg.workerBin, "worker-bin", "", "achilles-worker binary (default: next to this executable)")
	fs.StringVar(&cfg.golden, "golden", filepath.Join("internal", "protocols", "testdata"), "golden corpus directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 0 || cfg.audits < 0 {
		fmt.Fprintf(stderr, "bench: need -workload %s, -trace 0|1 and non-negative -seconds/-audits\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workerBin == "" {
		if self, err := os.Executable(); err == nil {
			cfg.workerBin = filepath.Join(filepath.Dir(self), "achilles-worker")
		}
	}
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, record{Workload: cfg.workload, Seed: cfg.seed, Trace: trace, Result: res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open -out: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write -out: %w", err)
	}
	return f.Close()
}

// outcome is what one audit reports back to the loop.
type outcome struct {
	dur         time.Duration
	firstTrojan time.Duration // audit start to the first Trojan the caller sees
	failure     string        // empty when the audit succeeded and matched the goldens
}

// run sets the workload up, runs the timed closed loop and assembles the
// result. Failures of single audits are counted, not returned; an error means
// the workload could not be set up at all.
func run(cfg config, log io.Writer) (result, error) {
	w := workloads[cfg.workload]
	goldens, err := loadGoldens(cfg.golden)
	if err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp("", "achilles-bench-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	e := &env{cfg: cfg, timeout: w.timeout, goldens: goldens, tmp: tmp}
	spans := newSpanLog()

	var setupSecs []float64
	setUp := func() (backend, error) {
		// Each backend's peak RSS is its own: a daemon's heap is a few
		// hundred MB, and until it is collected and returned it would count
		// in the next one's RSS.
		resetPeakRSS()
		t0 := time.Now()
		b, err := w.setup(e)
		e.backends++
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		return b, nil
	}
	// The timed loop sets up at least once more, so setup_s is the median of
	// at least `setups` setups.
	for i := 1; i < setups; i++ {
		b, err := setUp()
		if err != nil {
			return result{}, err
		}
		if err := b.close(); err != nil {
			return result{}, fmt.Errorf("tear down setup %d: %w", i, err)
		}
	}

	var (
		mu       sync.Mutex
		plain    []float64 // untraced audit durations, ms
		traced   []float64
		trojans  []float64
		failures []string
		wall     time.Duration // the timed loop, without the setups between backends
		alloc    uint64        // runtime.MemStats deltas over the timed loop
		pause    uint64
		cycles   uint32
		rss      []float64            // peak RSS of each backend, MiB
		runVals  []map[string]float64 // finish() of each traced backend
		units    []probeUnit
	)
	attempted := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(plain) + len(traced)
	}
	// Each pass sets a backend up and runs the clients on it until time is
	// up or, on a workload with restartEvery, until it has served that many
	// audits; then the next backend takes over.
	for wall.Seconds() < cfg.seconds && (cfg.audits == 0 || attempted() < cfg.audits) {
		b, err := setUp()
		if err != nil {
			return result{}, err
		}
		base := attempted()
		var issued atomic.Int64
		var wg sync.WaitGroup
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; ; k++ {
					i := int(issued.Add(1))
					n := base + i
					if (wall+time.Since(start)).Seconds() >= cfg.seconds ||
						(w.restartEvery > 0 && i > w.restartEvery) || (cfg.audits > 0 && n > cfg.audits) {
						return
					}
					var tr *auditTrace
					if cfg.trace && k%2 == 0 {
						tr = spans.audit(n)
					}
					ctx, cancel := context.WithTimeout(context.Background(), w.timeout)
					o := b.audit(ctx, c, tr)
					cancel()
					if o.failure != "" {
						// A failed audit counts as missing any latency limit.
						o.dur = w.timeout
					}
					ms := durMS(o.dur)
					mu.Lock()
					if tr != nil {
						traced = append(traced, ms)
					} else {
						plain = append(plain, ms)
					}
					if o.failure != "" {
						failures = append(failures, fmt.Sprintf("audit %d: %s", n, o.failure))
					} else {
						trojans = append(trojans, durMS(o.firstTrojan))
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall += time.Since(start)
		rss = append(rss, peakRSSMB())
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		pause += ms1.PauseTotalNs - ms0.PauseTotalNs
		cycles += ms1.NumGC - ms0.NumGC
		if cfg.trace {
			v, err := b.finish()
			if err != nil {
				b.close()
				return result{}, err
			}
			runVals = append(runVals, v)
		}
		units = b.units()
		if err := b.close(); err != nil {
			fmt.Fprintln(log, "tear down:", err)
		}
	}

	res := result{
		Correct:   len(failures) == 0 && attempted() > 0,
		Attempted: attempted(),
		Failed:    len(failures),
		Metrics:   map[string]metric{},
	}
	for _, f := range failures {
		fmt.Fprintln(log, "FAILED", f)
	}
	completed := float64(res.Attempted - len(failures))
	fmt.Fprintf(log, "workload %s  seed %d  trace %v  audits %d (failed %d)  backends %d  timed %.3f s\n",
		w.name, cfg.seed, cfg.trace, res.Attempted, len(failures), len(setupSecs)-setups+1, wall.Seconds())

	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":             quantile(setupSecs, 0.5),
			"audit_ms_p50":        quantile(plain, 0.5),
			"audit_ms_p80":        quantile(plain, 0.8),
			"audits_per_s":        completed / wall.Seconds(),
			"first_trojan_ms_p50": quantile(trojans, 0.5),
			"peak_rss_mb":         quantile(rss, 0.5),
		}
		notes := map[string]string{
			"setup_s":             fmt.Sprintf("median of %d setups", len(setupSecs)),
			"audit_ms_p50":        fmt.Sprintf("n=%d", len(plain)),
			"audit_ms_p80":        fmt.Sprintf("n=%d", len(plain)),
			"audits_per_s":        fmt.Sprintf("%d completed in %.3f s", int(completed), wall.Seconds()),
			"first_trojan_ms_p50": fmt.Sprintf("n=%d", len(trojans)),
			"peak_rss_mb":         fmt.Sprintf("median of %d backends' peaks", len(rss)),
		}
		fill(&res, endToEnd, vals, notes, log)
		return res, nil
	}

	vals := spans.aggregate()
	maps.Copy(vals, medians(runVals))
	// The probe runs on a collected heap, free of the workload's state: the
	// daemon's live heap alone would otherwise slow it by several times.
	runtime.GC()
	if err := probe(units, vals); err != nil {
		return result{}, fmt.Errorf("layer probe: %w", err)
	}
	if completed > 0 {
		vals["gc.alloc_mb_per_audit"] = float64(alloc) / (1 << 20) / completed
		vals["gc.pause_ms_per_audit"] = float64(pause) / 1e6 / completed
		vals["gc.cycles_per_audit"] = float64(cycles) / completed
	}
	// Means, not medians: daemon latencies spread from 3 to 200 ms around a
	// median in a steep part of the distribution, and the medians of two
	// halves of one run, with the same job mix, differ by up to 15%.
	if p := mean(plain); p > 0 {
		vals["trace.overhead_frac"] = mean(traced)/p - 1
	}
	notes := map[string]string{"trace.overhead_frac": fmt.Sprintf("traced n=%d, untraced n=%d", len(traced), len(plain))}
	fill(&res, perLayer, vals, notes, log)
	if cfg.spans != "" {
		if err := spans.write(cfg.spans); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// medians merges the run-level values of several backends, key by key.
func medians(ms []map[string]float64) map[string]float64 {
	samples := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for k, xs := range samples {
		out[k] = quantile(xs, 0.5)
	}
	return out
}

// fill copies the listed metrics into the result — a metric the workload
// does not exercise reads 0 — and prints them as a table.
func fill(res *result, specs []metricSpec, vals map[string]float64, notes map[string]string, log io.Writer) {
	for _, s := range specs {
		v := vals[s.name]
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(log, "  %-40s %14.4f %-6s %s\n", s.name, v, s.unit, notes[s.name])
	}
}

// resetPeakRSS returns the memory the heap has freed to the OS and restarts
// the kernel's count of this process' peak RSS (VmHWM) from its current RSS.
// Without /proc, as outside Linux, peakRSSMB falls back to the process-wide
// peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process' peak RSS in MiB since the last resetPeakRSS.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return maxRSSMB(syscall.RUSAGE_SELF)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
				return kb / 1024
			}
		}
	}
	return maxRSSMB(syscall.RUSAGE_SELF)
}

// maxRSSMB is getrusage's peak resident set size in MiB (Linux reports KiB).
func maxRSSMB(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of raw samples (0 for none) by the method of
// Python's statistics.quantiles (the default, exclusive one): position
// q·(n+1) between order statistics, so a spread computed here matches one
// computed there.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}
