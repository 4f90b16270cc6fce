package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestWorkloads runs every workload at a tiny audit count, untraced and
// traced, and checks that each run passes the golden gate and prints exactly
// the metric names and units BENCHMARK.json lists, every end-to-end value
// positive.
func TestWorkloads(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH; the workers workload needs achilles-worker built")
	}
	t.Setenv("TMPDIR", t.TempDir())
	defer func(n int) { setups = n }(setups)
	setups = 1
	worker := filepath.Join(t.TempDir(), "achilles-worker")
	build := exec.Command(goBin, "build", "-o", worker, "./cmd/achilles-worker")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build achilles-worker: %v\n%s", err, out)
	}
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range s.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		want[1][m.Name] = m.Unit
	}

	// Two daemons serve the six daemon jobs, so the hand-over runs too.
	defer func(d workload) { workloads["daemon"] = d }(workloads["daemon"])
	d := workloads["daemon"]
	d.restartEvery = 4
	workloads["daemon"] = d

	for _, w := range s.Workloads {
		audits := 2
		if w.Name == "daemon" {
			audits = 6
		}
		for trace := 0; trace <= 1; trace++ {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := runMain([]string{
					"-workload", w.Name, "-seconds", "120", "-audits", strconv.Itoa(audits),
					"-trace", strconv.Itoa(trace), "-worker-bin", worker,
					"-golden", filepath.Join("..", "internal", "protocols", "testdata"),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != audits {
					t.Fatalf("correct=%v failed=%d attempted=%d, want a clean run of %d audits", res.Correct, res.Failed, res.Attempted, audits)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
					if trace == 0 && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
					}
				}
				if !maps.Equal(got, want[trace]) {
					t.Errorf("metrics printed %v, BENCHMARK.json lists %v", got, want[trace])
				}
			})
		}
	}
}

// TestSchema holds the names in the code, the names in BENCHMARK.json and
// the allowed name shape together.
func TestSchema(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var listed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	sorted := append([]string{}, listed...)
	sort.Strings(sorted)
	if strings.Join(sorted, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", listed, workloadNames())
	}
	specs := map[string]string{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		specs[m.name] = m.unit
	}
	names := append([]string{}, listed...)
	for _, m := range s.EndToEnd {
		names = append(names, m.Name)
		if specs[m.Name] != m.Unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, bound %v (code says %q)", m.Name, m.Unit, m.Bound, specs[m.Name])
		}
	}
	for _, m := range s.PerLayer {
		names = append(names, m.Name)
		if specs[m.Name] != m.Unit {
			t.Errorf("per-layer %s: unit %q, code says %q", m.Name, m.Unit, specs[m.Name])
		}
	}
	if len(s.EndToEnd)+len(s.PerLayer) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(s.EndToEnd)+len(s.PerLayer), len(specs))
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
	}
}

// TestCompare checks quantiles against Python's statistics.quantiles
// (quartiles with n=4, the 80th percentile as the fourth cut of n=5) and the
// verdicts of judge.
func TestCompare(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [4]float64 // q1, median, q3, p80
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [4]float64{2.75, 5.5, 8.25, 8.8}},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [4]float64{1, 3, 5, 6.6}},
		{[]float64{2.5, 7.25}, [4]float64{1.3125, 4.875, 8.4375, 9.15}},
	} {
		q := quartiles(c.xs)
		got := [4]float64{q[0], q[1], q[2], quantile(c.xs, 0.8)}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quantiles of %v = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "ok"},
		{"slower", steady, scale(steady, 1.2), "lower", "worse"},
		{"faster", steady, scale(steady, 0.8), "lower", "ok"},
		{"less throughput", steady, scale(steady, 0.8), "higher", "worse"},
		{"noisy", steady, noisy, "lower", "unresolved"},
		{"noisy but all better", noisy, scale(steady, 0.5), "lower", "ok"},
	} {
		if got, _ := judge(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
