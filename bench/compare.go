package main

// The compare subcommand: two result sets of one or more runs each (JSONL
// files written with -out) judged metric by metric, with the direction and
// regression bound BENCHMARK.json fixes for every end-to-end metric.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads the BENCHMARK.json at path.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric of one workload over the runs of one kind
// (traced or not).
func values(rs []record, workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.jsonl B.jsonl  (from the repository root)")
		return 2
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = loadRecords(args[i]); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "%-9s %-40s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "change", "bound", "verdict")
	bad := 0
	row := func(w, name string, a, b []float64, bound, verdict string, change float64) {
		fmt.Fprintf(stdout, "%-9s %-40s %-34s %-34s %+7.1f%% %6s  %s\n", w, name, summary(a), summary(b), 100*change, bound, verdict)
	}
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			a, b := values(sides[0], w.Name, 0, m.Name), values(sides[1], w.Name, 0, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, change := judge(a, b, m.Better, m.Bound)
			if v != "ok" {
				bad++
			}
			row(w.Name, m.Name, a, b, fmt.Sprintf("%.0f%%", 100*m.Bound), v, change)
		}
		for _, m := range s.PerLayer {
			a, b := values(sides[0], w.Name, 1, m.Name), values(sides[1], w.Name, 1, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			_, change := judge(a, b, m.Better, math.Inf(1))
			row(w.Name, m.Name, a, b, "-", "-", change)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d end-to-end metric(s) worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// judge compares side b against side a. change is the relative change of
// the medians, positive when b is worse. The verdict is "worse" when b's
// median is worse by more than bound, and "unresolved" when either side's
// spread (interquartile range over median) is wider than bound — unless
// every run of b reads better than every run of a.
func judge(a, b []float64, better string, bound float64) (string, float64) {
	qa, qb := quartiles(a), quartiles(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	change := 0.0
	if qa[1] != 0 {
		change = sign * (qb[1] - qa[1]) / math.Abs(qa[1])
	} else if qb[1] != 0 {
		change = math.Inf(1)
	}
	if spread(qa) > bound || spread(qb) > bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return "ok", change
		}
		return "unresolved", change
	}
	if change > bound {
		return "worse", change
	}
	return "ok", change
}

// quartiles are the three cut points of statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func summary(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", q[1], q[0], q[2], len(xs))
}
