package campaign

// Incremental-campaign coverage: baseline reuse must be byte-faithful when
// inputs are unchanged, surgical when one target's inputs move, and refused
// outright for failed, truncated or fingerprint-less baseline entries — the
// reuse rules that keep an incremental audit exactly as trustworthy as a
// cold one.

import (
	"slices"
	"testing"
)

// TestIncrementalAllCached: unchanged fleet → every job reused, class sets
// byte-identical to the baseline, manifest honest about the reuse.
func TestIncrementalAllCached(t *testing.T) {
	base := mustRun(t, cheapOptions(2))
	dir := t.TempDir()
	if err := base.Write(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := cheapOptions(2)
	opts.Baseline = loaded
	opts.BaselineDir = dir
	warm := mustRun(t, opts)

	if warm.Manifest.CachedJobs != len(warm.Manifest.Runs) {
		t.Fatalf("want all %d jobs cached, got %d", len(warm.Manifest.Runs), warm.Manifest.CachedJobs)
	}
	if warm.Manifest.Baseline != dir {
		t.Errorf("manifest baseline = %q, want %q", warm.Manifest.Baseline, dir)
	}
	for _, rm := range warm.Manifest.Runs {
		if !rm.Cached {
			t.Errorf("job %s not marked cached", rm.Key())
		}
		if rm.WallMS != 0 {
			t.Errorf("cached job %s reports %d ms of work", rm.Key(), rm.WallMS)
		}
		if rm.InputFingerprint == "" {
			t.Errorf("job %s lost its input fingerprint", rm.Key())
		}
	}
	if d := Diff(base, warm); !d.Empty() {
		t.Fatalf("incremental bundle differs from baseline:\n%s", d.Render())
	}
	for _, key := range base.JobKeys() {
		bl, _ := base.ClassLines(key)
		wl, ok := warm.ClassLines(key)
		if !ok || !slices.Equal(bl, wl) {
			t.Errorf("%s: cached class lines not byte-identical to baseline", key)
		}
	}
}

// TestIncrementalSeededEditRerunsExactlyTouchedTarget: a model edit changes
// one target's fingerprint (seeded here by perturbing the baseline entry,
// which is indistinguishable from the current model having moved); exactly
// that target re-runs, everything else stays cached — and because the
// analysis is deterministic the re-run reproduces the same class set.
func TestIncrementalSeededEditRerunsExactlyTouchedTarget(t *testing.T) {
	base := mustRun(t, cheapOptions(2))
	touched := "kv/optimized"
	for i := range base.Manifest.Runs {
		if base.Manifest.Runs[i].Key() == touched {
			base.Manifest.Runs[i].InputFingerprint = "model-edit-moved-this-hash"
		}
	}
	opts := cheapOptions(2)
	opts.Baseline = base
	warm := mustRun(t, opts)

	for _, rm := range warm.Manifest.Runs {
		if rm.Key() == touched {
			if rm.Cached {
				t.Errorf("%s: edited target was reused from the baseline", touched)
			}
			continue
		}
		if !rm.Cached {
			t.Errorf("%s: untouched target re-ran", rm.Key())
		}
	}
	if want := len(warm.Manifest.Runs) - 1; warm.Manifest.CachedJobs != want {
		t.Errorf("cached jobs = %d, want %d", warm.Manifest.CachedJobs, want)
	}
	if d := Diff(base, warm); !d.Empty() {
		t.Fatalf("re-run of the touched target changed its class set:\n%s", d.Render())
	}
}

// TestIncrementalNeverReusesDirtyBaselineEntries: failed, truncated and
// fingerprint-less baseline entries (and ones whose report stream is
// inconsistent) must re-run, whatever their fingerprints say.
func TestIncrementalNeverReusesDirtyBaselineEntries(t *testing.T) {
	base := mustRun(t, cheapOptions(2))
	dirty := map[string]func(rm *RunManifest){
		"kv/optimized":       func(rm *RunManifest) { rm.Error = "simulated crash" },
		"kv-fixed/optimized": func(rm *RunManifest) { rm.Truncated = true },
		"paxos/optimized":    func(rm *RunManifest) { rm.InputFingerprint = "" },
	}
	for i := range base.Manifest.Runs {
		if mut, ok := dirty[base.Manifest.Runs[i].Key()]; ok {
			mut(&base.Manifest.Runs[i])
		}
	}
	opts := cheapOptions(2)
	opts.Baseline = base
	warm := mustRun(t, opts)
	for _, rm := range warm.Manifest.Runs {
		if _, isDirty := dirty[rm.Key()]; !isDirty {
			continue
		}
		if rm.Cached {
			t.Errorf("%s: dirty baseline entry was reused", rm.Key())
		}
		if rm.Error != "" || rm.Truncated {
			t.Errorf("%s: fresh run inherited dirty baseline flags: %+v", rm.Key(), rm)
		}
	}
	if warm.Manifest.CachedJobs != 0 {
		t.Errorf("cached jobs = %d, want 0 (every baseline entry was dirty)", warm.Manifest.CachedJobs)
	}

	// A class-count/report-stream mismatch (baseline tampering or bit rot)
	// also blocks reuse.
	base2 := mustRun(t, Options{Targets: []string{"kv"}, Jobs: 1})
	base2.Reports["kv/optimized"] = base2.Reports["kv/optimized"][:0]
	opts2 := Options{Targets: []string{"kv"}, Jobs: 1, Baseline: base2}
	warm2 := mustRun(t, opts2)
	if warm2.Manifest.Runs[0].Cached {
		t.Error("baseline entry with inconsistent report stream was reused")
	}
}

// TestIncrementalBundleChainsAsBaseline: an incremental bundle is itself a
// valid baseline — fingerprints survive the cached path and a third run over
// it is again fully cached (the continuous-audit steady state).
func TestIncrementalBundleChainsAsBaseline(t *testing.T) {
	base := mustRun(t, Options{Targets: []string{"kv"}, Jobs: 1})
	opts := Options{Targets: []string{"kv"}, Jobs: 1, Baseline: base}
	second := mustRun(t, opts)
	opts.Baseline = second
	third := mustRun(t, opts)
	if third.Manifest.CachedJobs != 1 {
		t.Fatalf("third-generation run not cached from second-generation bundle: %+v", third.Manifest.Runs[0])
	}
	if d := Diff(base, third); !d.Empty() {
		t.Fatalf("third-generation bundle drifted:\n%s", d.Render())
	}
}

// TestSplitBudget pins the remainder distribution: the -j 8 / 5 jobs case
// from the floored-budget bug runs 2+2+2+1+1 workers (total exactly 8, no
// idle slots), and the total never exceeds the budget when workers <= budget.
func TestSplitBudget(t *testing.T) {
	cases := []struct {
		budget, workers int
		want            []int
	}{
		{8, 5, []int{2, 2, 2, 1, 1}}, // the reported bug: was 1+1+1+1+1
		{8, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{7, 2, []int{4, 3}},
		{3, 3, []int{1, 1, 1}},
		{5, 1, []int{5}},
		{1, 1, []int{1}},
		{4, 0, []int{}},
	}
	for _, c := range cases {
		got := SplitBudget(c.budget, c.workers)
		if !slices.Equal(got, c.want) {
			t.Errorf("SplitBudget(%d, %d) = %v, want %v", c.budget, c.workers, got, c.want)
			continue
		}
		sum := 0
		for _, v := range got {
			sum += v
			if v < 1 {
				t.Errorf("SplitBudget(%d, %d): worker with %d slots", c.budget, c.workers, v)
			}
		}
		if c.workers > 0 && c.workers <= c.budget && sum != c.budget {
			t.Errorf("SplitBudget(%d, %d) sums to %d, want the full budget", c.budget, c.workers, sum)
		}
	}
}
