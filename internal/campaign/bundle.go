package campaign

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"achilles/internal/core"
)

// FormatVersion is the on-disk bundle layout version. Read rejects bundles
// written by a newer layout rather than misinterpreting them.
const FormatVersion = 1

// ManifestName is the manifest file inside a bundle directory.
const ManifestName = "manifest.json"

// Counters is the flat counter map persisted in manifests: the same type
// core produces, so a run's counters land in its manifest entry unconverted.
type Counters = core.Counters

// Manifest is the machine-readable summary of one campaign run — the
// versioned header of an audit bundle.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Tool          string `json:"tool"`       // campaign.Version at write time
	CreatedAt     string `json:"created_at"` // RFC3339 UTC
	Jobs          int    `json:"jobs"`       // the global -j budget
	WallMS        int64  `json:"wall_ms"`    // end-to-end campaign wall time

	// Solver is this campaign's solver work: the sum of the solver_*
	// counters of the runs it executed, in this process or in workers. Each
	// run counts its own work on a scope of its solver (core.RunCtx), so
	// the sum is the same whatever else shares the solver, and the same
	// in-process and under -workers. Neither a cached run (its counters are
	// the baseline's) nor an interrupted run (which records no counters)
	// adds anything. queries does not depend on the schedule; on a shared
	// verdict cache the hit/miss split does.
	Solver Counters `json:"solver,omitempty"`

	// Baseline records where reused reports came from (the -baseline dir)
	// and CachedJobs how many manifest entries were reused verbatim; both
	// are provenance only and excluded from diffing.
	Baseline   string `json:"baseline,omitempty"`
	CachedJobs int    `json:"cached_jobs,omitempty"`

	// Interrupted marks a campaign that was cancelled (SIGINT, timeout)
	// before every job ran. Interrupted jobs carry an "interrupted: …"
	// Error in their entries; the whole bundle is refused as an incremental
	// baseline and by the golden gate.
	Interrupted bool `json:"interrupted,omitempty"`

	// Runs has one entry per job, in deterministic (target, mode) order.
	Runs []RunManifest `json:"runs"`
}

// RunManifest is the manifest entry for one target×mode job.
type RunManifest struct {
	Target      string   `json:"target"`
	Mode        string   `json:"mode"`
	ReportFile  string   `json:"report_file"`
	Classes     int      `json:"classes"`
	ClientPaths int      `json:"client_paths,omitempty"`
	WallMS      int64    `json:"wall_ms"`
	Counters    Counters `json:"counters,omitempty"`
	// InputFingerprint is the job's input identity: the hash of the NL
	// model sources, analysis options, mode and engine/solver/campaign
	// revisions (registry.Descriptor.InputFingerprint). An incremental run
	// reuses a baseline entry only when its fingerprint matches exactly.
	InputFingerprint string `json:"input_fingerprint,omitempty"`
	// Cached marks an entry whose reports were reused verbatim from the
	// baseline bundle instead of being recomputed — kept visible so diffs,
	// the golden gate and humans know nothing ran for this job.
	Cached bool `json:"cached,omitempty"`
	// Truncated flags a run cut off by a MaxStates budget: its class set is
	// partial and must not be pinned as the complete corpus or reused as an
	// incremental baseline.
	Truncated bool `json:"truncated,omitempty"`
	// Error records a failed job; its report stream is absent.
	Error string `json:"error,omitempty"`
}

// Key returns the job key of a manifest entry.
func (rm RunManifest) Key() string { return rm.Target + "/" + rm.Mode }

// Report is one Trojan class as persisted in a job's JSONL report stream.
type Report struct {
	// Fingerprint is the stable content hash of Class (diff key).
	Fingerprint string `json:"fingerprint"`
	// ClassID is the symbolic identity (witness + state world); reports
	// sharing a ClassID but differing in Fingerprint are "changed".
	ClassID string `json:"class_id"`
	// Class is the canonical class line — byte-identical to the golden
	// corpus format.
	Class    string           `json:"class"`
	Witness  string           `json:"witness"`
	Concrete []int64          `json:"concrete"`
	Fields   []string         `json:"fields,omitempty"`
	State    map[string]int64 `json:"state,omitempty"`
	Verified bool             `json:"verified"`
	PathLen  int              `json:"path_len"`
}

// Bundle is an audit bundle: the manifest plus the per-job report streams,
// keyed by Job.Key(). It round-trips through Write and Read.
type Bundle struct {
	Manifest Manifest
	Reports  map[string][]Report
}

// ClassLines returns the sorted canonical class lines of one job — the
// golden-corpus representation of that job's result — and whether the job
// exists in the bundle.
func (b *Bundle) ClassLines(jobKey string) ([]string, bool) {
	reps, ok := b.Reports[jobKey]
	if !ok {
		return nil, false
	}
	lines := make([]string, len(reps))
	for i, r := range reps {
		lines[i] = r.Class
	}
	sort.Strings(lines)
	return lines, true
}

// JobKeys returns the sorted job keys present in the bundle.
func (b *Bundle) JobKeys() []string {
	keys := make([]string, 0, len(b.Reports))
	for k := range b.Reports {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ContentHash returns the bundle's content address: a SHA-256 (hex, 128-bit
// truncation) over the stable analysis content — the tool revision, the
// interrupted flag, and per job (in key order) its identity, error,
// truncated flag, input fingerprint and the exact report-stream bytes Write
// would produce. Volatile metadata (CreatedAt, WallMS, the -j budget, solver
// counters, baseline provenance, the Cached marks) is excluded, so two
// campaigns that found exactly the same thing hash identically whatever
// machine, parallelism or cache warmth produced them. The achillesd bundle
// store uses this as the storage key, which makes persistence idempotent:
// re-auditing an unchanged fleet re-derives the same address.
func (b *Bundle) ContentHash() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n%s\ninterrupted=%v\n", b.Manifest.FormatVersion, b.Manifest.Tool, b.Manifest.Interrupted)
	runs := append([]RunManifest{}, b.Manifest.Runs...)
	sort.Slice(runs, func(i, j int) bool { return runs[i].Key() < runs[j].Key() })
	for _, rm := range runs {
		fmt.Fprintf(h, "job %s error=%q truncated=%v fingerprint=%s classes=%d\n",
			rm.Key(), rm.Error, rm.Truncated, rm.InputFingerprint, rm.Classes)
		if rm.Error != "" {
			continue
		}
		for _, r := range b.Reports[rm.Key()] {
			line, err := json.Marshal(r)
			if err != nil {
				return "", fmt.Errorf("campaign: hash report %s: %w", rm.Key(), err)
			}
			h.Write(line)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// reportFileName maps a job to its JSONL file inside the bundle directory.
// Mode names are lowercased and slash-free so the layout stays portable.
func reportFileName(j Job) string {
	mode := strings.ToLower(j.Mode.String())
	return j.Target + "." + mode + ".jsonl"
}

// ErrBundleExists reports a Write into a directory that already holds
// files. Writing a new manifest next to another plan's report streams would
// leave stale per-job .jsonl files that look like part of the new bundle;
// callers must opt into replacement explicitly (Overwrite / -force).
var ErrBundleExists = errors.New("campaign: bundle directory is not empty")

// Write persists the bundle under dir (created if needed): manifest.json
// plus one JSONL report file per successful job. Files are written with
// stable ordering so identical runs produce byte-identical bundles. A dir
// that already contains files is refused with ErrBundleExists — use
// Overwrite to replace a previous bundle in place.
func (b *Bundle) Write(dir string) error {
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return fmt.Errorf("%w: %s holds %d entr(ies)", ErrBundleExists, dir, len(entries))
	}
	return b.write(dir)
}

// Overwrite replaces the bundle at dir: the previous manifest and every
// *.jsonl report stream are removed first, so a stale per-job file from a
// previous (larger) plan can never survive next to the new manifest. Files
// that are not part of a bundle are left alone.
func (b *Bundle) Overwrite(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("campaign: overwrite bundle dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || (name != ManifestName && !strings.HasSuffix(name, ".jsonl")) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("campaign: overwrite bundle dir: %w", err)
		}
	}
	return b.write(dir)
}

// write is the unconditional persistence path shared by Write and Overwrite.
// The manifest is written LAST and atomically (temp file + rename into
// place): a bundle killed mid-write — power loss, a second SIGINT during the
// interrupted-bundle flush — is left without a manifest.json and is
// therefore unreadable, instead of presenting a manifest that references
// report streams which were never flushed. Read validates every referenced
// stream against the manifest, so "no manifest" (refused outright) and
// "complete manifest + complete streams" are the only observable states a
// later -baseline or diff can see.
func (b *Bundle) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: create bundle dir: %w", err)
	}
	for _, rm := range b.Manifest.Runs {
		if rm.Error != "" {
			continue
		}
		reps := b.Reports[rm.Key()]
		var sb strings.Builder
		for _, r := range reps {
			line, err := json.Marshal(r)
			if err != nil {
				return fmt.Errorf("campaign: marshal report %s: %w", rm.Key(), err)
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
		path := filepath.Join(dir, rm.ReportFile)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			return fmt.Errorf("campaign: write reports %s: %w", rm.Key(), err)
		}
	}
	mj, err := json.MarshalIndent(&b.Manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: marshal manifest: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, ManifestName), append(mj, '\n'))
}

// writeFileAtomic writes data to path via a temp file in the same directory
// and an atomic rename, fsyncing the file first so the rename never
// publishes an empty or partial manifest.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: sync manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	return nil
}

// Read loads a bundle from dir, validating the manifest and every report
// stream it references. A missing or malformed manifest, an unsupported
// format version, or a corrupt report line is an error.
func Read(dir string) (*Bundle, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("campaign: read manifest: %w", err)
	}
	b := &Bundle{Reports: map[string][]Report{}}
	if err := json.Unmarshal(raw, &b.Manifest); err != nil {
		return nil, fmt.Errorf("campaign: corrupt manifest in %s: %w", dir, err)
	}
	if b.Manifest.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("campaign: bundle %s has format version %d, this tool reads %d",
			dir, b.Manifest.FormatVersion, FormatVersion)
	}
	for _, rm := range b.Manifest.Runs {
		if rm.Error != "" {
			continue
		}
		if rm.ReportFile != filepath.Base(rm.ReportFile) || rm.ReportFile == "" {
			return nil, fmt.Errorf("campaign: manifest entry %s names invalid report file %q", rm.Key(), rm.ReportFile)
		}
		reps, err := readReports(filepath.Join(dir, rm.ReportFile))
		if err != nil {
			return nil, fmt.Errorf("campaign: job %s: %w", rm.Key(), err)
		}
		if len(reps) != rm.Classes {
			return nil, fmt.Errorf("campaign: job %s: manifest says %d classes, %s holds %d",
				rm.Key(), rm.Classes, rm.ReportFile, len(reps))
		}
		b.Reports[rm.Key()] = reps
	}
	return b, nil
}

// readReports parses one JSONL report stream.
func readReports(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reps := []Report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: corrupt report line: %w", filepath.Base(path), lineNo, err)
		}
		if r.Fingerprint == "" || r.Class == "" {
			return nil, fmt.Errorf("%s:%d: report missing fingerprint or class", filepath.Base(path), lineNo)
		}
		reps = append(reps, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return reps, nil
}

// List scans root for bundle directories (direct children containing a
// manifest.json) and returns their manifests, sorted by creation time then
// name. Unreadable children are skipped.
func List(root string) ([]ListedBundle, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("campaign: list %s: %w", root, err)
	}
	var out []ListedBundle
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			continue
		}
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			continue
		}
		out = append(out, ListedBundle{Dir: dir, Manifest: m})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Manifest.CreatedAt != out[j].Manifest.CreatedAt {
			return out[i].Manifest.CreatedAt < out[j].Manifest.CreatedAt
		}
		return out[i].Dir < out[j].Dir
	})
	return out, nil
}

// ListedBundle pairs a bundle directory with its manifest.
type ListedBundle struct {
	Dir      string
	Manifest Manifest
}
