package solver

// Persistence and exchange of the verdict cache. A cache file makes even a
// forced cold campaign warm: the canonical query rendering (queryKey) is the
// entry key, so any process that re-issues a structurally identical query —
// across targets, runs and days — replays the verdict instead of re-solving
// it. The same CacheEntry encoding travels over the distributed campaign's
// wire protocol (internal/dispatch): the coordinator seeds every worker with
// its cache, and collects the verdicts the workers computed when a caller
// persists the cache.
//
// The file is defensive in both directions:
//
//   - writing stamps the layout version AND the solver revision into a
//     header line; LoadCache rejects a file written by either a different
//     layout or a different decision procedure (ErrCacheVersion), because a
//     stale verdict is worse than a cold cache;
//   - writing goes through a temp file + fsync + atomic rename (the same
//     discipline as the campaign manifest), so a process killed mid-save —
//     a crashed worker, a second SIGINT — can never leave a torn cache file
//     at the destination path: readers observe either the previous complete
//     cache or the new complete cache, nothing in between;
//   - loading never trusts blindly: entries are marked "loaded" and
//     re-verified on first use (see Solver.Check — Sat models re-evaluated
//     against the live query, a sampled subset of Unsat/Unknown verdicts
//     re-solved), so a corrupt or hand-edited file cannot inject verdicts
//     into an analysis. Imported entries get the same treatment.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"achilles/internal/expr"
)

// CacheFileVersion is the on-disk layout version of persisted verdict
// caches. Bump it when the header or entry encoding changes.
const CacheFileVersion = 1

// ErrCacheVersion reports a cache file written by a different file layout or
// solver revision. Callers should treat it as a cold cache (and overwrite
// the file on the next save), not as a failure of the analysis.
var ErrCacheVersion = errors.New("solver: cache file version mismatch")

// ErrCacheDisabled reports a persistence call on a solver whose verdict
// cache is disabled.
var ErrCacheDisabled = errors.New("solver: verdict cache is disabled")

// cacheHeader is the first line of a cache file.
type cacheHeader struct {
	Format int    `json:"format"`
	Solver string `json:"solver"`
}

// CacheEntry is one verdict in wire form — the JSONL line layout shared by
// cache files (SaveCache/LoadCache) and the distributed campaign's cache
// seed and collect (ExportCache/ImportCache over internal/dispatch).
// The key is the canonical query rendering (not a hash), so an entry can
// never alias a different formula — the same soundness argument as the
// in-memory cache.
type CacheEntry struct {
	Key   string   `json:"k"`
	Res   int      `json:"r"`
	Model expr.Env `json:"m,omitempty"`
}

// valid reports whether the entry could have been produced by this solver
// revision: a usable key and a verdict in range.
func (e CacheEntry) valid() bool {
	return e.Key != "" && e.Res >= int(Unsat) && e.Res <= int(Unknown)
}

// ExportCache snapshots every cached verdict as wire entries, sorted by key
// so identical caches export identically. It returns ErrCacheDisabled on a
// cache-less solver.
func (s *Solver) ExportCache() ([]CacheEntry, error) {
	if s.cache == nil {
		return nil, ErrCacheDisabled
	}
	keys, verdicts := s.cache.snapshot()
	out := make([]CacheEntry, len(keys))
	for i := range keys {
		out[i] = CacheEntry{Key: keys[i], Res: int(verdicts[i].res), Model: verdicts[i].model}
	}
	return out, nil
}

// ImportCache merges wire entries into the verdict cache and returns how
// many were stored. The import is all-or-nothing on validation: every entry
// is checked first, and one malformed entry (empty key, out-of-range
// verdict) rejects the whole batch with zero entries merged. Accepted
// entries are marked loaded — re-verified on first use exactly like entries
// from a cache file, because an entry that crossed a process boundary is no
// more trustworthy than one that crossed a filesystem. Imported entries
// never displace verdicts the live process has already computed, and
// entries beyond a shard's capacity are dropped rather than evicting
// anything.
func (s *Solver) ImportCache(entries []CacheEntry) (int, error) {
	if s.cache == nil {
		return 0, ErrCacheDisabled
	}
	for i, ent := range entries {
		if !ent.valid() {
			return 0, fmt.Errorf("solver: import cache entry %d: invalid (empty key or verdict %d)", i, ent.Res)
		}
	}
	merged := 0
	for _, ent := range entries {
		if s.cache.putIfAbsent(ent.Key, verdict{res: Result(ent.Res), model: ent.Model, loaded: true}) {
			merged++
		}
	}
	return merged, nil
}

// SaveCache writes the current verdict cache to path: a JSON header line
// (layout version + solver revision) followed by one JSON entry per verdict,
// sorted by key so identical caches produce identical files. The write goes
// through a temp file + fsync + atomic rename, so a reader never observes a
// half-written cache — not even when the writing process is killed mid-save
// or the machine loses power between the write and the rename.
func (s *Solver) SaveCache(path string) error {
	entries, err := s.ExportCache()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".solver-cache-*")
	if err != nil {
		return fmt.Errorf("solver: save cache: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	writeLine := func(v any) error {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		return w.WriteByte('\n')
	}
	err = writeLine(cacheHeader{Format: CacheFileVersion, Solver: Version})
	for _, ent := range entries {
		if err != nil {
			break
		}
		err = writeLine(ent)
	}
	if err == nil {
		err = w.Flush()
	}
	// fsync before the rename: the rename must never publish a file whose
	// contents are still sitting in the page cache of a dying machine.
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("solver: save cache %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("solver: save cache: %w", err)
	}
	return nil
}

// LoadCache merges the verdicts persisted at path into the cache, marking
// every entry for first-use re-verification, and returns the number of
// entries loaded. A header written by a different layout or solver revision
// is ErrCacheVersion; a malformed header or entry line is an error carrying
// the line number. The load is all-or-nothing: the whole file is parsed and
// validated before anything is merged, so an error means zero entries were
// loaded and "treat it as a cold cache" is literally true. Loaded entries
// never displace verdicts the live process has already computed, and
// entries beyond a shard's capacity are dropped rather than evicting
// anything.
func (s *Solver) LoadCache(path string) (int, error) {
	if s.cache == nil {
		return 0, ErrCacheDisabled
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("solver: load cache: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, fmt.Errorf("solver: load cache %s: %w", path, err)
		}
		return 0, fmt.Errorf("solver: load cache %s: empty file", path)
	}
	var hdr cacheHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return 0, fmt.Errorf("solver: load cache %s:1: corrupt header: %w", path, err)
	}
	if hdr.Format != CacheFileVersion || hdr.Solver != Version {
		return 0, fmt.Errorf("%w: %s was written as format %d / %s, this solver reads format %d / %s",
			ErrCacheVersion, path, hdr.Format, hdr.Solver, CacheFileVersion, Version)
	}
	var entries []CacheEntry
	lineNo := 1
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ent CacheEntry
		if err := json.Unmarshal(sc.Bytes(), &ent); err != nil {
			return 0, fmt.Errorf("solver: load cache %s:%d: corrupt entry: %w", path, lineNo, err)
		}
		if !ent.valid() {
			return 0, fmt.Errorf("solver: load cache %s:%d: invalid entry (empty key or verdict %d)",
				path, lineNo, ent.Res)
		}
		entries = append(entries, ent)
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("solver: load cache %s: %w", path, err)
	}
	return s.ImportCache(entries)
}
