package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"achilles/internal/campaign"
)

// hashPattern is the shape of a bundle content address (see
// campaign.Bundle.ContentHash): 128 bits of SHA-256, lowercase hex. Every
// hash arriving over the wire is validated against it before touching the
// filesystem.
var hashPattern = regexp.MustCompile(`^[0-9a-f]{32}$`)

// Store is the daemon's content-addressed bundle store: finished runs are
// persisted as ordinary versioned audit bundles (manifest.json + per-job
// JSONL report streams — the same on-disk layout achilles-audit writes)
// under <dir>/<content-hash>/. Content addressing makes persistence
// idempotent and deduplicating: two jobs that found exactly the same thing
// share one bundle, and re-auditing an unchanged fleet stores nothing new.
type Store struct {
	dir string
	// mu serializes writers: two jobs finishing with the same content must
	// not interleave writes into the same directory.
	mu sync.Mutex
}

func newStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Put persists the bundle under its content address and returns the hash.
// A bundle already present (same address, complete manifest) is reused
// as-is; a partial leftover from a crashed write is replaced. A reused
// bundle keeps the first job's manifest, its solver map and wall_ms
// included; a later job's own unit outcomes, wall times and solver map are
// in its job status (GET /v1/jobs/{id}).
func (st *Store) Put(b *campaign.Bundle) (string, error) {
	h, err := b.ContentHash()
	if err != nil {
		return "", err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	dir := filepath.Join(st.dir, h)
	if _, err := os.Stat(filepath.Join(dir, campaign.ManifestName)); err == nil {
		return h, nil
	}
	// Overwrite rather than Write: a directory holding report streams but no
	// manifest is a crashed previous attempt (the manifest is written last).
	if err := b.Overwrite(dir); err != nil {
		return "", err
	}
	return h, nil
}

// Get loads and validates the bundle at hash.
func (st *Store) Get(hash string) (*campaign.Bundle, error) {
	dir, err := st.bundleDir(hash)
	if err != nil {
		return nil, err
	}
	return campaign.Read(dir)
}

// FilePath resolves one raw file of a stored bundle (the manifest or a
// report stream) for serving over the wire, refusing anything that is not a
// plain bundle member name.
func (st *Store) FilePath(hash, name string) (string, error) {
	dir, err := st.bundleDir(hash)
	if err != nil {
		return "", err
	}
	if name != filepath.Base(name) || name == "" || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("serve: invalid bundle file name %q", name)
	}
	if name != campaign.ManifestName && !strings.HasSuffix(name, ".jsonl") {
		return "", fmt.Errorf("serve: %q is not a bundle member", name)
	}
	return filepath.Join(dir, name), nil
}

// List returns the manifests of every stored bundle with its content hash.
func (st *Store) List() ([]campaign.ListedBundle, error) {
	return campaign.List(st.dir)
}

// bundleDir validates the hash format before deriving a path from it.
func (st *Store) bundleDir(hash string) (string, error) {
	if !hashPattern.MatchString(hash) {
		return "", fmt.Errorf("serve: invalid bundle hash %q", hash)
	}
	return filepath.Join(st.dir, hash), nil
}
