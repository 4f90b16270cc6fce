package solver

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"achilles/internal/expr"
)

// verdict is one cached Check outcome. The model is shared: the entry and
// every hit return the same map, so callers must treat a returned model as
// read-only. loaded marks entries restored from a persisted cache file: they
// are re-verified against the live query on first hit (see Solver.Check)
// before being trusted, because the file contents are outside the process's
// control.
type verdict struct {
	res    Result
	model  expr.Env
	loaded bool
}

// flight is one solve of a key in progress. Queries that miss the key while
// it is in flight wait on done instead of solving it again; the leader
// closes done once it has stored the verdict (settled) or given the key up
// because its context fired (withdrawn, settled false).
type flight struct {
	done    chan struct{}
	v       verdict
	settled bool
}

// verdictCache is the formula→verdict memo and its in-flight table, both
// under one mutex. The entry cap bounds memory on long runs.
type verdictCache struct {
	mu      sync.Mutex
	m       map[string]verdict
	flights map[string]*flight
	limit   int
}

func newVerdictCache(limit int) *verdictCache {
	return &verdictCache{m: map[string]verdict{}, flights: map[string]*flight{}, limit: limit}
}

// queryKey canonicalises a conjunction: per-constraint renderings are sorted
// so that reordered but semantically identical queries share one entry. The
// key is the full rendering (not a hash), so a hit can never alias two
// different formulas — cached verdicts stay sound.
func queryKey(constraints []*expr.Expr) string {
	parts := make([]string, len(constraints))
	n := 0
	for i, c := range constraints {
		parts[i] = c.String()
		n += len(parts[i]) + 1
	}
	sort.Strings(parts)
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		b.WriteString(p)
		b.WriteByte(0)
	}
	return b.String()
}

// queryKeySortedMerge assembles the queryKey key for the multiset union of
// two individually sorted render lists — a linear merge instead of a full
// re-sort. Both inputs must already be sorted. Every query's key is built
// here (Prefix.key).
func queryKeySortedMerge(a, b []string) string {
	n := 0
	for _, p := range a {
		n += len(p) + 1
	}
	for _, p := range b {
		n += len(p) + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			sb.WriteString(a[i])
			i++
		} else {
			sb.WriteString(b[j])
			j++
		}
		sb.WriteByte(0)
	}
	for ; i < len(a); i++ {
		sb.WriteString(a[i])
		sb.WriteByte(0)
	}
	for ; j < len(b); j++ {
		sb.WriteString(b[j])
		sb.WriteByte(0)
	}
	return sb.String()
}

// claim looks key up. A cached verdict is returned with ok set. Otherwise
// the flight solving key is returned, with lead set when this call opened
// it: the leader must end its flight with put or withdraw, every other
// caller waits on its done channel.
func (c *verdictCache) claim(key string) (v verdict, ok bool, f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok = c.m[key]; ok {
		return v, true, nil, false
	}
	if f = c.flights[key]; f != nil {
		return v, false, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return v, false, f, true
}

// put stores v under key. f is the caller's flight for key, or nil when it
// leads none; put ends it and hands v to its waiters.
func (c *verdictCache) put(key string, v verdict, f *flight) {
	c.mu.Lock()
	if _, exists := c.m[key]; !exists && len(c.m) >= c.limit {
		for k := range c.m { // evict one arbitrary entry
			delete(c.m, k)
			break
		}
	}
	c.m[key] = v
	if f != nil {
		delete(c.flights, key)
		f.v, f.settled = v, true
	}
	c.mu.Unlock()
	if f != nil {
		close(f.done)
	}
}

// withdraw ends a flight without a verdict; its waiters claim the key again
// and one of them solves it.
func (c *verdictCache) withdraw(key string, f *flight) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// putIfAbsent inserts a loaded entry without evicting solved ones: persisted
// verdicts must never displace entries the live process has already proven.
// It reports whether the entry was stored.
func (c *verdictCache) putIfAbsent(key string, v verdict) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists || len(c.m) >= c.limit {
		return false
	}
	c.m[key] = v
	return true
}

// snapshot copies every cached entry, sorted by key, for persistence.
func (c *verdictCache) snapshot() (keys []string, verdicts []verdict) {
	c.mu.Lock()
	m := maps.Clone(c.m)
	c.mu.Unlock()
	keys = slices.Sorted(maps.Keys(m))
	verdicts = make([]verdict, len(keys))
	for i, k := range keys {
		verdicts[i] = m[k]
	}
	return keys, verdicts
}
