package solver

import (
	"sort"
	"strings"
	"sync"

	"achilles/internal/expr"
)

// verdict is one cached Check outcome. The model is stored as a private copy
// and cloned again on every hit, so callers may freely mutate what they get.
// loaded marks entries restored from a persisted cache file: they are
// re-verified against the live query on first hit (see Solver.Check) before
// being trusted, because the file contents are outside the process's control.
type verdict struct {
	res    Result
	model  expr.Env
	loaded bool
}

// verdictCache is the sharded formula→verdict memo. Striping the mutexes
// keeps concurrent analysis workers from serialising on a single lock; the
// per-shard entry cap bounds memory on long runs.
type verdictCache struct {
	shards  []verdictShard
	maxPerS int
}

type verdictShard struct {
	mu sync.Mutex
	m  map[string]verdict
}

func newVerdictCache(shards, maxPerShard int) *verdictCache {
	c := &verdictCache{
		shards:  make([]verdictShard, shards),
		maxPerS: maxPerShard,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]verdict)
	}
	return c
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

// fnv1a hashes a key onto a shard index.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func (c *verdictCache) shard(key string) *verdictShard {
	return &c.shards[fnv1a(key)%uint64(len(c.shards))]
}

func (c *verdictCache) get(key string) (verdict, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

func (c *verdictCache) put(key string, v verdict) {
	sh := c.shard(key)
	sh.mu.Lock()
	if _, exists := sh.m[key]; !exists && len(sh.m) >= c.maxPerS {
		for k := range sh.m { // evict one arbitrary entry
			delete(sh.m, k)
			break
		}
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

// putIfAbsent inserts a loaded entry without evicting solved ones: persisted
// verdicts must never displace entries the live process has already proven.
// It reports whether the entry was stored.
func (c *verdictCache) putIfAbsent(key string, v verdict) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.m[key]; exists || len(sh.m) >= c.maxPerS {
		return false
	}
	sh.m[key] = v
	return true
}

// snapshot copies every cached entry, sorted by key, for persistence.
func (c *verdictCache) snapshot() (keys []string, verdicts []verdict) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			keys = append(keys, k)
			verdicts = append(verdicts, v)
		}
		sh.mu.Unlock()
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sk := make([]string, len(keys))
	sv := make([]verdict, len(keys))
	for i, j := range order {
		sk[i], sv[i] = keys[j], verdicts[j]
	}
	return sk, sv
}
