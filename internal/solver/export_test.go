package solver

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"achilles/internal/expr"
)

// QueryKey is the rendered reference for cache keys: the sorted renderings
// of a conjunction's constraints. A verdict-cache key names the same
// multiset by intern IDs, so a solver holds one entry per distinct QueryKey
// it was asked.
func QueryKey(constraints []*expr.Expr) string {
	parts := make([]string, len(constraints))
	for i, c := range constraints {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p)
		b.WriteByte(0)
	}
	return b.String()
}

// CacheLen reports the number of verdicts in s's cache.
func CacheLen(s *Solver) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.m)
}

// CachedQuery is one verdict-cache entry with its key decoded back into the
// query it names.
type CachedQuery struct {
	Constraints []*expr.Expr
	Res         Result
	Model       expr.Env
}

// CachedQueries decodes every entry of s's verdict cache: a key's deltas are
// summed back into intern-entry IDs and each ID is resolved to its entry's
// expression. It fails on a key that does not decode or that names an ID
// the intern table never issued.
func CachedQueries(s *Solver) ([]CachedQuery, error) {
	if s.cache == nil {
		return nil, nil
	}
	byID := map[uint64]*expr.Expr{}
	s.table.entries.Range(func(_, en any) bool {
		byID[en.(*internEntry).id] = en.(*internEntry).e
		return true
	})

	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	out := make([]CachedQuery, 0, len(s.cache.m))
	for key, v := range s.cache.m {
		q := CachedQuery{Res: v.res, Model: v.model}
		var id uint64
		for b := []byte(key); len(b) > 0; {
			d, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("cache key %x does not decode", key)
			}
			id += d
			b = b[n:]
			e, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("cache key %x names ID %d, which the intern table never issued", key, id)
			}
			q.Constraints = append(q.Constraints, e)
		}
		out = append(out, q)
	}
	return out, nil
}
