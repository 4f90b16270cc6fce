package solver

import (
	"encoding/binary"
	"sync"

	"achilles/internal/expr"
)

// verdict is one cached Check outcome. The model is shared: the entry and
// every hit return the same map, so callers must treat a returned model as
// read-only.
type verdict struct {
	res   Result
	model expr.Env
}

// flight is one solve of a key in progress. Queries that miss the key while
// it is in flight wait on done instead of solving it again; the leader
// closes done once it has stored the verdict (settled) or given the key up
// because its context fired (withdrawn, settled false). Most keys are never
// asked twice at once, so done is made by the first waiter, under the
// cache's mutex, and stays nil when nobody waits. key is the flight's map
// key, allocated once per miss and shared by the flight table and the
// verdict map.
type flight struct {
	key     string
	done    chan struct{}
	v       verdict
	settled bool
}

// verdictCache is the formula→verdict memo and its in-flight table, both
// under one mutex. The entry cap bounds memory on long runs.
//
// A key is the sorted multiset of the query's top-level intern-entry IDs
// (appendIDKey). Entries are canonical, so reordered but structurally
// identical queries share one key, and two distinct entries never share an
// ID, so a hit can never alias two different formulas. IDs are per solver:
// keys mean nothing to another solver or process, and none leaves this one.
type verdictCache struct {
	mu      sync.Mutex
	m       map[string]verdict
	flights map[string]*flight
	limit   int
}

func newVerdictCache(limit int) *verdictCache {
	return &verdictCache{m: map[string]verdict{}, flights: map[string]*flight{}, limit: limit}
}

// appendIDKey appends the cache key of the multiset union of two sorted
// ID lists to buf: one linear merge, each ID delta-encoded against the one
// before it as a uvarint. Duplicates are kept (a zero delta), so the key
// names the multiset exactly, as the feasible memo's appendIDSet names a set.
func appendIDKey(buf []byte, a, b []uint64) []byte {
	var last uint64
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var id uint64
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			id = a[i]
			i++
		} else {
			id = b[j]
			j++
		}
		buf = binary.AppendUvarint(buf, id-last)
		last = id
	}
	return buf
}

// claim looks key up. A cached verdict is returned with ok set. Otherwise
// the flight solving key is returned, with lead set when this call opened
// it: the leader must end its flight with put or withdraw, every other
// caller waits on its done channel, which claim makes for the first of
// them. A hit allocates nothing: the lookups read key in place.
func (c *verdictCache) claim(key []byte) (v verdict, ok bool, f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok = c.m[string(key)]; ok {
		return v, true, nil, false
	}
	if f = c.flights[string(key)]; f != nil {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		return v, false, f, false
	}
	f = &flight{key: string(key)}
	c.flights[f.key] = f
	return v, false, f, true
}

// put stores v under f's key and ends f, handing v to its waiters.
func (c *verdictCache) put(f *flight, v verdict) {
	c.mu.Lock()
	if _, exists := c.m[f.key]; !exists && len(c.m) >= c.limit {
		for old := range c.m { // evict one arbitrary entry
			delete(c.m, old)
			break
		}
	}
	c.m[f.key] = v
	delete(c.flights, f.key)
	f.v, f.settled = v, true
	done := f.done
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// withdraw ends a flight without a verdict; its waiters claim the key again
// and one of them solves it.
func (c *verdictCache) withdraw(f *flight) {
	c.mu.Lock()
	delete(c.flights, f.key)
	done := f.done
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}
