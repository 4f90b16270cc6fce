package expr

// The canonical-node tables (hash-consing, after Filliâtre and Conchon,
// "Type-safe modular hash-consing", 2006). Operands are canonical already,
// so an operator's key is its kind and its operands' weak pointers, which
// no other node shares and which keep nothing alive: three words, hashed as
// plain memory. A node's cleanup removes its entry once it is collected;
// until then a lookup finds the entry dead and makes the node anew.

import (
	"runtime"
	"sync"
	"weak"
)

// leaf is the structure of a literal or a variable.
type leaf struct {
	kind Kind
	val  int64
	name string
}

// op is the structure of an operator node; b is zero for a unary one.
type op struct {
	a, b weak.Pointer[Expr]
	kind uint64
}

// table holds the live node of each structure K, weakly.
type table[K comparable] struct {
	sync.RWMutex
	m map[K]weak.Pointer[Expr]
}

var (
	leaves = table[leaf]{m: map[leaf]weak.Pointer[Expr]{}}
	ops    = table[op]{m: map[op]weak.Pointer[Expr]{}}
)

// node returns the live node of structure k, or else the node alloc makes,
// which becomes k's.
func (t *table[K]) node(k K, alloc func() *Expr) *Expr {
	t.RLock()
	e := t.m[k].Value()
	t.RUnlock()
	if e != nil {
		return e
	}
	e = named(alloc())
	t.Lock()
	if won := t.m[k].Value(); won != nil {
		t.Unlock() // another goroutine made it first; e was never published
		return won
	}
	t.m[k] = e.self // the slot is empty, or its node died before its cleanup ran
	t.Unlock()
	runtime.AddCleanup(e, t.release, k)
	return e
}

// named gives e the weak pointer that names it in keys.
func named(e *Expr) *Expr {
	e.self = weak.Make(e)
	return e
}

// release removes the entry of a collected node, unless the slot already
// holds a newer node of the same structure.
func (t *table[K]) release(k K) {
	t.Lock()
	defer t.Unlock()
	if t.m[k].Value() == nil {
		delete(t.m, k)
	}
}

// Live reports the number of entries in the canonical-node tables: one per
// node made by a constructor whose cleanup has not yet run. The boolean
// literals and the small integer constants are not in them.
func Live() int {
	leaves.RLock()
	defer leaves.RUnlock()
	ops.RLock()
	defer ops.RUnlock()
	return len(leaves.m) + len(ops.m)
}
