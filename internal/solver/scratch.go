package solver

// Per-query scratch. A query that misses the verdict cache walks a DPLL
// split tree, asks the refutation gate at every split node and searches at
// every leaf. A scratch holds the buffers all three work in for one query
// and goes back to scratchPool when the query returns, so a query on warm
// buffers allocates nothing but its Sat model:
//
//   - conj and disj are the split tree's stacks (see Solver.solve);
//   - ids and key hold the gate's sorted-ID set key, looked up with
//     m[string(key)], so only an insert allocates;
//   - the conjState slices are reused by every gate and leaf of the
//     query: their states never overlap, as a gate's state is dead
//     before its node splits;
//   - doms holds one child domain buffer per search depth;
//   - env is the verification env; a Sat model is a fresh copy of it.
//
// A query's work counters accumulate in its tally and reach the solver's
// atomic counters when the query ends and every 64 decisions inside a
// search. The reference's states carry no scratch (reference.go), so their
// counts go to the counters directly.
//
// The pointer-holding buffers are cleared before a scratch returns to the
// pool, so a pooled buffer keeps no finished query's trees, or a discarded
// solver's arena, reachable.

import (
	"sync"

	"achilles/internal/expr"
)

// tally is one query's not yet published work, indexed like counters; a
// query tallies only its work counters (Decisions through RoundCaps).
type tally [nCounters]int64

// scratch is the reusable working memory of one query (see the file
// comment). It is used by one goroutine at a time.
type scratch struct {
	conj, disj []*internEntry // split-tree stacks
	ids        []uint64       // gate key: the sorted ID set
	key        []byte         // gate key: its encoding

	atoms      []*linAtom
	nonlin     []*expr.Expr
	nonlinVars [][]string
	orig       []*expr.Expr
	vars, tmp  []string // variable table and its merge buffer
	dom        []interval
	slots      []int32
	free       []term
	doms       [][]interval // one child domain buffer per search depth
	env, point expr.Env     // finish's verification env, pointEnv's env

	tally tally
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{env: expr.Env{}, point: expr.Env{}}
}}

// getScratch takes a scratch from the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch clears the scratch's pointers and returns it to the pool. The
// tally must have been flushed.
func putScratch(sc *scratch) {
	clear(sc.conj[:cap(sc.conj)])
	clear(sc.disj[:cap(sc.disj)])
	clear(sc.atoms[:cap(sc.atoms)])
	clear(sc.nonlin[:cap(sc.nonlin)])
	clear(sc.nonlinVars[:cap(sc.nonlinVars)])
	clear(sc.orig[:cap(sc.orig)])
	clear(sc.vars[:cap(sc.vars)])
	clear(sc.tmp[:cap(sc.tmp)])
	clear(sc.env)
	clear(sc.point)
	scratchPool.Put(sc)
}

// add counts one unit of work k: in the state's query tally, or straight
// in the solver's counters for a reference state, which has no scratch.
func (s *Solver) add(cs *conjState, k counter) {
	if cs.sc != nil {
		cs.sc.tally[k]++
		return
	}
	s.stats.add(k, 1)
}

// flush publishes a tally to the solver's counters and zeroes it.
func (s *Solver) flush(t *tally) {
	for k, n := range t {
		if n != 0 {
			s.stats.add(counter(k), n)
		}
	}
	*t = tally{}
}

// conjState assembles the conjunction search state of entries on the
// scratch's buffers: linearisations and variable lists come from the arena
// instead of being recomputed. The dense layout is left to the first
// propagate: the refutation layer in front of it needs only the atoms. The
// state is returned by value so that it can live on the caller's stack; it
// is valid until the next conjState call on sc.
func (sc *scratch) conjState(entries []*internEntry) conjState {
	cs := conjState{sc: sc, entries: entries, atoms: sc.atoms[:0], nonlin: sc.nonlin[:0], nonlinVars: sc.nonlinVars[:0]}
	for _, en := range entries {
		if en.la != nil {
			cs.atoms = append(cs.atoms, en.la)
		} else {
			cs.nonlin = append(cs.nonlin, en.e)
			cs.nonlinVars = append(cs.nonlinVars, en.vars)
		}
	}
	sc.atoms, sc.nonlin, sc.nonlinVars = cs.atoms, cs.nonlin, cs.nonlinVars
	return cs
}

// varTable returns the sorted, duplicate-free union of the entries'
// variable names, merged from their already sorted lists into the scratch.
// The table is valid until the next varTable call on sc.
func (sc *scratch) varTable(entries []*internEntry) []string {
	out := sc.vars[:0]
	for _, en := range entries {
		if subset(en.vars, out) {
			continue
		}
		merged := sc.tmp[:0]
		i, j := 0, 0
		for i < len(out) || j < len(en.vars) {
			switch {
			case j == len(en.vars) || (i < len(out) && out[i] < en.vars[j]):
				merged = append(merged, out[i])
				i++
			case i == len(out) || en.vars[j] < out[i]:
				merged = append(merged, en.vars[j])
				j++
			default:
				merged = append(merged, out[i])
				i, j = i+1, j+1
			}
		}
		sc.tmp, out = out, merged
	}
	sc.vars = out
	return out
}

// subset reports whether every name of the sorted list names occurs in the
// sorted list of.
func subset(names, of []string) bool {
	i := 0
	for _, n := range names {
		for i < len(of) && of[i] < n {
			i++
		}
		if i == len(of) || of[i] != n {
			return false
		}
	}
	return true
}

// atomSetKey encodes the sorted, deduplicated interned-ID set of a
// conjunction into the scratch's key buffer: the feasible memo's key (see
// learn.go). The key is valid until the next atomSetKey call on sc.
func (sc *scratch) atomSetKey(entries []*internEntry) []byte {
	ids := sc.ids[:0]
	for _, en := range entries {
		ids = append(ids, en.id)
	}
	// Insertion sort: conjunctions are small and mostly pre-sorted (prefix
	// atoms intern in path order).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	sc.ids = ids
	sc.key = appendIDSet(sc.key[:0], ids)
	return sc.key
}

// domBuf returns the child domain buffer of search depth d, n slots long.
func (sc *scratch) domBuf(d, n int) []interval {
	for len(sc.doms) <= d {
		sc.doms = append(sc.doms, nil)
	}
	sc.doms[d] = grow(sc.doms[d], n)
	return sc.doms[d]
}

// grow returns buf resized to n, reallocating when its capacity is short.
// The result is never nil, which propagate reads as "laid out".
func grow(buf []interval, n int) []interval {
	if cap(buf) < n || buf == nil {
		return make([]interval, n, max(n, 8))
	}
	return buf[:n]
}
