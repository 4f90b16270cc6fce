package solver

// The split-gate feasible memo. Every DPLL split node first asks the
// budget-free refutation layer (linearConflict, then interval propagation)
// whether the partial conjunction is already refuted (Solver.feasible).
// Sibling split branches, and the Trojan negation queries the analysis
// issues path after path, rebuild the same partial conjunctions over and
// over, so the "not refuted" answers are recorded by interned-atom set and
// replayed: a hit skips the conjState build and the propagation run.
//
// Soundness and exactness:
//
//   - the gate is a pure function of the atom set. The per-atom tighteners
//     are monotone narrowing operators, so propagation from full domains
//     reaches one fixpoint whatever order the atoms come in, and a duplicate
//     atom changes nothing. The one caveat is the bounded round count in
//     propagate: a run the cap stops can end above the fixpoint, and two
//     orderings of one set could then disagree. The cap exists only as a
//     termination backstop for adversarial narrowing chains; Stats.RoundCaps
//     counts the runs it stops, and TestAuditsNeverHitPropagationRoundCap
//     (internal/campaign) holds that count at 0 on the fleet in all three
//     modes and on the rich FSP corpus;
//   - a hit only ever answers "not refuted", which decides nothing but
//     whether the node splits further. Refuted sets are not recorded, so a
//     refutation is always re-derived by the same budget-free layer, and no
//     verdict, model or budget count can move;
//   - keys are sorted, deduplicated ID sets: order-variants of one
//     conjunction alias deliberately, mirroring the sorted renderings the
//     verdict cache keys on.
//
// The memo is in-memory only. It is never persisted — IDs are per-solver and
// scheduling-dependent — so a solver.Version bump can never replay a stale
// entry from disk (see persist.go for the cache-file gate).

import (
	"encoding/binary"
	"sync"
)

// feasibleCap bounds the memo. Recording stops at the cap (no eviction): a
// full memo keeps serving its hits, and correctness never depends on an
// insert landing.
const feasibleCap = 1 << 16

// feasibleMemo is the mutex-guarded set of conjunctions the split gate did
// not refute.
type feasibleMemo struct {
	mu sync.Mutex
	m  map[string]struct{}
}

func newFeasibleMemo() *feasibleMemo {
	return &feasibleMemo{m: make(map[string]struct{})}
}

// atomSetKey encodes the sorted, deduplicated interned-ID set of a
// conjunction as a compact byte string.
func atomSetKey(entries []*internEntry) string {
	ids := make([]uint64, 0, len(entries))
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
	buf := make([]byte, 0, len(ids)*2)
	var last uint64
	for i, id := range ids {
		if i > 0 && id == last {
			continue
		}
		// Delta-encode against the previous ID: sorted sets varint-pack well.
		buf = binary.AppendUvarint(buf, id-last)
		last = id
	}
	return string(buf)
}

// has reports whether the conjunction key was recorded as not refuted.
func (f *feasibleMemo) has(key string) bool {
	f.mu.Lock()
	_, ok := f.m[key]
	f.mu.Unlock()
	return ok
}

// add records a conjunction key, dropping it when the memo is full.
func (f *feasibleMemo) add(key string) {
	f.mu.Lock()
	if len(f.m) < feasibleCap {
		f.m[key] = struct{}{}
	}
	f.mu.Unlock()
}
