package symexec

import (
	"context"
	"slices"
	"strings"
	"sync"
)

// frontier is the exploration queue of a run: a LIFO stack shared by the
// run's workers. It counts pending states (queued or currently executing)
// so that workers can tell "momentarily empty" apart from "exploration
// finished": a running state may still fork new work onto the stack.
type frontier struct {
	mu      sync.Mutex
	cond    sync.Cond // L is &mu
	stack   []*State
	pending int
	stopped bool
}

// push enqueues a state and wakes one idle worker.
func (f *frontier) push(st *State) {
	f.mu.Lock()
	f.stack = append(f.stack, st)
	f.pending++
	f.mu.Unlock()
	f.cond.Signal()
}

// pop blocks until a state is available; it returns nil when the exploration
// is complete (no queued and no running states) or was stopped. A single
// worker never blocks: its own state is done before it pops again.
func (f *frontier) pop() *State {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.stack) == 0 && f.pending > 0 && !f.stopped {
		f.cond.Wait()
	}
	if f.stopped || len(f.stack) == 0 {
		return nil
	}
	st := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return st
}

// done marks one previously pushed state as fully executed.
func (f *frontier) done() {
	f.mu.Lock()
	f.pending--
	finished := f.pending == 0
	f.mu.Unlock()
	if finished {
		f.cond.Broadcast()
	}
}

// stop aborts the exploration (MaxStates reached): waiting workers return.
func (f *frontier) stop() {
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// leftover reports whether unexplored states remained queued when the run
// ended — the truncation signal of a stopped exploration.
func (f *frontier) leftover() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.stack) > 0
}

// abort stops the frontier because the run's context fired, and marks the
// run cancelled unless its frontier had already drained: a run that
// finished its tree before the context fired is complete.
func (e *engine) abort() {
	f := &e.front
	f.mu.Lock()
	if f.pending > 0 {
		e.cancelled.Store(true)
		f.stopped = true
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// explore runs the fork tree from init on max(1, Parallelism) workers —
// one for a concrete run, which is a single path — and merges their
// terminal states. Worker 0 is the calling goroutine, so a one-worker run
// starts no goroutine and pops states in depth-first (LIFO) order. Each
// worker pops a state, runs it to a terminal status — publishing forked
// siblings to the frontier, where idle workers pick them up — and records
// terminals into its private context. The merge sorts terminal states by
// Trail, the fork-tree order, and renumbers IDs to it, so the result does
// not depend on the worker count or on scheduling.
//
// Cancellation: context.AfterFunc stops the frontier the moment the run
// context fires, waking blocked workers; running workers poll the context
// every stepCheckMask instructions. A state caught mid-execution is
// dropped, not recorded — its status is still StatusRunning, and a
// half-executed state must not masquerade as a terminal one.
func (e *engine) explore(init *State) *Result {
	workers := 1
	if !e.opts.Concrete {
		workers = max(1, e.opts.Parallelism)
	}
	e.front.cond.L = &e.front.mu
	e.front.push(init)
	if e.ctx.Done() != nil {
		defer context.AfterFunc(e.ctx, e.abort)()
	}
	var first wctx
	rest := make([]wctx, workers-1)
	e.helpers.Add(len(rest))
	for i := range rest {
		go func(w *wctx) {
			defer e.helpers.Done()
			e.work(w)
		}(&rest[i])
	}
	e.work(&first)
	e.helpers.Wait()

	res := &Result{States: first.terminals, Stats: first.stats}
	for _, w := range rest {
		res.States = append(res.States, w.terminals...)
		res.Stats.States += w.stats.States
		res.Stats.Forks += w.stats.Forks
		res.Stats.Steps += w.stats.Steps
		res.Stats.SolverCalls += w.stats.SolverCalls
		res.Stats.Subsumed += w.stats.Subsumed
		res.Stats.Witnessed += w.stats.Witnessed
	}
	slices.SortFunc(res.States, func(a, b *State) int { return strings.Compare(a.Trail, b.Trail) })
	for i, st := range res.States {
		st.ID = i
	}
	res.Stats.Cancelled = e.cancelled.Load()
	res.Stats.Truncated = e.front.leftover() || res.Stats.Cancelled
	return res
}

// work is one worker's loop: pop a state, run it to a terminal status and
// record it, until the frontier is drained or stopped. A cancellable run
// polls its context before each popped state too: states shorter than
// stepCheckMask steps never reach the in-loop poll, and under load the
// AfterFunc callback can run only after such states have drained the
// frontier, which would report a cancelled run complete.
func (e *engine) work(w *wctx) {
	poll := e.ctx.Done() != nil
	for {
		st := e.front.pop()
		if st == nil {
			return
		}
		aborted := poll && e.ctxAborted()
		for !aborted && st.Status == StatusRunning {
			if st.Steps&stepCheckMask == 0 && e.ctxAborted() {
				break
			}
			if sibling := e.step(w, st); sibling != nil {
				e.front.push(sibling)
			}
		}
		if st.Status != StatusRunning {
			e.record(w, st)
		}
		e.front.done()
	}
}
