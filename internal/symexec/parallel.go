package symexec

import (
	"sort"
	"sync"
)

// frontier is the shared exploration queue of a parallel run. It counts
// pending states (queued or currently executing) so that workers can tell
// "momentarily empty" apart from "exploration finished": a running state may
// still fork new work onto the stack.
type frontier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	stack   []*State
	pending int
	stopped bool
}

func newFrontier() *frontier {
	f := &frontier{}
	f.cond = sync.NewCond(&f.mu)
	return f
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
// is complete (no queued and no running states) or was stopped.
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
// ended — the truncation signal of a stopped parallel exploration.
func (f *frontier) leftover() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.stack) > 0
}

// runParallel explores the fork tree on Options.Parallelism workers. Each
// worker pops a state, runs it to a terminal status — publishing forked
// siblings to the shared frontier so idle workers pick them up — and records
// terminals into its private context. The merge is deterministic: terminal
// states are sorted by Trail (the canonical fork-tree order; see
// State.Trail for how it relates to the sequential completion order) and
// IDs are renumbered to that order.
//
// Cancellation: a watcher goroutine stops the frontier the moment the run
// context fires, waking blocked workers; running workers additionally poll
// the context at state boundaries and every stepCheckMask instructions, so
// no worker outlives the cancellation by more than a few hundred IR steps.
// A state caught mid-execution is dropped, not recorded — its status is
// still StatusRunning, and a half-executed state must not masquerade as a
// terminal one.
func (e *Engine) runParallel(init *State) {
	e.par = true
	e.front = newFrontier()
	e.front.push(init)

	watchDone := make(chan struct{})
	if e.ctx.Done() != nil {
		go func() {
			select {
			case <-e.ctx.Done():
				e.cancelled.Store(true)
				e.front.stop()
			case <-watchDone:
			}
		}()
	}

	workers := e.opts.Parallelism
	ctxs := make([]*wctx, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ctx := &wctx{}
		ctxs[w] = ctx
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := e.front.pop()
				if st == nil {
					return
				}
				for st.Status == StatusRunning {
					if st.Steps&stepCheckMask == 0 && e.ctxAborted() {
						break
					}
					if sibling := e.step(ctx, st); sibling != nil {
						e.front.push(sibling)
					}
				}
				if st.Status != StatusRunning {
					e.record(ctx, st)
				}
				e.front.done()
			}
		}()
	}
	wg.Wait()
	close(watchDone)

	var all []*State
	var stats Stats
	for _, ctx := range ctxs {
		all = append(all, ctx.terminals...)
		stats.States += ctx.stats.States
		stats.Forks += ctx.stats.Forks
		stats.Steps += ctx.stats.Steps
		stats.SolverCalls += ctx.stats.SolverCalls
		stats.Subsumed += ctx.stats.Subsumed
		stats.Witnessed += ctx.stats.Witnessed
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Trail < all[j].Trail })
	for i, st := range all {
		st.ID = i
	}
	stats.Cancelled = e.cancelled.Load()
	stats.Truncated = e.front.leftover() || stats.Cancelled
	e.res.States = all
	e.res.Stats = stats
}
