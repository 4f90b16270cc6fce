package dispatch

// The coordinator half of the protocol: spawn N workers, validate their
// hellos, seed their caches, shard the job graph by fingerprint, and merge
// results back into one campaign. It implements campaign.Executor, so the
// campaign engine drives it exactly like the in-process pool.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/solver"
)

// Config configures a worker fleet.
type Config struct {
	// Workers is the number of worker subprocesses to spawn (>= 1).
	Workers int

	// Command is the argv used to spawn each worker — typically
	// {"achilles-worker"}. Each worker speaks the dispatch protocol on its
	// stdin/stdout; stderr passes through to Stderr.
	Command []string

	// Solver is the coordinator-side solver. Its verdict cache seeds every
	// worker at spawn (so `-cache` warm-starts the fleet), and CollectCache
	// merges the verdicts the workers computed back into it (so `-cache`
	// persists fleet-learned verdicts). Nil means solver.Default().
	Solver *solver.Solver

	// Stderr receives the workers' stderr; nil means os.Stderr.
	Stderr io.Writer

	// spawn overrides subprocess creation (tests run Serve in-process over
	// pipes).
	spawn func(i int) (workerIO, error)
}

// workerIO is one spawned worker from the coordinator's side: a pipe pair
// plus lifecycle hooks. The process form closes over exec.Cmd; tests provide
// in-process equivalents.
type workerIO struct {
	in   io.WriteCloser // worker's stdin (coordinator writes)
	out  io.Reader      // worker's stdout (coordinator reads)
	wait func() error   // reap the worker; called exactly once, by its reader
	kill func()         // force termination when shutdown is ignored
}

func spawnProc(cfg Config) func(int) (workerIO, error) {
	return func(int) (workerIO, error) {
		cmd := exec.Command(cfg.Command[0], cfg.Command[1:]...)
		cmd.Stderr = cfg.Stderr
		if cmd.Stderr == nil {
			cmd.Stderr = os.Stderr
		}
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return workerIO{}, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return workerIO{}, err
		}
		if err := cmd.Start(); err != nil {
			return workerIO{}, err
		}
		return workerIO{
			in:   stdin,
			out:  stdout,
			wait: cmd.Wait,
			kill: func() { cmd.Process.Kill() },
		}, nil
	}
}

// workerProc is the coordinator's view of one worker.
type workerProc struct {
	id   int
	io   workerIO
	wire *wire

	wmu sync.Mutex // serialises writes to the worker's stdin

	mu       sync.Mutex
	inflight map[int]*inflightJob
	collects map[int]chan []solver.CacheEntry // pending collect replies by ID

	exited chan struct{} // closed by the reader once the worker is reaped
}

func (w *workerProc) send(m message) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.wire.write(m)
}

// inflightJob accumulates one assignment's result stream until msgDone (or
// the worker's death) closes done.
type inflightJob struct {
	done    chan struct{}
	rm      campaign.RunManifest
	reports []campaign.Report
	died    bool
}

var (
	errAllDead    = errors.New("dispatch: every worker has exited")
	errWorkerDied = errors.New("dispatch: worker died mid-job")
)

// Coordinator is the distributed campaign.Executor: jobs negotiated through
// it run on worker subprocesses, sharded by input fingerprint with work
// stealing and crash requeue.
type Coordinator struct {
	cfg     Config
	sol     *solver.Solver
	workers []*workerProc

	mu     sync.Mutex
	cond   *sync.Cond
	busy   []bool // worker i has an assignment in flight
	dead   []bool // worker i has exited
	home   map[string]int
	nextID int
	closed bool
}

// Start spawns the worker fleet and validates every worker's hello
// handshake; any spawn or handshake failure tears the whole fleet down and
// reports the error — a campaign must not silently run on a partial or
// version-skewed pool. The coordinator's solver cache (if any) is pushed to
// every worker before the first job.
func Start(cfg Config) (*Coordinator, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dispatch: need at least 1 worker, got %d", cfg.Workers)
	}
	spawn := cfg.spawn
	if spawn == nil {
		if len(cfg.Command) == 0 {
			return nil, errors.New("dispatch: no worker command")
		}
		spawn = spawnProc(cfg)
	}
	sol := cfg.Solver
	if sol == nil {
		sol = solver.Default()
	}
	c := &Coordinator{
		cfg:  cfg,
		sol:  sol,
		busy: make([]bool, cfg.Workers),
		dead: make([]bool, cfg.Workers),
		home: map[string]int{},
	}
	c.cond = sync.NewCond(&c.mu)

	fail := func(err error) (*Coordinator, error) {
		for _, w := range c.workers {
			w.io.in.Close()
			w.io.kill()
			w.io.wait()
		}
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		wio, err := spawn(i)
		if err != nil {
			return fail(fmt.Errorf("dispatch: spawning worker %d: %w", i, err))
		}
		w := &workerProc{
			id:       i,
			io:       wio,
			wire:     newWire(wio.out, wio.in),
			inflight: map[int]*inflightJob{},
			collects: map[int]chan []solver.CacheEntry{},
			exited:   make(chan struct{}),
		}
		c.workers = append(c.workers, w)
		// The handshake read is synchronous: the reader goroutine only takes
		// over the pipe once the worker has proven it speaks our dialect.
		m, err := w.wire.read()
		if err != nil {
			return fail(fmt.Errorf("dispatch: worker %d exited before hello: %w", i, err))
		}
		if err := checkHello(m); err != nil {
			return fail(fmt.Errorf("dispatch: worker %d: %w", i, err))
		}
	}

	// Seed every worker with the coordinator's warm cache (the -cache file a
	// campaign loaded before starting the fleet). Workers leave seeded keys
	// out of their collect replies, so none of this comes back.
	if entries, err := sol.ExportCache(); err == nil && len(entries) > 0 {
		for _, w := range c.workers {
			if err := w.send(message{Type: msgCache, Entries: entries}); err != nil {
				return fail(fmt.Errorf("dispatch: seeding worker %d cache: %w", w.id, err))
			}
		}
	}

	for _, w := range c.workers {
		go c.readLoop(w)
	}
	return c, nil
}

// Negotiate implements campaign.Executor: it records every pending job's
// home worker — fnv32a(fingerprint) mod fleet size, so the shard assignment
// is stable across runs and worker counts divide the graph the same way —
// and grants one campaign lane per worker (capped at the pending job count),
// splitting the global -j budget across lanes with no lane floored to zero.
func (c *Coordinator) Negotiate(budget int, pending []campaign.PlannedJob) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.workers)
	for _, p := range pending {
		h := fnv.New32a()
		io.WriteString(h, p.Fingerprint)
		c.home[p.Job.Key()] = int(h.Sum32() % uint32(n))
	}
	lanes := n
	if lanes > len(pending) {
		lanes = len(pending)
	}
	return campaign.SplitBudget(budget, lanes)
}

// Run implements campaign.Executor: ship the job to a free worker —
// preferring its fingerprint home, stealing any other free worker when the
// home is busy or gone — and stream the result back. A worker dying mid-job
// requeues the job on the next free worker; only a fully dead fleet fails
// it. Cancellation returns the same "interrupted: …" manifest entry the
// local backend produces.
func (c *Coordinator) Run(ctx context.Context, j campaign.Job, parallelism int) (campaign.RunManifest, []campaign.Report) {
	for {
		w, err := c.acquire(ctx, j.Key())
		if errors.Is(err, errAllDead) {
			return campaign.ErrorManifest(j, fmt.Sprintf("dispatch: all %d workers exited before %s could run", len(c.workers), j.Key())), nil
		}
		if err != nil {
			return campaign.InterruptedManifest(j, err), nil
		}
		rm, reports, err := c.runOn(ctx, w, j, parallelism)
		c.release(w)
		if errors.Is(err, errWorkerDied) {
			continue // requeue on whoever is still alive
		}
		return rm, reports
	}
}

// acquire blocks until a worker is free, preferring the job's home worker
// when it is among the free ones. It fails fast when the whole fleet is dead
// or the context is cancelled.
func (c *Coordinator) acquire(ctx context.Context, key string) (*workerProc, error) {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		homeID, hasHome := c.home[key]
		alive := 0
		pick := -1
		for i := range c.workers {
			if c.dead[i] {
				continue
			}
			alive++
			if c.busy[i] {
				continue
			}
			// Home affinity first; otherwise steal the lowest free worker.
			if pick == -1 || (hasHome && i == homeID) {
				pick = i
			}
		}
		if alive == 0 {
			return nil, errAllDead
		}
		if pick >= 0 {
			c.busy[pick] = true
			return c.workers[pick], nil
		}
		c.cond.Wait()
	}
}

func (c *Coordinator) release(w *workerProc) {
	c.mu.Lock()
	c.busy[w.id] = false
	c.cond.Broadcast()
	c.mu.Unlock()
}

// runOn ships one assignment to w and waits for its completion, the
// worker's death, or cancellation.
func (c *Coordinator) runOn(ctx context.Context, w *workerProc, j campaign.Job, parallelism int) (campaign.RunManifest, []campaign.Report, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	p := &inflightJob{done: make(chan struct{})}
	w.mu.Lock()
	w.inflight[id] = p
	w.mu.Unlock()

	if err := w.send(message{Type: msgJob, ID: id, Target: j.Target, Mode: j.Mode.String(), Parallelism: parallelism}); err != nil {
		// The pipe is gone; the reader goroutine is about to mark the worker
		// dead. Requeue without waiting for it.
		w.mu.Lock()
		delete(w.inflight, id)
		w.mu.Unlock()
		return campaign.RunManifest{}, nil, errWorkerDied
	}

	select {
	case <-p.done:
		w.mu.Lock()
		rm, reports, died := p.rm, p.reports, p.died
		w.mu.Unlock()
		if died {
			return campaign.RunManifest{}, nil, errWorkerDied
		}
		return rm, reports, nil
	case <-ctx.Done():
		// The worker keeps running until Close tears it down, but the
		// campaign contract wants a prompt interrupted entry — partial
		// results are discarded, same as the local backend.
		w.mu.Lock()
		delete(w.inflight, id)
		w.mu.Unlock()
		return campaign.InterruptedManifest(j, ctx.Err()), nil, nil
	}
}

// readLoop owns a worker's stdout: it routes report/done messages to their
// in-flight assignment and collect replies to their waiting CollectCache.
// When the pipe breaks it reaps the worker, fails its in-flight assignment
// (triggering the requeue) and wakes every acquire waiter.
func (c *Coordinator) readLoop(w *workerProc) {
	for {
		m, err := w.wire.read()
		if err != nil {
			break
		}
		switch m.Type {
		case msgReport:
			w.mu.Lock()
			if p := w.inflight[m.ID]; p != nil && m.Report != nil {
				p.reports = append(p.reports, *m.Report)
			}
			w.mu.Unlock()
		case msgDone:
			w.mu.Lock()
			if p := w.inflight[m.ID]; p != nil {
				if m.Run != nil {
					p.rm = *m.Run
				}
				delete(w.inflight, m.ID)
				close(p.done)
			}
			w.mu.Unlock()
		case msgCache:
			w.mu.Lock()
			if reply := w.collects[m.ID]; reply != nil {
				delete(w.collects, m.ID)
				reply <- m.Entries // buffered: one reply per request
			}
			w.mu.Unlock()
		default:
			// Forward compatibility: ignore unknown uplink types.
		}
	}
	w.io.wait()
	c.mu.Lock()
	c.dead[w.id] = true
	c.cond.Broadcast()
	c.mu.Unlock()
	w.mu.Lock()
	for id, p := range w.inflight {
		p.died = true
		delete(w.inflight, id)
		close(p.done)
	}
	w.mu.Unlock()
	close(w.exited)
}

// CollectCache merges the verdicts every live worker computed itself (not
// its seed) into the coordinator's solver and returns how many were new to
// it. Workers answer from their reader goroutine, so a reply never waits
// behind a job in flight; a worker that dies first is skipped, and a
// cancelled ctx ends the wait with ctx.Err().
func (c *Coordinator) CollectCache(ctx context.Context) (int, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	replies := make([]chan []solver.CacheEntry, len(c.workers))
	for i, w := range c.workers {
		// Buffered: a reply that outlives an abandoned wait must not block
		// the reader.
		replies[i] = make(chan []solver.CacheEntry, 1)
		w.mu.Lock()
		w.collects[id] = replies[i]
		w.mu.Unlock()
		w.send(message{Type: msgCollect, ID: id}) // fails only on a dead worker
	}
	merged := 0
	var errs []error
	for i, w := range c.workers {
		var entries []solver.CacheEntry
		select {
		case entries = <-replies[i]:
		case <-w.exited:
			// The reader delivers a reply before it closes exited.
			select {
			case entries = <-replies[i]:
			default:
				continue
			}
		case <-ctx.Done():
			return merged, ctx.Err()
		}
		n, err := c.sol.ImportCache(entries)
		if err != nil {
			errs = append(errs, fmt.Errorf("dispatch: worker %d: %w", w.id, err))
		}
		merged += n
	}
	return merged, errors.Join(errs...)
}

// Close tears the fleet down leak-free: a clean shutdown message and stdin
// close first, then a kill for any worker that has not exited within the
// grace period, and finally a join on every reader goroutine. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	for _, w := range c.workers {
		w.send(message{Type: msgShutdown})
		w.io.in.Close()
	}
	for _, w := range c.workers {
		select {
		case <-w.exited:
		case <-time.After(10 * time.Second):
			w.io.kill()
			<-w.exited
		}
	}
	return nil
}
