// Package ptpool is the one pthread OpenMP engine both pthread-based
// runtimes of this reproduction are built on (internal/gomp and
// internal/iomp).
//
// Both GNU's libgomp and the Intel OpenMP runtime keep the threads of the
// top-level team alive across parallel regions and dispatch a region by
// handing the team the function pointer to execute — the "work assignment
// step" whose cost the paper isolates in Fig. 7 and finds cheaper than
// GLTO's ULT creation. Pool reproduces that mechanism: dispatch is one
// pointer store plus an epoch bump; workers either spin on the epoch
// (OMP_WAIT_POLICY=active) or sleep on a channel (passive). Engine adds
// everything else the two runtimes share: the task cut-off, task enqueue,
// the wait step's task hunt, taskwait and idling.
//
// The paper separates the two runtimes on exactly two mechanisms, and each
// runtime supplies those itself: a TaskQueue (GNU's one shared queue,
// Intel's per-thread deques with the Fig. 14 cut-off, §III-A) and Nested
// (fresh threads per inner region for GNU, a reused thread cache for Intel,
// §VI-D and Table II).
package ptpool

import (
	"runtime"
	"sync/atomic"

	"repro/internal/pthread"
	"repro/omp"
)

// Region is the work one pool worker performs for one parallel region.
type Region struct {
	// Size is the team size; workers with rank >= Size sit the region out.
	Size int
	// Run executes the region body for the given team rank (1..Size-1; the
	// master runs rank 0 itself).
	Run func(rank int)
}

// Pool is a persistent set of OS-thread-backed workers plus the master's
// dispatch mechanism. The master (the goroutine calling Dispatch) is rank 0
// and is not a pool worker.
type Pool struct {
	mode    pthread.WaitMode
	workers []*worker
	epoch   atomic.Uint64
	region  atomic.Pointer[Region]
	stop    atomic.Bool

	// created is credited with every worker this pool starts: the owning
	// runtime's ThreadsCreated counter (Table II accounting).
	created *atomic.Int64
}

type worker struct {
	pool *Pool
	rank int
	th   *pthread.Thread
	seen uint64
	done atomic.Uint64
	wake chan struct{}
}

// New creates a pool able to serve teams up to size n (so n-1 workers) with
// the given wait policy, crediting every worker it starts to created.
func New(n int, mode pthread.WaitMode, created *atomic.Int64) *Pool {
	p := &Pool{mode: mode, created: created}
	p.Grow(n)
	return p
}

// WaitMode maps the OMP_WAIT_POLICY ICV onto the pool's wait mode.
func WaitMode(cfg omp.Config) pthread.WaitMode {
	if cfg.WaitPolicy == omp.ActiveWait {
		return pthread.ActiveWait
	}
	return pthread.PassiveWait
}

// Grow ensures the pool can serve teams of size n, starting additional
// workers if needed. Shrinking is never performed: like the native runtimes,
// once grown the pool keeps its threads.
func (p *Pool) Grow(n int) {
	for len(p.workers) < n-1 {
		w := &worker{pool: p, rank: len(p.workers) + 1, wake: make(chan struct{}, 1)}
		p.workers = append(p.workers, w)
		p.created.Add(1)
		w.th = pthread.Create(w.loop)
	}
}

// Size reports the current maximum team size (workers + master).
func (p *Pool) Size() int { return len(p.workers) + 1 }

// Dispatch runs one parallel region on the pool: it assigns r to every
// worker (the Fig. 7 "work assignment step"), runs rank 0 as the caller, and
// returns once every participating worker has finished its part. The
// region's own barrier semantics (the implicit barrier at region end) are
// the caller's responsibility inside r.Run; Dispatch only guarantees the
// pool is quiescent and reusable when it returns.
func (p *Pool) Dispatch(r *Region) {
	if r.Size > p.Size() {
		p.Grow(r.Size)
	}
	p.region.Store(r)
	next := p.epoch.Add(1)
	if p.mode == pthread.PassiveWait {
		for _, w := range p.workers {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
	// Master's own share of the region.
	r.Run(0)
	// Wait for the workers to retire the epoch so the pool can be reused.
	for _, w := range p.workers {
		for w.done.Load() < next {
			runtime.Gosched()
		}
	}
}

// Shutdown stops and joins all workers.
func (p *Pool) Shutdown() {
	p.stop.Store(true)
	p.epoch.Add(1)
	for _, w := range p.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	for _, w := range p.workers {
		w.th.Join()
	}
	p.workers = nil
}

func (w *worker) loop() {
	for {
		// Wait for a new epoch.
		switch w.pool.mode {
		case pthread.ActiveWait:
			spins := 0
			for w.pool.epoch.Load() == w.seen && !w.pool.stop.Load() {
				spins++
				if spins%64 == 0 {
					runtime.Gosched()
				}
			}
		case pthread.PassiveWait:
			for w.pool.epoch.Load() == w.seen && !w.pool.stop.Load() {
				<-w.wake
			}
		}
		if w.pool.stop.Load() {
			return
		}
		w.seen = w.pool.epoch.Load()
		r := w.pool.region.Load()
		if r != nil && w.rank < r.Size {
			r.Run(w.rank)
		}
		w.done.Store(w.seen)
	}
}
