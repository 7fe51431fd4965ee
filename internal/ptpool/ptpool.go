// Package ptpool is the one pthread OpenMP engine both pthread-based
// runtimes of this reproduction are built on (internal/gomp and
// internal/iomp).
//
// Both GNU's libgomp and the Intel OpenMP runtime keep the threads of the
// top-level team alive across parallel regions and dispatch a region by
// handing the team the function pointer to execute — the "work assignment
// step" whose cost the paper isolates in Fig. 7 and finds cheaper than
// GLTO's ULT creation. Pool reproduces that mechanism: dispatch is one
// pointer store plus an epoch bump. Workers spin on the epoch for the
// policy's omp.WaitPolicy.SpinBudget loads, then block on a channel
// (OMP_WAIT_POLICY=passive) or take one scheduler yield (active) and spin
// again; active waiting never blocks. The dispatcher's wait for the workers
// to retire the epoch spins the same budget between its yields. Engine adds
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
	policy  omp.WaitPolicy
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
func New(n int, policy omp.WaitPolicy, created *atomic.Int64) *Pool {
	p := &Pool{policy: policy, created: created}
	p.Grow(n)
	return p
}

// Grow ensures the pool can serve teams of size n, starting additional
// workers if needed. Shrinking is never performed: like the native runtimes,
// once grown the pool keeps its threads. A new worker starts at the current
// epoch, so the first region it runs is the next one dispatched.
func (p *Pool) Grow(n int) {
	for len(p.workers) < n-1 {
		w := &worker{pool: p, rank: len(p.workers) + 1, seen: p.epoch.Load(), wake: make(chan struct{}, 1)}
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
	if p.policy == omp.PassiveWait {
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
	budget := p.policy.SpinBudget()
	for _, w := range p.workers {
		for spins := 0; w.done.Load() < next; {
			if spins < budget {
				spins++
				continue
			}
			spins = 0
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

// loop waits for each new epoch (Shutdown bumps it too) and runs the
// worker's share of the region it publishes.
func (w *worker) loop() {
	p := w.pool
	budget := p.policy.SpinBudget()
	for {
		for spins := 0; p.epoch.Load() == w.seen; {
			if spins < budget {
				spins++
				continue
			}
			spins = 0
			if p.policy == omp.ActiveWait {
				runtime.Gosched()
			} else {
				<-w.wake
			}
		}
		if p.stop.Load() {
			return
		}
		w.seen = p.epoch.Load()
		r := p.region.Load()
		if r != nil && w.rank < r.Size {
			r.Run(w.rank)
		}
		w.done.Store(w.seen)
	}
}
