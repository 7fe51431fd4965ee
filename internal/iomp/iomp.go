// Package iomp implements an Intel-OpenMP-runtime-like OpenMP runtime over
// the pthread substrate, registered with the omp front end as "iomp".
//
// The behaviours that drive the paper's results are reproduced:
//
//   - Persistent top-level team with function-pointer work assignment
//     (cheap dispatch, Fig. 7), like the GNU runtime.
//   - Nested regions draw threads from a free pool and return them ("Intel
//     solution reuses the idle threads", §VI-D): at 36 outer threads and 100
//     inner regions it creates 1,296 threads and reuses 2,240 (Table II) —
//     still oversubscribing the machine, hence still an order of magnitude
//     behind GLTO in Figs. 8/9, but ahead of GNU.
//   - One task deque per thread with work stealing for load balance
//     (§III-A), whose contention at high thread counts is one of the two
//     causes of the Fig. 10-13 task-parallel collapse. Deferred tasks are
//     appended to the owner's deque in producer-side batches by default
//     (one deque lock per batch); Config.PerUnitDispatch or a negative
//     TaskBuffer restores one locked push per task.
//   - The task cut-off mechanism: once a thread has TaskCutoff tasks queued
//     (256 by default), new tasks execute immediately as sequential code
//     (§VI-E, Table III, Fig. 14). Undeferred execution is cheaper per task
//     but serializes the producer. The observable queue length counts
//     buffered-but-unflushed tasks, so the cut-off fires at exactly the same
//     task counts with batching on or off — and the buffer is flushed before
//     the producer drops into undeferred execution, so thieves see the full
//     backlog just as they would in the native runtime.
//
// The package implements the runtime SPI (omp.RegionEngine + omp.EngineOps);
// the embedded omp.Frontend owns the Team/TC lifecycle.
package iomp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pthread"
	"repro/internal/ptpool"
	"repro/omp"
)

func init() {
	omp.RegisterRuntime("iomp", func(cfg omp.Config) (omp.Runtime, error) {
		return New(cfg)
	})
}

// Runtime is the Intel-like OpenMP runtime.
type Runtime struct {
	*omp.Frontend

	// cfg is the construction-time snapshot; only ICVs that cannot change
	// after New are read from it (the mutable team-size ICV lives in the
	// Frontend — never read cfg.NumThreads here).
	cfg  omp.Config
	pool *ptpool.Pool
	eng  engine

	// region/cur are the persistent top-level dispatch state, as in the
	// GNU-like runtime: one descriptor, rebound per region.
	region ptpool.Region
	cur    atomic.Pointer[omp.Team]

	taskBuf int

	// free is the stack of parked nested-team workers available for reuse
	// (the "hot team" thread cache).
	freeMu sync.Mutex
	free   []*nestedWorker

	shutdownFlag atomic.Bool
}

// New builds a runtime with the given configuration.
func New(cfg omp.Config) (*Runtime, error) {
	cfg = cfg.WithDefaults()
	rt := &Runtime{cfg: cfg, taskBuf: cfg.EffectiveTaskBuffer()}
	rt.Frontend = omp.NewFrontend(rt, cfg)
	rt.eng.rt = rt
	rt.pool = ptpool.New(cfg.NumThreads, ptpool.WaitMode(cfg), &rt.Counters.ThreadsCreated)
	rt.region.Run = func(rank int) { rt.cur.Load().Run(rank, &rt.eng, nil) }
	return rt, nil
}

// Name reports "iomp".
func (rt *Runtime) Name() string { return "iomp" }

// RunRegion implements the runtime SPI: the persistent pool executes the
// pre-built team, with the calling goroutine as thread 0.
func (rt *Runtime) RunRegion(t *omp.Team) {
	rt.cur.Store(t)
	rt.region.Size = t.Size
	rt.pool.Dispatch(&rt.region)
}

// Shutdown stops the top-level pool and the cached nested workers.
func (rt *Runtime) Shutdown() {
	rt.shutdownFlag.Store(true)
	rt.pool.Shutdown()
	rt.freeMu.Lock()
	ws := rt.free
	rt.free = nil
	rt.freeMu.Unlock()
	for _, w := range ws {
		close(w.jobs)
		w.th.Join()
	}
}

// EngineStats reports the process-wide OS-thread high-water mark, which no
// reset clears.
func (rt *Runtime) EngineStats(s *omp.Stats) {
	if s != nil {
		s.PeakThreads = pthread.Peak()
	}
}

// nestedWorker is a parked OS thread cached for nested-team reuse.
type nestedWorker struct {
	th   *pthread.Thread
	jobs chan job
}

type job struct {
	run  func()
	done chan struct{}
}

func (rt *Runtime) getWorker() *nestedWorker {
	rt.freeMu.Lock()
	if n := len(rt.free); n > 0 {
		w := rt.free[n-1]
		rt.free = rt.free[:n-1]
		rt.freeMu.Unlock()
		rt.Counters.ThreadsReused.Add(1)
		return w
	}
	rt.freeMu.Unlock()
	rt.Counters.ThreadsCreated.Add(1)
	w := &nestedWorker{jobs: make(chan job)}
	w.th = pthread.Create(func() {
		for j := range w.jobs {
			j.run()
			close(j.done)
		}
	})
	return w
}

func (rt *Runtime) putWorker(w *nestedWorker) {
	if rt.shutdownFlag.Load() {
		close(w.jobs)
		return
	}
	rt.freeMu.Lock()
	rt.free = append(rt.free, w)
	rt.freeMu.Unlock()
}

// engine implements omp.EngineOps for the Intel-like runtime. One instance
// serves every region; per-region tasking state lives in the team.
type engine struct {
	rt *Runtime
}

// taskDeques is the per-team tasking state: one deque per thread. It
// survives team-descriptor recycling (the deques are drained at every
// region's end barrier); since recycled teams can change size, the deque
// array is grown on demand behind an atomic pointer — members of one team
// always agree on the required size, so a grown array is fully published
// before any member pushes to it.
type taskDeques struct {
	mu     sync.Mutex
	deques atomic.Pointer[[]taskDeque]
}

type taskDeque struct {
	mu sync.Mutex
	q  []*omp.TaskNode
	// n mirrors len(q) so the cut-off check reads queue length without the
	// lock (and can add the producer's buffered count on top).
	n atomic.Int64
	_ [40]byte
}

func newTaskDeques() any { return &taskDeques{} }

func (e *engine) dequesOf(team *omp.Team) []taskDeque {
	td := team.EngineData(newTaskDeques).(*taskDeques)
	if p := td.deques.Load(); p != nil && len(*p) >= team.Size {
		return *p
	}
	td.mu.Lock()
	defer td.mu.Unlock()
	if p := td.deques.Load(); p != nil && len(*p) >= team.Size {
		return *p
	}
	// All deques are empty here: growth only happens at first use by a
	// recycled team, whose previous region drained every queue.
	ds := make([]taskDeque, team.Size)
	td.deques.Store(&ds)
	return ds
}

// SpawnTask queues to the encountering thread's deque (via the producer-side
// buffer when batching is on) — unless the observable queue length, buffered
// tasks included, has reached the cut-off bound or the task is final, in
// which case the task executes immediately as sequential code (§VI-E).
func (e *engine) SpawnTask(tc *omp.TC, node *omp.TaskNode) {
	if node.Final || node.Undeferred {
		// Undeferred execution; like the native runtime, finality is not
		// inherited by descendants (the omp_task_final defect of Table I).
		omp.ExecTask(tc, node)
		return
	}
	d := &e.dequesOf(tc.Team())[tc.ThreadNum()]
	cutoff := e.rt.cfg.EffectiveCutoff()
	if int(d.n.Load())+tc.BufferedTasks() >= cutoff {
		// Make the backlog stealable before the producer serializes, then
		// run the overflow task undeferred at its spawn site, as the native
		// runtime does.
		e.FlushTasks(tc)
		e.rt.Counters.TasksDirect.Add(1)
		omp.ExecTask(tc, node)
		return
	}
	e.rt.Counters.TasksQueued.Add(1)
	if e.rt.taskBuf > 0 {
		if tc.BufferTask(node, e.rt.taskBuf) {
			e.FlushTasks(tc)
		}
		return
	}
	d.mu.Lock()
	d.q = append(d.q, node)
	d.n.Store(int64(len(d.q)))
	d.mu.Unlock()
}

// FlushTasks appends the producer-side buffer to the owner's deque under a
// single lock acquisition.
func (e *engine) FlushTasks(tc *omp.TC) {
	nodes := tc.TakeBuffered()
	if len(nodes) == 0 {
		return
	}
	e.rt.Counters.TaskFlushes.Add(1)
	d := &e.dequesOf(tc.Team())[tc.ThreadNum()]
	d.mu.Lock()
	d.q = append(d.q, nodes...)
	d.n.Store(int64(len(d.q)))
	d.mu.Unlock()
	// The deque owns the nodes now; clear the TC's pooled buffer slots so
	// they do not retain finished tasks.
	clear(nodes)
}

// ReleaseTask enqueues a task whose last dependence was just satisfied. With
// a hot rank the task is appended to the *releaser's* deque — the append end
// is the LIFO own-pop end, so the releasing thread picks the successor up
// next, right where its inputs were just written. Without one (hot < 0: the
// last reference was dropped by a thread with no team context) it falls back
// to the creator's deque, preserving the per-thread-queue discipline; either
// way the task is visible to the owner's LIFO pop and everyone else's FIFO
// steal. The cut-off is deliberately not applied: the releaser cannot
// execute the task inline (it may be running unrelated code mid-Release),
// and a released task has already paid its deferral.
func (e *engine) ReleaseTask(team *omp.Team, node *omp.TaskNode, hot int, _ any) {
	e.rt.Counters.TasksQueued.Add(1)
	at := node.CreatedBy
	if hot >= 0 {
		at = hot
	}
	d := &e.dequesOf(team)[at%team.Size]
	d.mu.Lock()
	d.q = append(d.q, node)
	d.n.Store(int64(len(d.q)))
	d.mu.Unlock()
}

// TryRunTask is the wait step's task hook: it pops the newest task from the
// caller's own deque (LIFO for locality) or steals the oldest from another
// thread's deque (FIFO, Intel's stealing order).
func (e *engine) TryRunTask(tc *omp.TC) bool {
	deques := e.dequesOf(tc.Team())
	self := tc.ThreadNum()
	d := &deques[self]
	d.mu.Lock()
	if n := len(d.q); n > 0 {
		node := d.q[n-1]
		d.q[n-1] = nil
		d.q = d.q[:n-1]
		d.n.Store(int64(n - 1))
		d.mu.Unlock()
		omp.ExecTask(tc, node)
		return true
	}
	d.mu.Unlock()
	size := tc.Team().Size
	for i := 1; i < size; i++ {
		// Near-first alternation: distances +1, -1, +2, -2, ... from self.
		// Each thief starts its tour at its own neighbourhood, so idle
		// threads fan out over victims instead of convoying rank-upward
		// from the same origin.
		off := (i + 1) / 2
		if i%2 == 0 {
			off = -off
		}
		v := &deques[((self+off)%size+size)%size]
		e.rt.Counters.StealAttempts.Add(1)
		v.mu.Lock()
		if len(v.q) > 0 {
			node := v.q[0]
			copy(v.q, v.q[1:])
			v.q[len(v.q)-1] = nil
			v.q = v.q[:len(v.q)-1]
			v.n.Store(int64(len(v.q)))
			v.mu.Unlock()
			e.rt.Counters.TasksStolen.Add(1)
			// i deques probed on this alternation tour before one paid off.
			omp.TraceStealTour(tc.Team(), i, true)
			omp.ExecTask(tc, node)
			return true
		}
		v.mu.Unlock()
	}
	// Every deque is dry; raid the members' producer-side overflow rings so
	// a burst buffered by a busy producer becomes runnable now instead of at
	// the producer's next scheduling point. Like a deque steal, the raided
	// task leaves the producer's observable queue length, so the Fig. 14
	// cut-off keeps seeing the same counts it would with eager flushing.
	// The rotor-seeded raid is lock-free.
	if node := tc.StealBufferedTask(); node != nil {
		e.rt.Counters.TasksStolenFromBuffer.Add(1)
		if node.CreatedBy != tc.ThreadNum() {
			e.rt.Counters.TasksStolen.Add(1)
			omp.TraceStealTour(tc.Team(), size, true)
		}
		omp.ExecTask(tc, node)
		return true
	}
	if size > 1 {
		omp.TraceStealTour(tc.Team(), size-1, false)
	}
	return false
}

func (e *engine) Taskwait(tc *omp.TC) {
	cur := tc.CurTask()
	for cur.Children() > 0 {
		tc.WaitStep()
	}
}

// Taskyield is a no-op, as in the native runtime; started tasks never move
// (the taskyield/untied validation failures of Table I).
func (e *engine) Taskyield(tc *omp.TC) {}

// Nested builds the inner team from the free-worker cache, creating threads
// only when the cache is empty, and returns them afterwards. The team
// descriptor arrives pooled from the front end.
func (e *engine) Nested(tc *omp.TC, team *omp.Team) {
	n := team.Size
	workers := make([]*nestedWorker, n-1)
	dones := make([]chan struct{}, n-1)
	for i := range workers {
		rank := i + 1
		w := e.rt.getWorker()
		workers[i] = w
		done := make(chan struct{})
		dones[i] = done
		w.jobs <- job{run: func() {
			team.Run(rank, e, nil)
		}, done: done}
	}
	team.Run(0, e, nil)
	for i, w := range workers {
		<-dones[i]
		e.rt.putWorker(w)
	}
}

// Idle backs the wait step and Ordered: a scheduler yield.
func (e *engine) Idle(tc *omp.TC) {
	runtime.Gosched()
}
