// Package iomp implements an Intel-OpenMP-runtime-like OpenMP runtime over
// the shared pthread engine (internal/ptpool), registered with the omp front
// end as "iomp". It owns the two mechanisms that set Intel apart in the
// paper:
//
//   - One task deque per thread with work stealing for load balance
//     (§III-A), whose contention at high thread counts is one of the two
//     causes of the Fig. 10-13 task-parallel collapse, and the task cut-off:
//     once a thread has TaskCutoff tasks queued (256 by default), new tasks
//     execute immediately as sequential code (§VI-E, Table III, Fig. 14).
//   - Nested regions draw threads from a free pool and return them ("Intel
//     solution reuses the idle threads", §VI-D): at 36 outer threads and 100
//     inner regions it creates 1,296 threads and reuses 2,240 (Table II) —
//     still oversubscribing the machine, hence still an order of magnitude
//     behind GLTO in Figs. 8/9, but ahead of GNU.
package iomp

import (
	"sync"
	"sync/atomic"

	"repro/internal/pthread"
	"repro/internal/ptpool"
	"repro/internal/tour"
	"repro/omp"
)

func init() {
	omp.RegisterRuntime("iomp", func(cfg omp.Config) (omp.Runtime, error) {
		return New(cfg)
	})
}

// Runtime is the Intel-like OpenMP runtime.
type Runtime struct {
	*ptpool.Engine

	// free is the stack of parked nested-team workers available for reuse
	// (the "hot team" thread cache).
	freeMu sync.Mutex
	free   []*nestedWorker

	shutdownFlag atomic.Bool
}

// New builds a runtime with the given configuration.
func New(cfg omp.Config) (*Runtime, error) {
	rt := &Runtime{}
	rt.Engine = ptpool.NewEngine(cfg, rt, Queue{})
	return rt, nil
}

// Name reports "iomp".
func (rt *Runtime) Name() string { return "iomp" }

// Shutdown stops the top-level pool and the cached nested workers.
func (rt *Runtime) Shutdown() {
	rt.shutdownFlag.Store(true)
	rt.Engine.Shutdown()
	rt.freeMu.Lock()
	ws := rt.free
	rt.free = nil
	rt.freeMu.Unlock()
	for _, w := range ws {
		close(w.jobs)
		w.th.Join()
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

// Nested builds the inner team from the free-worker cache, creating threads
// only when the cache is empty, and returns them afterwards. The team
// descriptor arrives pooled from the front end.
func (rt *Runtime) Nested(tc *omp.TC, team *omp.Team) {
	n := team.Size
	workers := make([]*nestedWorker, n-1)
	dones := make([]chan struct{}, n-1)
	for i := range workers {
		rank := i + 1
		w := rt.getWorker()
		workers[i] = w
		done := make(chan struct{})
		dones[i] = done
		w.jobs <- job{run: func() {
			team.Run(rank, rt, nil)
		}, done: done}
	}
	team.Run(0, rt, nil)
	for i, w := range workers {
		<-dones[i]
		rt.putWorker(w)
	}
}

// Queue is Intel's task queue: one deque per thread. The owner pops its
// newest task (LIFO, for locality); thieves take the oldest (FIFO, Intel's
// stealing order). Its backlog count is what the Fig. 14 cut-off reads.
type Queue struct{}

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

func dequesOf(team *omp.Team) []taskDeque {
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

func (d *taskDeque) append(nodes ...*omp.TaskNode) {
	d.mu.Lock()
	d.q = append(d.q, nodes...)
	d.n.Store(int64(len(d.q)))
	d.mu.Unlock()
}

// Push appends the nodes to the deque of the rank nodes[0].Place names: a
// hot releaser's — the append end is the LIFO own-pop end, so the releasing
// thread picks the successor up next, right where its inputs were just
// written — or, with no hot rank, the creator's, preserving the
// per-thread-queue discipline.
func (Queue) Push(team *omp.Team, nodes []*omp.TaskNode, hot int) {
	rank, _ := nodes[0].Place(hot)
	dequesOf(team)[rank%team.Size].append(nodes...)
}

// Pop takes the newest task from the caller's own deque.
func (Queue) Pop(tc *omp.TC) (*omp.TaskNode, int) {
	d := &dequesOf(tc.Team())[tc.ThreadNum()]
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.q)
	if n == 0 {
		return nil, 0
	}
	node := d.q[n-1]
	d.q[n-1] = nil
	d.q = d.q[:n-1]
	d.n.Store(int64(n - 1))
	return node, 0
}

// Steal tours the other deques near-first from the caller (internal/tour,
// forward direction: distances +1, -1, +2, -2, ...), so idle threads fan
// out over victims instead of convoying rank-upward from the same origin,
// and takes the oldest task of the first non-empty one, crediting one
// StealAttempt per probe.
func (Queue) Steal(tc *omp.TC, c *omp.Counters) (*omp.TaskNode, int) {
	deques := dequesOf(tc.Team())
	self, size := tc.ThreadNum(), tc.Team().Size
	for i := 1; i < size; i++ {
		v := &deques[tour.At(self, 1, i, size)]
		c.StealAttempts.Add(1)
		v.mu.Lock()
		if len(v.q) > 0 {
			node := v.q[0]
			copy(v.q, v.q[1:])
			v.q[len(v.q)-1] = nil
			v.q = v.q[:len(v.q)-1]
			v.n.Store(int64(len(v.q)))
			v.mu.Unlock()
			return node, i
		}
		v.mu.Unlock()
	}
	return nil, size - 1
}

// Backlog reports rank's deque length. Like a deque steal, a task raided from
// the producer's overflow ring leaves its observable queue length, so the
// cut-off sees the same counts it would with eager flushing.
func (Queue) Backlog(team *omp.Team, rank int) int {
	return int(dequesOf(team)[rank].n.Load())
}
