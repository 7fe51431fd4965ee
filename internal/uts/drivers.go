package uts

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/glt"
	"repro/glt/qth/feb"
	"repro/internal/pthread"
	"repro/omp"
)

// This file holds the parallel traversal drivers.
//
// The paper's point in §VI-B is that UTS uses OpenMP only as an "environment
// creator": one #pragma omp parallel brackets the whole run, threads are
// told apart by omp_get_thread_num, and all load balancing is the
// *application's* — a shared work queue guarded by a mutex, exactly like the
// upstream pthreads port. Consequently the choice of OpenMP runtime barely
// matters (Fig. 4), while porting the same algorithm to the native threading
// libraries exposes their intrinsic costs (Fig. 5).

// queueLock abstracts the mutual exclusion guarding the shared work queue,
// so the same traversal code can synchronize the way each substrate's
// idiomatic port would: a plain mutex for pthreads/Argobots/MassiveThreads,
// or Qthreads full/empty-bit word operations (see febLock).
type queueLock interface {
	lock()
	unlock()
}

// mutexLock is the pthread-style queue guard.
type mutexLock struct{ mu sync.Mutex }

func (l *mutexLock) lock()   { l.mu.Lock() }
func (l *mutexLock) unlock() { l.mu.Unlock() }

// febLock synchronizes the way a native Qthreads port does: the queue guard
// is a full/empty bit on a word of the library's hashed lock table, and each
// critical section additionally performs FEB round trips on the words
// holding the transferred payload — Qthreads "protects all the memory words
// with mutex regions", which is exactly the contention the paper measures
// in Fig. 5 as OS threads are added.
type febLock struct {
	guard feb.Word
	data  []feb.Word
	next  int
}

func newFEBLock(t *feb.Table) *febLock {
	l := &febLock{data: make([]feb.Word, 2*chunkSize)}
	l.guard.Init(t, 0)
	for i := range l.data {
		l.data[i].Init(t, 0)
	}
	return l
}

func (l *febLock) lock() { l.guard.ReadFE() }

func (l *febLock) unlock() {
	// Touch the FEBs of the words written under the lock (one per node of a
	// typical batch) before releasing the guard.
	for i := 0; i < chunkSize; i++ {
		l.data[(l.next+i)%len(l.data)].TouchFE()
	}
	l.next = (l.next + chunkSize) % len(l.data)
	l.guard.WriteEF(0)
}

// workQueue is the application-level load balancer: a lock-guarded stack of
// node batches shared by all workers, as in the upstream pthreads UTS. Idle
// accounting happens under the same lock as batch pops, so the distributed
// termination check ("queue empty and everyone idle") cannot misfire while a
// worker holds a batch it has not yet been charged for.
type workQueue struct {
	lk      queueLock
	batches [][]Node
	idle    int
	total   int // workers
}

// chunkSize is the number of nodes a worker keeps private before donating a
// batch to the shared queue (upstream's chunk_size, default 20).
const chunkSize = 20

func newWorkQueue(workers int, root Node, lk queueLock) *workQueue {
	if lk == nil {
		lk = &mutexLock{}
	}
	q := &workQueue{total: workers, lk: lk}
	q.batches = [][]Node{{root}}
	return q
}

// acquire makes one attempt to pop a batch. wasIdle is whether the caller is
// currently counted idle; nowIdle returns the caller's new idle state. done
// reports global termination: queue empty with every worker idle.
func (q *workQueue) acquire(wasIdle bool) (batch []Node, done, nowIdle bool) {
	q.lk.lock()
	defer q.lk.unlock()
	if n := len(q.batches); n > 0 {
		batch = q.batches[n-1]
		q.batches[n-1] = nil
		q.batches = q.batches[:n-1]
		if wasIdle {
			q.idle--
		}
		return batch, false, false
	}
	if !wasIdle {
		q.idle++
	}
	return nil, q.idle == q.total, true
}

// put donates a batch to the shared queue.
func (q *workQueue) put(batch []Node) {
	q.lk.lock()
	q.batches = append(q.batches, batch)
	q.lk.unlock()
}

// worker runs the traversal loop of one thread: expand nodes depth-first
// from a private stack, donating every chunkSize surplus nodes to the shared
// queue. yield, if non-nil, is called inside the idle loop so cooperative
// substrates (ULTs) can make progress; OS-thread workers poll, as upstream's
// idle loop does.
func (p Params) worker(q *workQueue, yield func()) Result {
	var r Result
	var local []Node
	idle := false
	for {
		if len(local) == 0 {
			for {
				batch, done, nowIdle := q.acquire(idle)
				idle = nowIdle
				if done {
					return r
				}
				if batch != nil {
					local = batch
					break
				}
				if yield != nil {
					yield()
				} else {
					runtime.Gosched()
				}
			}
		}
		n := local[len(local)-1]
		local = local[:len(local)-1]
		r.Nodes++
		if int64(n.Depth) > r.MaxDepth {
			r.MaxDepth = int64(n.Depth)
		}
		nc := p.NumChildren(n)
		if nc == 0 {
			r.Leaves++
			continue
		}
		for i := 0; i < nc; i++ {
			local = append(local, Child(n, i))
		}
		// Donate surplus beyond 2*chunkSize, keeping chunkSize private. The
		// batch is copied out: local's backing array keeps growing via
		// append, so an aliased sub-slice would be overwritten.
		for len(local) > 2*chunkSize {
			batch := make([]Node, chunkSize)
			copy(batch, local[len(local)-chunkSize:])
			q.put(batch)
			local = local[:len(local)-chunkSize]
		}
	}
}

// CountOpenMP traverses the tree with nthreads OpenMP threads of rt in the
// environment-creator style (Fig. 4): one parallel region, user-managed
// balancing.
func (p Params) CountOpenMP(rt omp.Runtime, nthreads int) Result {
	q := newWorkQueue(nthreads, p.Root(), nil)
	results := make([]Result, nthreads)
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		var yield func()
		if c, ok := tc.Ectx().(*glt.Ctx); ok && c != nil {
			yield = c.Yield
		}
		results[tc.ThreadNum()] = p.worker(q, yield)
	})
	var total Result
	for _, r := range results {
		total.Add(r)
	}
	return total
}

// CountPthreads is the upstream pthreads port (Fig. 5 baseline): one OS
// thread per worker over the same shared queue.
func (p Params) CountPthreads(nthreads int) Result {
	q := newWorkQueue(nthreads, p.Root(), nil)
	results := make([]Result, nthreads)
	threads := make([]*pthread.Thread, nthreads)
	for i := 0; i < nthreads; i++ {
		i := i
		threads[i] = pthread.Create(func() {
			results[i] = p.worker(q, nil)
		})
	}
	var total Result
	for i, th := range threads {
		th.Join()
		total.Add(results[i])
	}
	return total
}

// taskGrain is the number of tree nodes a task-parallel unit keeps private
// before donating surplus as fresh work units (the task-driver analogue of
// chunkSize, but smaller: a unit donates once its depth-first stack exceeds
// 2*taskGrain, and the geometric presets' decaying branching keeps that
// stack shallow — a grain much above the tree depth would never shed work).
const taskGrain = 8

// paddedResult keeps per-stream counters out of each other's cache lines.
type paddedResult struct {
	r Result
	_ [64]byte
}

// CountGLTTasks is the task-parallel native driver: instead of one worker
// ULT per stream pulling from an application-managed shared queue (CountGLT,
// the upstream pthreads structure of Fig. 5), every batch of tree nodes is
// its own detached work unit spawned onto the *creating* stream, and load
// balance is left entirely to the backend — which is exactly what the
// lock-free ws backend provides: idle streams steal half a loaded peer's
// run (glt.Stealer), so the tree's irregular fan-out sheds in O(log) bulk
// episodes instead of through a contended shared queue. On non-stealing
// backends (abt, qth) the traversal degenerates to stream 0 working alone —
// the contrast is the point; pair this driver with ws (or mth).
//
// Termination is a plain outstanding-unit count: a unit increments it for
// every donation before dispatch and decrements itself on completion, so
// zero means the whole tree has been expanded.
func (p Params) CountGLTTasks(g *glt.Runtime) Result {
	n := g.NumThreads()
	results := make([]paddedResult, n)
	var outstanding atomic.Int64
	var body glt.Func
	body = func(c *glt.Ctx) {
		defer outstanding.Add(-1)
		local := c.Arg().([]Node)
		// The body never yields, so the rank — and with it exclusive
		// ownership of this stream's result counters — is stable even under
		// stealing (a steal moves the unit before it starts).
		r := &results[c.Rank()].r
		for len(local) > 0 {
			nd := local[len(local)-1]
			local = local[:len(local)-1]
			r.Nodes++
			if int64(nd.Depth) > r.MaxDepth {
				r.MaxDepth = int64(nd.Depth)
			}
			nc := p.NumChildren(nd)
			if nc == 0 {
				r.Leaves++
				continue
			}
			for i := 0; i < nc; i++ {
				local = append(local, Child(nd, i))
			}
			// Donate surplus beyond 2*taskGrain as new units on this stream's
			// own pool (work-first); thieves carve them off the cold end.
			for len(local) > 2*taskGrain {
				batch := make([]Node, taskGrain)
				copy(batch, local[len(local)-taskGrain:])
				local = local[:len(local)-taskGrain]
				outstanding.Add(1)
				c.SpawnDetachedBatch(body, []int{c.Rank()}, []any{batch})
			}
		}
	}
	outstanding.Store(1)
	g.SpawnDetachedBatch(body, []int{0}, []any{[]Node{p.Root()}}, false)
	for outstanding.Load() > 0 {
		runtime.Gosched()
	}
	var total Result
	for i := range results {
		total.Add(results[i].r)
	}
	return total
}

// CountGLT is the native lightweight-thread port (Fig. 5): one worker ULT
// per execution stream of g, idling cooperatively. The backend's own
// synchronization (private pools for abt, FEB word locks for qth, stealing
// deques for mth) is what differentiates the curves.
func (p Params) CountGLT(g *glt.Runtime) Result {
	n := g.NumThreads()
	// Synchronize the way each library's idiomatic port would: under the
	// Qthreads backend the shared queue is guarded by FEB word operations
	// on the library's striped lock table.
	var lk queueLock
	if t, ok := g.Policy().(interface{ Table() *feb.Table }); ok {
		lk = newFEBLock(t.Table())
	}
	q := newWorkQueue(n, p.Root(), lk)
	results := make([]Result, n)
	units := make([]*glt.Unit, n)
	for i := 0; i < n; i++ {
		i := i
		units[i] = g.Spawn(i, func(c *glt.Ctx) {
			results[i] = p.worker(q, c.Yield)
		})
	}
	var total Result
	for i, u := range units {
		u.Join()
		total.Add(results[i])
	}
	return total
}
