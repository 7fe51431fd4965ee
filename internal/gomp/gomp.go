// Package gomp implements a GNU-libgomp-like OpenMP runtime over the
// pthread substrate, registered with the omp front end as "gomp".
//
// The behaviours that matter for the paper's comparison are reproduced
// faithfully:
//
//   - The top-level team is a persistent pthread pool; dispatching a region
//     is a function-pointer handoff (cheap work assignment, Fig. 7).
//   - Nested parallel regions create a *fresh* team of pthreads for every
//     inner region and destroy it afterwards — "this approach does not reuse
//     idle threads" (§VI-D) — which, at 36 outer threads and 100 inner
//     regions, creates the 3,536 OS threads of Table II and the order-of-
//     magnitude slowdown of Figs. 8 and 9.
//   - Explicit tasks go to a single queue shared by the whole team, GNU's
//     documented design (§III-A). Deferred tasks are appended in
//     producer-side batches by default (one queue lock per batch);
//     Config.PerUnitDispatch or a negative TaskBuffer restores one locked
//     push per task.
//   - Taskyield is a no-op, so started tasks never migrate — the reason the
//     GNU runtime fails the taskyield/untied validation tests in Table I.
//
// The package implements the runtime SPI (omp.RegionEngine + omp.EngineOps);
// the embedded omp.Frontend owns the Team/TC lifecycle, so the region
// respawn path allocates nothing here either.
package gomp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pthread"
	"repro/internal/ptpool"
	"repro/omp"
)

func init() {
	omp.RegisterRuntime("gomp", func(cfg omp.Config) (omp.Runtime, error) {
		return New(cfg)
	})
}

// Runtime is the GNU-like OpenMP runtime.
type Runtime struct {
	*omp.Frontend

	// cfg is the construction-time snapshot; only ICVs that cannot change
	// after New are read from it (the mutable team-size ICV lives in the
	// Frontend — never read cfg.NumThreads here).
	cfg  omp.Config
	pool *ptpool.Pool
	eng  engine

	// region is the persistent dispatch descriptor of the top-level pool:
	// its Run closure is built once and reads the current team from cur, so
	// region dispatch stores two fields instead of allocating a Region and a
	// closure per parallel region. Top-level regions are serialized by the
	// OpenMP host model (one initial thread), so one slot suffices.
	region ptpool.Region
	cur    atomic.Pointer[omp.Team]

	taskBuf int
}

// New builds a runtime with the given configuration. The top-level pool is
// created eagerly, as libgomp does on first use, sized to NumThreads.
func New(cfg omp.Config) (*Runtime, error) {
	cfg = cfg.WithDefaults()
	rt := &Runtime{cfg: cfg, taskBuf: cfg.EffectiveTaskBuffer()}
	rt.Frontend = omp.NewFrontend(rt, cfg)
	rt.eng.rt = rt
	rt.pool = ptpool.New(cfg.NumThreads, ptpool.WaitMode(cfg), &rt.Counters.ThreadsCreated)
	rt.region.Run = func(rank int) { rt.cur.Load().Run(rank, &rt.eng, nil) }
	return rt, nil
}

// Name reports "gomp".
func (rt *Runtime) Name() string { return "gomp" }

// RunRegion implements the runtime SPI: the persistent pool executes the
// pre-built team, with the calling goroutine as thread 0.
func (rt *Runtime) RunRegion(t *omp.Team) {
	rt.cur.Store(t)
	rt.region.Size = t.Size
	rt.pool.Dispatch(&rt.region)
}

// Shutdown stops the pool.
func (rt *Runtime) Shutdown() { rt.pool.Shutdown() }

// EngineStats reports the process-wide OS-thread high-water mark, which no
// reset clears.
func (rt *Runtime) EngineStats(s *omp.Stats) {
	if s != nil {
		s.PeakThreads = pthread.Peak()
	}
}

// engine implements omp.EngineOps for the GNU-like runtime. One instance per
// runtime serves every region, nested ones included; all per-region state
// lives in the team.
type engine struct {
	rt *Runtime
}

// teamTasks is the single shared task queue of a team (§III-A: "the GNU
// version implements a single shared task queue for all the threads"). It
// survives team-descriptor recycling (the queue is drained at every region's
// end barrier), so steady-state tasking reuses its backing array.
//
// The per-rank release slots bolt a locality fast path onto the centralized
// design: a dependence release with a hot rank parks the successor in that
// rank's mailbox, raided before the shared queue, so the releasing thread
// picks its successor back up without touching the queue lock at all.
type teamTasks struct {
	mu sync.Mutex
	q  []*omp.TaskNode
	// rel is the per-rank release-slot directory, allocated on the first hot
	// release and sized to the team at that moment; a later, larger team
	// wraps (hot % len), which only blurs the locality hint — any member may
	// claim any slot, own slot first. relCount gates the claim sweeps so
	// dependence-free phases pay one atomic load.
	rel      atomic.Pointer[[]relSlot]
	relCount atomic.Int64
}

// relSlot is one rank's release mailbox, padded to a cache line so a
// releaser's CAS does not false-share with its neighbours.
type relSlot struct {
	p atomic.Pointer[omp.TaskNode]
	_ [56]byte
}

// slotsFor returns the release-slot directory, allocating it (sized to the
// current team) on first use.
func (ts *teamTasks) slotsFor(size int) []relSlot {
	if p := ts.rel.Load(); p != nil {
		return *p
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if p := ts.rel.Load(); p != nil {
		return *p
	}
	s := make([]relSlot, size)
	ts.rel.Store(&s)
	return s
}

// claimRelease claims one parked-then-released task from the slot directory,
// starting at rank num's own slot; with sweep false only that slot is
// probed (the hot fast path), with sweep true the whole directory is toured
// (the idle/barrier drain that keeps slotted work from stranding).
func (ts *teamTasks) claimRelease(num int, sweep bool) *omp.TaskNode {
	p := ts.rel.Load()
	if p == nil {
		return nil
	}
	slots := *p
	n := len(slots)
	limit := 1
	if sweep {
		limit = n
	}
	for i := 0; i < limit; i++ {
		s := &slots[(num+i)%n]
		if node := s.p.Load(); node != nil && s.p.CompareAndSwap(node, nil) {
			ts.relCount.Add(-1)
			return node
		}
	}
	return nil
}

func newTeamTasks() any { return &teamTasks{} }

func (e *engine) tasksOf(team *omp.Team) *teamTasks {
	return team.EngineData(newTeamTasks).(*teamTasks)
}

func (e *engine) SpawnTask(tc *omp.TC, node *omp.TaskNode) {
	if node.Final || node.Undeferred {
		// Final and if(false) tasks execute undeferred in the encountering
		// thread. Finality is not inherited by descendants — the defect the
		// omp_task_final validation test catches in the 2017 runtimes
		// (Table I).
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
	ts := e.tasksOf(tc.Team())
	ts.mu.Lock()
	ts.q = append(ts.q, node)
	ts.mu.Unlock()
}

// FlushTasks appends the producer-side buffer to the shared team queue under
// a single lock acquisition — one synchronization episode per batch instead
// of one contended lock per task on GNU's single queue.
func (e *engine) FlushTasks(tc *omp.TC) {
	nodes := tc.TakeBuffered()
	if len(nodes) == 0 {
		return
	}
	e.rt.Counters.TaskFlushes.Add(1)
	ts := e.tasksOf(tc.Team())
	ts.mu.Lock()
	ts.q = append(ts.q, nodes...)
	ts.mu.Unlock()
	// The queue owns the nodes now; clear the TC's pooled buffer slots so
	// they do not retain finished tasks.
	clear(nodes)
}

// ReleaseTask enqueues a task whose last dependence was just satisfied by a
// predecessor's completion. With a hot rank the task is parked in that
// rank's release slot — claimed by the releasing thread ahead of the shared
// queue, no lock — falling back to the locked shared queue when the slot is
// still occupied (the releaser is running ahead of its own consumption) or
// when the releaser had no team context (hot < 0). Every member's
// TryRunTask sweeps the slots once the queue runs dry, so a slotted task is
// no less visible than a queued one.
func (e *engine) ReleaseTask(team *omp.Team, node *omp.TaskNode, hot int, _ any) {
	e.rt.Counters.TasksQueued.Add(1)
	ts := e.tasksOf(team)
	if hot >= 0 {
		slots := ts.slotsFor(team.Size)
		if s := &slots[hot%len(slots)]; s.p.CompareAndSwap(nil, node) {
			ts.relCount.Add(1)
			return
		}
	}
	ts.mu.Lock()
	ts.q = append(ts.q, node)
	ts.mu.Unlock()
}

// TryRunTask is the wait step's task hook: own release slot, then the shared
// queue, then the other ranks' slots, then the overflow rings.
func (e *engine) TryRunTask(tc *omp.TC) bool {
	ts := e.tasksOf(tc.Team())
	// Own release slot first: a successor the thread itself just released is
	// the hottest work available, and claiming it is one CAS, no lock.
	if ts.relCount.Load() > 0 {
		if node := ts.claimRelease(tc.ThreadNum(), false); node != nil {
			e.execPopped(tc, node)
			return true
		}
	}
	ts.mu.Lock()
	if len(ts.q) == 0 {
		ts.mu.Unlock()
		// Queue dry: tour the other ranks' release slots so hot-parked work
		// cannot strand behind an already-busy releaser...
		if ts.relCount.Load() > 0 {
			if node := ts.claimRelease(tc.ThreadNum(), true); node != nil {
				e.execPopped(tc, node)
				return true
			}
		}
		// ...then raid the members' producer-side overflow rings so a burst
		// buffered by a busy producer is picked up now rather than at the
		// producer's next scheduling point. (The native runtime has no
		// analogue — its producers hold the queue lock per task; the raid
		// keeps the batched design's task *visibility* no worse than the
		// paper's.) The rotor-seeded raid is lock-free.
		node := tc.StealBufferedTask()
		if node == nil {
			return false
		}
		e.rt.Counters.TasksStolenFromBuffer.Add(1)
		e.execPopped(tc, node)
		return true
	}
	node := ts.q[0]
	copy(ts.q, ts.q[1:])
	ts.q[len(ts.q)-1] = nil
	ts.q = ts.q[:len(ts.q)-1]
	ts.mu.Unlock()
	e.execPopped(tc, node)
	return true
}

// execPopped settles the steal accounting for a claimed task and runs it. A
// foreign pop from the single shared queue (or a slot/ring claim of another
// thread's task) is gomp's whole "steal": a degenerate one-stop tour, which
// is exactly how Fig. 7 accounts the centralized-queue runtime's work
// distribution.
func (e *engine) execPopped(tc *omp.TC, node *omp.TaskNode) {
	if node.CreatedBy != tc.ThreadNum() {
		e.rt.Counters.TasksStolen.Add(1)
		omp.TraceStealTour(tc.Team(), 1, true)
	}
	omp.ExecTask(tc, node)
}

func (e *engine) Taskwait(tc *omp.TC) {
	cur := tc.CurTask()
	for cur.Children() > 0 {
		tc.WaitStep()
	}
}

// Taskyield is a no-op: libgomp does not reschedule at taskyield, which is
// why the omp_taskyield validation test fails on it (Table I).
func (e *engine) Taskyield(tc *omp.TC) {}

// Nested creates a brand-new pthread team for the inner region and destroys
// it afterwards. The encountering thread is rank 0 of the inner team; ranks
// 1..n-1 are fresh OS threads, created and thrown away per region — the
// deliberate Table II cost. The team descriptor itself arrives pooled from
// the front end.
func (e *engine) Nested(tc *omp.TC, team *omp.Team) {
	n := team.Size
	threads := make([]*pthread.Thread, n-1)
	for i := range threads {
		rank := i + 1
		e.rt.Counters.ThreadsCreated.Add(1)
		threads[i] = pthread.Create(func() {
			team.Run(rank, e, nil)
		})
	}
	team.Run(0, e, nil)
	for _, th := range threads {
		th.Join()
	}
}

// Idle backs the wait step and Ordered: a scheduler yield.
func (e *engine) Idle(tc *omp.TC) {
	runtime.Gosched()
}
