package ptpool

import (
	"runtime"
	"sync/atomic"

	"repro/internal/pthread"
	"repro/omp"
)

// TaskQueue is the task-queue shape of one pthread runtime: where deferred
// tasks wait and the order the engine's hunt finds them in. It keeps its
// per-team state in Team.EngineData, so one value serves every team.
type TaskQueue interface {
	// Push queues the nodes omp.EngineOps.Enqueue hands the engine, in
	// order, in one synchronization episode: where rank hot consumes next
	// when hot >= 0 (a dependence release on that rank, always one node),
	// on the creator's queue otherwise — an unbuffered spawn, a flushed
	// burst (whose nodes share one creator, so nodes[0].Place names the
	// queue for all), or a release by a thread with no team context.
	Push(team *omp.Team, nodes []*omp.TaskNode, hot int)
	// Pop claims a task from the caller's own queue. Steal claims one from
	// the other queues, crediting c with any probe accounting of its own.
	// Both report the queues they probed, and the engine hands the claim
	// and that count to omp's TC.Hunt: a claim with visited > 0 is a steal,
	// and a Steal that finds nothing has its probes counted into the same
	// StealTour as the ring raid that follows it.
	Pop(tc *omp.TC) (node *omp.TaskNode, visited int)
	Steal(tc *omp.TC, c *omp.Counters) (node *omp.TaskNode, visited int)
	// Backlog reports how many tasks wait in rank's own queue, which the
	// Fig. 14 cut-off reads, or -1 if the queue applies no cut-off.
	Backlog(team *omp.Team, rank int) int
}

// Runtime is a pthread runtime: the Engine it embeds plus its Name and
// Nested.
type Runtime interface {
	omp.RegionEngine
	omp.EngineOps
}

// Engine is the OpenMP engine both pthread runtimes are built on: the
// persistent pool dispatches top-level regions, the tasks omp defers go to
// the runtime's TaskQueue, and the wait step's hunt walks that queue before it
// raids the overflow rings. Taskyield is a no-op, so started tasks never
// migrate (the taskyield/untied failures of Table I). A runtime embeds an
// Engine and supplies the rest of omp.EngineOps: Nested.
type Engine struct {
	*omp.Frontend

	ops   omp.EngineOps
	queue TaskQueue
	pool  *Pool

	// region is the top-level pool's persistent dispatch descriptor: its Run
	// closure reads the current team from cur, so dispatch allocates nothing.
	// Top-level regions are serialized (one initial thread): one slot serves.
	region Region
	cur    atomic.Pointer[omp.Team]

	cutoff int
}

// NewEngine builds the engine of runtime rt over queue q. The top-level pool
// is created eagerly, as the native runtimes do on first use, sized to
// NumThreads.
func NewEngine(cfg omp.Config, rt Runtime, q TaskQueue) *Engine {
	cfg = cfg.WithDefaults()
	e := &Engine{ops: rt, queue: q, cutoff: cfg.EffectiveCutoff()}
	e.Frontend = omp.NewFrontend(rt, cfg)
	e.pool = New(cfg.NumThreads, cfg.WaitPolicy, &e.Counters.ThreadsCreated)
	e.region.Run = func(rank int) { e.cur.Load().Run(rank, e.ops, nil) }
	return e
}

// RunRegion implements the runtime SPI: the persistent pool executes the
// pre-built team, with the calling goroutine as thread 0.
func (e *Engine) RunRegion(t *omp.Team) {
	e.cur.Store(t)
	e.region.Size = t.Size
	e.pool.Dispatch(&e.region)
}

// Shutdown stops the pool.
func (e *Engine) Shutdown() { e.pool.Shutdown() }

// EngineStats reports the process-wide OS-thread high-water mark, which no
// reset clears.
func (e *Engine) EngineStats(s *omp.Stats) {
	if s != nil {
		s.PeakThreads = pthread.Peak()
	}
}

// Inline is the queue's cut-off (Fig. 14): a task is not deferred once the
// creator's backlog reaches the bound. The backlog counts buffered tasks as
// queued, so the cut-off fires at the same task counts with batching on or
// off. Finality is not inherited by descendants (the omp_task_final defect
// of Table I).
func (e *Engine) Inline(tc *omp.TC, _ *omp.TaskNode) bool {
	n := e.queue.Backlog(tc.Team(), tc.ThreadNum())
	return n >= 0 && n+tc.BufferedTasks() >= e.cutoff
}

// Enqueue hands the nodes to the queue in one push: one synchronization
// episode per flushed burst instead of one locked push per task.
func (e *Engine) Enqueue(team *omp.Team, nodes []*omp.TaskNode, hot int, _ any) {
	e.queue.Push(team, nodes, hot)
}

// TryRunTask is the wait step's hunt: the caller's own queue, then the other
// queues, then tc.Hunt, which raids the members' producer-side overflow rings
// if the queues came up empty, so a burst buffered by a busy producer runs
// now rather than at the producer's next scheduling point. (The native
// runtimes have no analogue — their producers take the queue lock per task;
// the raid keeps the batched design's task visibility no worse than the
// paper's.)
func (e *Engine) TryRunTask(tc *omp.TC) bool {
	node, visited := e.queue.Pop(tc)
	if node == nil {
		node, visited = e.queue.Steal(tc, &e.Counters)
	}
	return tc.Hunt(node, visited)
}

// Taskyield is a no-op: the native runtimes do not reschedule at taskyield,
// which is why they fail the omp_taskyield validation test (Table I).
func (e *Engine) Taskyield(tc *omp.TC) {}

// Idle backs the wait step and Ordered: a scheduler yield.
func (e *Engine) Idle(tc *omp.TC) { runtime.Gosched() }
