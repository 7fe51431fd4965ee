// Package core implements GLTO — the paper's primary contribution: an
// OpenMP runtime built on the Generic Lightweight Threads (GLT) API —
// registered with the omp front end as "glto".
//
// The design follows §IV of the paper:
//
//   - GLT_threads (execution streams) are created once, when the runtime is
//     instantiated, one per requested OpenMP thread, and stay bound for the
//     runtime's lifetime (§IV-B, Fig. 3).
//   - Work-sharing: a parallel region converts each OpenMP thread into one
//     GLT_ult; the master runs rank 0 itself as stream 0's primary ULT, then
//     joins the others and continues sequentially (§IV-C). This
//     ULT-per-thread creation is the "work assignment" cost that makes GLTO
//     slower than the function-pointer handoff of the pthread runtimes in
//     compute-bound for loops (Fig. 7) — and it is created here on every
//     region, deliberately.
//   - Task parallelism: every OMP task becomes a GLT_ult, placed by omp's
//     one rule, TaskNode.Place: tasks created inside a single/master
//     construct are dispatched round-robin over all streams; otherwise each
//     stream keeps its own tasks (§IV-D). The rule also places the fan-out
//     of a dependence release. omp hands deferred tasks over in
//     producer-side bursts, which become one PushBatch each.
//   - Nested parallelism: the encountering ULT spawns the inner team as
//     ULTs on its own stream — no new OS threads, hence no oversubscription
//     (§IV-E, Table II, Figs. 8/9).
//   - Load imbalance: GLT_SHARED_QUEUES collapses the streams' pools into
//     one shared queue (§IV-F).
//   - Backend quirks: under MassiveThreads the master cannot yield (§IV-G);
//     this arrives via the glt engine's pinned-main rule rather than
//     anything in this package.
//
// Structurally the package is a runtime SPI implementation: the omp.Frontend
// embedded in Runtime owns the Team/TC lifecycle (pooled region descriptors)
// and this package implements omp.RegionEngine (region placement) plus
// omp.EngineOps (constructs) over GLT.
package core

import (
	"sync"

	"repro/glt"
	_ "repro/glt/backends"
	"repro/omp"
)

func init() {
	omp.RegisterRuntime("glto", func(cfg omp.Config) (omp.Runtime, error) {
		return New(cfg)
	})
}

// Runtime is the GLTO OpenMP runtime: the glt-backed RegionEngine with an
// embedded omp.Frontend providing the user-facing API over it.
type Runtime struct {
	*omp.Frontend

	cfg omp.Config
	g   *glt.Runtime
	eng engine // the one EngineOps instance; stateless beyond rt

	// taskBody is the shared body of every task ULT; the task node travels
	// as the unit's Arg, so task dispatch needs no per-task closure.
	taskBody glt.Func

	// slots recycles the per-region dispatch state: the unit and target
	// slices handed to SpawnBatch and the one closure that binds a glt.Ctx to
	// the region's team. Pooling the closure with the slices is what keeps
	// the region path free of per-region allocations.
	slots sync.Pool
	// flushBufs recycles the target/arg scratch slices of a burst's Enqueue.
	flushBufs sync.Pool
}

// regionSlot is the pooled dispatch state of one in-flight region.
type regionSlot struct {
	team    *omp.Team
	units   []*glt.Unit
	targets []int    // a top-level region's member streams, rank 1 first
	fn      glt.Func // created once: runs slot.team.Run for the unit's tag
}

// flushBuf is the pooled scratch of one burst's Enqueue.
type flushBuf struct {
	targets []int
	args    []any
}

// New builds a GLTO runtime. The GLT execution streams are created now
// ("when the library is loaded", §IV-B): one per configured OpenMP thread.
func New(cfg omp.Config) (*Runtime, error) {
	cfg = cfg.WithDefaults()
	g, err := glt.New(glt.Config{
		Backend:      cfg.Backend,
		NumThreads:   cfg.NumThreads,
		SharedQueues: cfg.SharedQueues,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, g: g}
	rt.Frontend = omp.NewFrontend(rt, cfg)
	rt.eng.rt = rt
	rt.taskBody = func(tcx *glt.Ctx) {
		node := tcx.Arg().(*omp.TaskNode)
		team := node.Team()
		num := tcx.Rank() % team.Size
		if node.CreatedBy != num {
			rt.Counters.TasksStolen.Add(1)
		}
		omp.ExecTaskOn(team, num, &rt.eng, tcx, node)
	}
	rt.slots.New = func() any {
		s := &regionSlot{
			units:   make([]*glt.Unit, 0, cfg.NumThreads),
			targets: make([]int, 0, cfg.NumThreads),
		}
		s.fn = func(c *glt.Ctx) { s.team.Run(c.Tag(), &rt.eng, c) }
		return s
	}
	rt.flushBufs.New = func() any {
		return &flushBuf{
			targets: make([]int, 0, cfg.EffectiveTaskBuffer()),
			args:    make([]any, 0, cfg.EffectiveTaskBuffer()),
		}
	}
	return rt, nil
}

// Name reports "glto".
func (rt *Runtime) Name() string { return "glto" }

// Backend reports the underlying GLT backend ("abt", "qth", "mth" or "ws").
func (rt *Runtime) Backend() string { return rt.g.Backend() }

// GLT exposes the underlying GLT runtime (the native-driver experiments of
// Fig. 5 and the ablation benches reach through this).
func (rt *Runtime) GLT() *glt.Runtime { return rt.g }

// RunRegion implements the runtime SPI for a top-level region: one ULT per
// team member, rank i on stream i mod streams (§IV-C). Ranks 1..n-1 are
// dispatched from recycled descriptors as one PushBatch — one scheduling
// synchronization episode instead of n-1. Rank 0 is the master, bound to
// GLT_thread 0 (§IV-B): the caller runs it itself as stream 0's primary ULT
// (glt.Runtime.RunMain), under MassiveThreads pinned so it cannot yield
// (§IV-G), and then joins the other ranks. The team itself arrives pre-built
// and pooled from the Frontend, so the steady-state region path allocates
// nothing at all.
func (rt *Runtime) RunRegion(t *omp.Team) {
	n := t.Size
	rt.Counters.ULTsCreated.Add(int64(n))
	slot := rt.slots.Get().(*regionSlot)
	slot.team = t
	var units []*glt.Unit
	if n > 1 {
		streams := rt.g.NumThreads()
		targets := slot.targets[:0]
		for rank := 1; rank < n; rank++ {
			targets = append(targets, rank%streams)
		}
		slot.targets = targets
		units = rt.g.SpawnBatch(1, slot.fn, targets, slot.units)
	}
	rt.g.RunMain(0, slot.fn)
	for _, u := range units {
		u.Join()
	}
	rt.putSlot(slot, units)
}

// putSlot releases a joined region's member units and recycles its slot.
func (rt *Runtime) putSlot(slot *regionSlot, units []*glt.Unit) {
	if units != nil {
		rt.g.ReleaseAll(units)
		slot.units = units[:0]
	}
	slot.team = nil
	rt.slots.Put(slot)
}

// Shutdown stops the execution streams.
func (rt *Runtime) Shutdown() { rt.g.Shutdown() }

// EngineStats folds the GLT substrate's migrations (units requeued onto
// another stream at a yield) into TasksStolen, and resets glt.Stats together
// with the counter block, so per-layer readers can take glt deltas across the
// same ResetStats.
func (rt *Runtime) EngineStats(s *omp.Stats) {
	if s == nil {
		rt.g.ResetStats()
		return
	}
	s.TasksStolen += rt.g.Stats().Migrations
}

// engine implements omp.EngineOps over GLT.
type engine struct {
	rt *Runtime
}

// ctxOf is the ULT context a TC runs under. Every GLTO TC runs inside a
// unit: region members (RunRegion, Nested), tasks (taskBody) and serialized
// regions, which inherit their encountering TC's context.
func ctxOf(tc *omp.TC) *glt.Ctx { return tc.Ectx().(*glt.Ctx) }

// target maps node's placement (omp's TaskNode.Place, for the releasing rank
// hot or -1) to a stream: round-robin if the rule spreads the task, else the
// stream c runs on, else — a spawn with no context — the named rank's
// stream.
func (e *engine) target(c *glt.Ctx, node *omp.TaskNode, hot int) int {
	rank, spread := node.Place(hot)
	switch {
	case spread:
		return glt.AnyThread
	case c != nil:
		return c.Rank()
	default:
		return rank % e.rt.g.NumThreads()
	}
}

// spawn is GLTO's one single-task dispatch path: node becomes a detached GLT
// unit under the shared taskBody, aimed by target. Tasks are fire-and-forget
// at the GLT level: completion is tracked by the team's task counters
// (FinishTask), never by joining the unit, so the descriptor recycles on the
// worker that ran the task. With a context c the descriptor comes from c's
// stream's unlocked cache; with none (a cold release), from the shared free
// list.
func (e *engine) spawn(c *glt.Ctx, node *omp.TaskNode, hot int) {
	from := -1
	if c != nil {
		from = c.Rank()
	}
	e.rt.Counters.ULTsCreated.Add(1)
	e.rt.g.SpawnDetached(from, e.target(c, node, hot), e.rt.taskBody, node)
}

// Inline applies no cut-off, but GLTO inherits BOLT/LLVM's correct final
// semantics: descendants of a final task are themselves final, so the whole
// subtree executes undeferred (this is the task_final validation test GLTO
// passes and the pthread runtimes fail, Table I).
func (e *engine) Inline(tc *omp.TC, node *omp.TaskNode) bool {
	if tc.CurTask() != nil && tc.CurTask().Final {
		node.Final = true
	}
	return false
}

// Enqueue converts the OMP tasks into GLT work units (§IV-D). One node — an
// unbuffered spawn or a dependence release — is one spawn. A burst, which
// only a flush hands over, becomes one detached batch: the task nodes ride
// as unit payloads under the shared task body, and the policy sees a single
// PushBatch — one synchronization episode for the whole burst, against one
// locked push per task in the paper's design.
//
// A hot releaser's ectx is the ULT context it executes under, naming the
// true stream (a stolen or nested task's team rank need not), so the unit
// comes from that stream's unlocked cache: the release fires inside the
// finishing task's body extent, while it holds the stream's token. A cold
// release (hot < 0, ectx nil: a goroutine with no stream dropped the last
// reference — a tracer's deferred Release, glt's ReleaseAll) spawns from the
// shared free list.
func (e *engine) Enqueue(_ *omp.Team, nodes []*omp.TaskNode, hot int, ectx any) {
	c, _ := ectx.(*glt.Ctx)
	if len(nodes) == 1 {
		e.spawn(c, nodes[0], hot)
		return
	}
	e.rt.Counters.ULTsCreated.Add(int64(len(nodes)))
	fb := e.rt.flushBufs.Get().(*flushBuf)
	targets, args := fb.targets[:0], fb.args[:0]
	for _, node := range nodes {
		targets = append(targets, e.target(c, node, -1))
		args = append(args, node)
	}
	c.SpawnDetachedBatch(e.rt.taskBody, targets, args)
	// Dispatch is complete: drop the task-node pointers from the scratch so
	// the pooled flushBuf does not pin finished tasks (and whatever their
	// closures capture).
	clear(args)
	fb.targets, fb.args = targets[:0], args[:0]
	e.rt.flushBufs.Put(fb)
}

// TryRunTask is the wait step's hunt: tc.Hunt raids the team's producer-side
// overflow rings and executes one claimed task inline. Waiters do not poll
// an engine queue for *dispatched* tasks: those are ULTs living in the GLT
// pools, so yielding in Idle *is* how waiting threads execute them — the
// stream's scheduler picks the task ULTs up between yields. Ring-resident
// tasks are different: they are not units yet, so waiters claim them here
// (the same raid that ends the pthread engines' hunt) before falling back
// to a yield. Every wait that calls the step is a task scheduling point, so
// running the claimed task there is legal, exactly as on the pthread engines.
func (e *engine) TryRunTask(tc *omp.TC) bool { return tc.Hunt(nil, 0) }

// Taskyield suspends the current task ULT in favour of whatever its stream
// schedules next, then records which stream resumed it (the observable the
// taskyield validation test checks).
func (e *engine) Taskyield(tc *omp.TC) {
	c := ctxOf(tc)
	c.Yield()
	tc.CurTask().ResumedBy.Store(int32(c.Rank() % tc.Team().Size))
}

// Nested spawns the inner team as ULTs on the encountering stream (§IV-E):
// "each GLT_thread generates and executes the GLT_ults for the nested
// code". The encountering ULT itself acts as inner rank 0, so a region of n
// creates n-1 ULTs — hence Table II's 3,500 ULTs for 100 inner regions of
// 36 — batched onto the creator's pool in one synchronization episode.
// Under stealing backends or shared queues the inner ULTs may spread; under
// abt/qth they run on the creator's stream, avoiding all oversubscription.
// The inner team arrives pre-built from the front end's pool.
func (e *engine) Nested(tc *omp.TC, team *omp.Team) {
	n := team.Size
	c := ctxOf(tc)
	e.rt.Counters.ULTsCreated.Add(int64(n - 1))
	slot := e.rt.slots.Get().(*regionSlot)
	slot.team = team
	var units []*glt.Unit
	if n > 1 {
		// Inner ranks are 1..n-1; rank 0 is the encountering ULT below.
		units = c.SpawnBatch(n-1, 1, slot.fn, slot.units)
	}
	team.Run(0, e, c)
	c.JoinAll(units)
	e.rt.putSlot(slot, units)
}

// Idle is the engine's wait primitive: a cooperative yield.
func (e *engine) Idle(tc *omp.TC) { ctxOf(tc).Yield() }
