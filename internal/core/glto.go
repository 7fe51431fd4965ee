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
//     GLT_ult; the master joins them and continues sequentially (§IV-C).
//     This ULT-per-thread creation is the "work assignment" cost that makes
//     GLTO slower than the function-pointer handoff of the pthread runtimes
//     in compute-bound for loops (Fig. 7) — and it is created here on every
//     region, deliberately.
//   - Task parallelism: every OMP task becomes a GLT_ult. Tasks created
//     inside a single/master construct are dispatched round-robin over all
//     streams; otherwise each stream keeps its own tasks (§IV-D). The rule
//     also places the fan-out of a dependence release. Deferred
//     tasks are submitted in producer-side batches through the engine's
//     PushBatch by default; Config.PerUnitDispatch restores the paper's
//     one-push-per-task cost.
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
	"runtime"
	"sync"
	"sync/atomic"

	"repro/glt"
	_ "repro/glt/backends"
	"repro/glt/trace"
	"repro/internal/tour"
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
	eng engine        // the one EngineOps instance; stateless beyond rt
	rr  atomic.Uint64 // round-robin cursor for single/master task dispatch

	// taskBuf is the producer-side task buffer capacity (0 = batching off).
	taskBuf int
	// taskBody is the shared body of every batched task ULT; the per-task
	// state travels as the unit's Arg, so batched dispatch needs no per-task
	// closure.
	taskBody glt.Func

	// slots recycles the per-region dispatch state: the unit slice handed to
	// SpawnTeam/SpawnBatch and the one closure that binds a glt.Ctx to the
	// region's team. Pooling the closure with the slice is what keeps the
	// region path free of per-region allocations.
	slots sync.Pool
	// flushBufs recycles the target/arg scratch slices of FlushTasks.
	flushBufs sync.Pool

	// drainTab tracks the teams whose regions are currently in flight,
	// indexed by execution stream, so the engine's idle drain hook knows
	// which producer-side overflow rings exist to be raided without taking
	// any lock: each stream owns a fixed array of atomically published
	// (team, epoch) entries. Top-level regions enlist under the stream of
	// their rank-0 member, nested regions under their encountering stream;
	// an idle stream tours the table starting at its own index, so a
	// many-teams workload (nested regions in flight on every stream) finds
	// its local teams first and never scans a global list under a mutex
	// (the previous design: one activeMu over a flat team slice). Entries
	// are published by RunRegion/Nested and retired before the team
	// descriptor returns to the front end's pool; the epoch stamp lets a
	// raider holding a just-retired entry detect descriptor recycling (see
	// omp.Team.Epoch — and note the raid itself is recycle-safe, the stamp
	// only spares stale work). A stream whose array is full spills to the
	// mutex-guarded overflow list, touched only when a single stream hosts
	// more than drainSlots regions at once.
	drainTab []drainDir
	spillMu  sync.Mutex
	spill    []*omp.Team
	spillN   atomic.Int32
}

// drainSlots is the per-stream capacity of the idle-drain registry: how many
// in-flight regions one stream can have published before enlists spill to
// the mutex-guarded fallback.
const drainSlots = 4

// drainEntry is one published (team, epoch) pair. The team pointer is
// claimed/retired with CAS/store; the epoch is written by the publisher
// after winning the slot, so a raider that reads a team with a mismatched
// epoch simply skips it (the entry is mid-publish or the team recycled).
type drainEntry struct {
	team  atomic.Pointer[omp.Team]
	epoch atomic.Uint64
}

// drainDir is one stream's slice of the idle-drain registry, padded so
// neighbouring streams' publishes do not false-share.
type drainDir struct {
	slot [drainSlots]drainEntry
	// rng is the owning stream's tour stream. stealBufferedTask runs only
	// on the owner's scheduler goroutine (the idle-drain hook and the
	// owner's own scheduling points), so it needs no synchronization.
	rng tour.Rand
	_   [64]byte
}

// regionSlot is the pooled dispatch state of one in-flight region.
type regionSlot struct {
	team  *omp.Team
	units []*glt.Unit
	fn    glt.Func // created once: runs slot.team.Run for the unit's tag
}

// flushBuf is the pooled scratch of one FlushTasks episode.
type flushBuf struct {
	targets []int
	args    []any
}

// New builds a GLTO runtime. The GLT execution streams are created now
// ("when the library is loaded", §IV-B): one per configured OpenMP thread.
func New(cfg omp.Config) (*Runtime, error) {
	cfg = cfg.WithDefaults()
	g, err := glt.New(glt.Config{
		Backend:         cfg.Backend,
		NumThreads:      cfg.NumThreads,
		SharedQueues:    cfg.SharedQueues,
		PerUnitDispatch: cfg.PerUnitDispatch,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, g: g, taskBuf: cfg.EffectiveTaskBuffer()}
	rt.Frontend = omp.NewFrontend(rt, cfg)
	rt.drainTab = make([]drainDir, g.NumThreads())
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
		s := &regionSlot{units: make([]*glt.Unit, 0, cfg.NumThreads)}
		s.fn = func(c *glt.Ctx) { s.team.Run(c.Tag(), &rt.eng, c) }
		return s
	}
	rt.flushBufs.New = func() any {
		return &flushBuf{
			targets: make([]int, 0, rt.taskBuf),
			args:    make([]any, 0, rt.taskBuf),
		}
	}
	// The engine-level half of consumer-visible overflow: a stream that found
	// nothing to pop — and, on stealing backends, nothing to steal — raids
	// the active teams' producer-side rings and respawns the claimed task as
	// a detached unit on itself, instead of parking.
	g.SetIdleDrain(rt.drainBufferedTask)
	return rt, nil
}

// enlist publishes t in stream's directory of the idle-drain registry and
// returns the slot index claimed, or -1 when the directory was full and the
// team went to the spill list. The steady-state path is one CAS plus one
// store; only the spill takes a mutex.
func (rt *Runtime) enlist(t *omp.Team, stream int) int {
	d := &rt.drainTab[stream%len(rt.drainTab)]
	for j := range d.slot {
		e := &d.slot[j]
		if e.team.Load() == nil && e.team.CompareAndSwap(nil, t) {
			e.epoch.Store(t.Epoch())
			return j
		}
	}
	rt.spillMu.Lock()
	rt.spill = append(rt.spill, t)
	rt.spillN.Add(1)
	rt.spillMu.Unlock()
	return -1
}

// delist retires the entry enlist published (h is enlist's return value).
// Only the enlisting goroutine calls it, with the region over, so the CAS
// can only race a raider's reads, never another delist of the same entry.
func (rt *Runtime) delist(t *omp.Team, stream, h int) {
	if h >= 0 {
		rt.drainTab[stream%len(rt.drainTab)].slot[h].team.CompareAndSwap(t, nil)
		return
	}
	rt.spillMu.Lock()
	for i, a := range rt.spill {
		if a == t {
			last := len(rt.spill) - 1
			rt.spill[i] = rt.spill[last]
			rt.spill[last] = nil
			rt.spill = rt.spill[:last]
			rt.spillN.Add(-1)
			break
		}
	}
	rt.spillMu.Unlock()
}

// stealBufferedTask claims one task from any active team's overflow rings,
// touring the stream-indexed registry — lock-free end to end: atomic entry
// loads here, and the per-rank ring-directory raid inside
// StealBufferedTaskFrom. The tour is convoy-aware: it starts at a
// pseudo-random directory in a pseudo-random direction, drawn from the idle
// stream's own tour stream (so N streams going idle on the same burst fan
// out over producers instead of stampeding one), and alternates outward
// from the start, visiting near directories before far ones (see
// internal/tour). A team whose epoch no longer matches its entry is
// mid-publish or recycled and is skipped; the claim itself is recycle-safe
// regardless (see omp's ringSet), the stamp just spares raiding a
// descriptor that has moved on.
func (rt *Runtime) stealBufferedTask(rank int) *omp.TaskNode {
	n := len(rt.drainTab)
	start, dir := rt.drainTab[rank%n].rng.Start(n)
	for k := 0; k < n; k++ {
		d := &rt.drainTab[tour.At(start, dir, k, n)]
		for j := range d.slot {
			e := &d.slot[j]
			t := e.team.Load()
			if t == nil || e.epoch.Load() != t.Epoch() {
				continue // retires punch holes, so no dense-prefix cutoff here
			}
			if node := t.StealBufferedTaskFrom(rank); node != nil {
				return node
			}
		}
	}
	if rt.spillN.Load() > 0 {
		rt.spillMu.Lock()
		for _, t := range rt.spill {
			if node := t.StealBufferedTaskFrom(rank); node != nil {
				rt.spillMu.Unlock()
				return node
			}
		}
		rt.spillMu.Unlock()
	}
	return nil
}

// drainBufferedTask is the glt idle drain hook (glt.Runtime.SetIdleDrain):
// called on stream rank's scheduler goroutine when its Pop and StealHalf
// both came up empty. A claimed task is respawned as a detached work unit on
// the idle stream itself — through the rank's unlocked descriptor cache, so
// the rescue allocates nothing — giving it the full ULT semantics (yield,
// migration) a normally dispatched task would have.
func (rt *Runtime) drainBufferedTask(rank int) bool {
	node := rt.stealBufferedTask(rank)
	if node == nil {
		return false
	}
	// The rescue is a raid on the producer's overflow ring; stamp it on the
	// idle stream's timeline with the raided producer as the victim. (The
	// raid itself already credited TasksStolenFromBuffer and fired the
	// omp-level StealTour; this is the glt-side view of the same event.)
	trace.Emit(rank, trace.KindRaid, uint64(node.CreatedBy))
	rt.Counters.ULTsCreated.Add(1)
	rt.g.SpawnDetachedFrom(rank, rank, rt.taskBody, node, rt.cfg.Tasklets)
	return true
}

// Name reports "glto".
func (rt *Runtime) Name() string { return "glto" }

// Backend reports the underlying GLT library ("abt", "qth" or "mth").
func (rt *Runtime) Backend() string { return rt.g.Backend() }

// GLT exposes the underlying GLT runtime (the native-driver experiments of
// Fig. 5 and the ablation benches reach through this).
func (rt *Runtime) GLT() *glt.Runtime { return rt.g }

// RunRegion implements the runtime SPI for a top-level region: one ULT per
// team member, rank i on stream i mod streams, joined by the caller (§IV-C).
// The whole team is dispatched from recycled descriptors as one PushBatch —
// one scheduling synchronization episode per region instead of n — unless
// Config.PerUnitDispatch restores the paper's per-unit cost. Unit 0 is the
// primary work unit: under MassiveThreads it is pinned and cannot yield
// (§IV-G). The team itself arrives pre-built and pooled from the Frontend,
// so the steady-state region path allocates nothing at all.
func (rt *Runtime) RunRegion(t *omp.Team) {
	n := t.Size
	rt.Counters.ULTsCreated.Add(int64(n))
	slot := rt.slots.Get().(*regionSlot)
	slot.team = t
	units := rt.g.SpawnTeam(n, slot.fn, slot.units)
	// Publish the team to idle streams only now that every member is queued
	// on its stream: a stream pops before it drains, so it runs its own
	// member before it can raid the team's rings, and a stream still
	// waiting for its member cannot rescue a burst its member would run.
	// Rank 0 lands on stream 0 (SpawnTeam places rank i on stream i mod
	// streams), so the team is published under stream 0's directory.
	h := rt.enlist(t, 0)
	for _, u := range units {
		u.Join()
	}
	rt.delist(t, 0, h)
	rt.g.ReleaseAll(units)
	slot.units = units[:0]
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

func ctxOf(tc *omp.TC) *glt.Ctx {
	c, _ := tc.Ectx().(*glt.Ctx)
	return c
}

func (e *engine) idle(c *glt.Ctx) {
	if c == nil {
		return
	}
	if c.Unit().IsTasklet() {
		// Tasklets cannot suspend; a waiting tasklet spins while its
		// children run on other streams.
		runtime.Gosched()
		return
	}
	c.Yield()
}

// nextStream advances the round-robin cursor of single/master task
// dispatch (§IV-D) and returns the stream it points at.
func (rt *Runtime) nextStream() int {
	return int(rt.rr.Add(1)-1) % rt.g.NumThreads()
}

// taskTarget resolves the dispatch destination of a deferred task (§IV-D):
// tasks created inside a single/master construct are distributed round-robin
// over all streams, others stay on the creating stream. The decision reads
// the placement snapshot PrepareTask took, so it is identical whether the
// task is dispatched at creation, later from the producer-side buffer, or as
// the fan-out of a dependence release.
func (e *engine) taskTarget(c *glt.Ctx, node *omp.TaskNode) int {
	if c == nil {
		return glt.AnyThread
	}
	if node.InSingleMaster {
		return e.rt.nextStream()
	}
	return c.Rank()
}

// SpawnTask converts the OMP task into a GLT work unit (§IV-D). Deferred
// tasks accumulate in the creating thread's buffer and are dispatched in one
// batch (FlushTasks) at scheduling points or when the buffer fills; under
// Config.PerUnitDispatch every task is its own dispatch episode, as in the
// paper.
func (e *engine) SpawnTask(tc *omp.TC, node *omp.TaskNode) {
	// GLTO inherits BOLT/LLVM's correct final semantics: descendants of a
	// final task are themselves final, so the whole subtree executes
	// undeferred (this is the task_final validation test GLTO passes and
	// the pthread runtimes fail, Table I).
	if tc.CurTask() != nil && tc.CurTask().Final {
		node.Final = true
	}
	if node.Final || node.Undeferred {
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
	e.dispatchTask(tc, node)
}

// dispatchTask is the per-unit task dispatch path (buffering disabled).
func (e *engine) dispatchTask(tc *omp.TC, node *omp.TaskNode) {
	team := tc.Team()
	c := ctxOf(tc)
	e.rt.Counters.ULTsCreated.Add(1)
	body := func(tcx *glt.Ctx) {
		num := tcx.Rank() % team.Size
		if node.CreatedBy != num {
			e.rt.Counters.TasksStolen.Add(1)
		}
		omp.ExecTaskOn(team, num, e, tcx, node)
	}
	target := e.taskTarget(c, node)
	// Tasks are fire-and-forget at the GLT level: completion is tracked by
	// the team's task counters (FinishTask), never by joining the unit. The
	// detached spawn paths exploit that — the descriptor recycles on the
	// worker that ran the task, so per-task dispatch is allocation-free in
	// steady state (modulo the task closure itself).
	if e.rt.cfg.Tasklets {
		// GLT_tasklet execution (paper §III-B): stackless, run to
		// completion, no suspension. The body still receives its Ctx for
		// identity, but must not yield — Idle detects tasklet contexts and
		// spins instead. Dispatched with no originating rank so the
		// requested target wins even under work-first policies.
		e.rt.g.SpawnDetachedTasklet(target, body)
		return
	}
	if c != nil {
		c.SpawnDetached(target, body, false)
		return
	}
	e.rt.g.SpawnDetached(target, body)
}

// FlushTasks dispatches the producer-side buffer as one detached batch: the
// task nodes ride as unit payloads under the shared task body, and the
// policy sees a single PushBatch — one synchronization episode for the whole
// burst, against one locked push per task in the paper's design.
func (e *engine) FlushTasks(tc *omp.TC) {
	nodes := tc.TakeBuffered()
	if len(nodes) == 0 {
		return
	}
	c := ctxOf(tc)
	e.rt.Counters.TaskFlushes.Add(1)
	e.rt.Counters.ULTsCreated.Add(int64(len(nodes)))
	fb := e.rt.flushBufs.Get().(*flushBuf)
	targets, args := fb.targets[:0], fb.args[:0]
	for _, node := range nodes {
		targets = append(targets, e.taskTarget(c, node))
		args = append(args, node)
	}
	switch {
	case e.rt.cfg.Tasklets:
		// As in dispatchTask: no originating rank, so targets win.
		e.rt.g.SpawnDetachedBatch(e.rt.taskBody, targets, args, true)
	case c != nil:
		c.SpawnDetachedBatch(e.rt.taskBody, targets, args, false)
	default:
		e.rt.g.SpawnDetachedBatch(e.rt.taskBody, targets, args, false)
	}
	// Dispatch is complete: drop the task-node pointers from both scratch
	// arrays so neither the pooled flushBuf nor the TC's pooled buffer pins
	// finished tasks (and whatever their closures capture).
	clear(args)
	clear(nodes)
	fb.targets, fb.args = targets[:0], args[:0]
	e.rt.flushBufs.Put(fb)
}

// ReleaseTask dispatches a task whose last dependence was just satisfied as
// a detached GLT unit carrying the node as its payload (the shared taskBody
// recovers it via Ctx.Arg). With a hot releaser its ectx is the ULT context
// it is executing under, naming the true stream — the team rank alone would
// not (stolen and nested tasks run off-rank) — so the spawn goes through
// SpawnDetachedOn: the unit comes from the releasing stream's unlocked
// descriptor cache. The token-handoff model makes that safe: a ULT running
// on a stream has exclusive use of its owner-side caches until it yields,
// and the release fires inside the finishing task's body extent. Where the
// unit is aimed depends on which successor it is. The one the releaser kept
// (the budget-exhausted link of a chain) goes back to the releasing stream,
// where its inputs were just written. Fan-out (TaskNode.FanOut) is placed by
// the creation rule, taskTarget: round-robin over the streams for
// single/master-created tasks, the releasing stream otherwise — abt and qth
// never steal, so a wave sent to the releaser would wait behind its chain
// while the other streams idle. Without a hot context (hot < 0: the last
// reference was dropped by a goroutine with no stream — a tracer's deferred
// Release, glt's ReleaseAll) the spawn takes the no-origin path through the
// shared descriptor free list and the unit targets the creator's stream
// (round-robin for single/master spawners, mirroring taskTarget); either way
// it obeys the policy's ordinary steal/migration rules from there.
func (e *engine) ReleaseTask(team *omp.Team, node *omp.TaskNode, hot int, ectx any) {
	e.rt.Counters.TasksQueued.Add(1)
	e.rt.Counters.ULTsCreated.Add(1)
	streams := e.rt.g.NumThreads()
	if hot >= 0 {
		if c, ok := ectx.(*glt.Ctx); ok && c != nil {
			s := c.Rank()
			target := s
			if node.FanOut() {
				target = e.taskTarget(c, node)
			}
			e.rt.g.SpawnDetachedOn(s, target, e.rt.taskBody, node, e.rt.cfg.Tasklets)
			return
		}
		// Hot rank but no stream context (an implicit task run without a ULT,
		// e.g. the no-ctx nested path): target the releaser's nominal stream
		// through the shared free list — still a locality hint, minus the
		// cache-local descriptor.
		e.rt.g.SpawnDetachedArg(hot%streams, e.rt.taskBody, node, e.rt.cfg.Tasklets)
		return
	}
	target := node.CreatedBy % streams
	if node.InSingleMaster {
		target = e.rt.nextStream()
	}
	e.rt.g.SpawnDetachedArg(target, e.rt.taskBody, node, e.rt.cfg.Tasklets)
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

// Taskwait yields until the current task's children complete.
func (e *engine) Taskwait(tc *omp.TC) {
	cur := tc.CurTask()
	c := ctxOf(tc)
	for cur.Children() > 0 {
		e.idle(c)
	}
}

// Taskyield suspends the current task ULT in favour of whatever its stream
// schedules next, then records which stream resumed it (the observable the
// taskyield validation test checks).
func (e *engine) Taskyield(tc *omp.TC) {
	c := ctxOf(tc)
	if c == nil || c.Unit().IsTasklet() {
		return
	}
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
	// Nested teams enlist under their encountering stream: the inner ULTs
	// spawn there (§IV-E), so that is where an idle tour should find them
	// first.
	stream := 0
	if c != nil {
		stream = c.Rank()
	}
	h := e.rt.enlist(team, stream)
	defer e.rt.delist(team, stream, h)
	e.rt.Counters.ULTsCreated.Add(int64(n - 1))
	slot := e.rt.slots.Get().(*regionSlot)
	slot.team = team
	var units []*glt.Unit
	if n > 1 {
		if c != nil {
			// Inner ranks are 1..n-1; rank 0 is the encountering ULT below.
			units = c.SpawnBatch(n-1, 1, slot.fn, slot.units)
		} else {
			units = slot.units[:0]
			for i := 1; i < n; i++ {
				rank := i
				units = append(units, e.rt.g.Spawn(glt.AnyThread, func(cc *glt.Ctx) {
					team.Run(rank, e, cc)
				}))
			}
		}
	}
	team.Run(0, e, c)
	if c != nil {
		c.JoinAll(units)
	} else {
		for _, u := range units {
			u.Join()
		}
	}
	if units != nil {
		e.rt.g.ReleaseAll(units)
		slot.units = units[:0]
	}
	slot.team = nil
	e.rt.slots.Put(slot)
}

// Idle is the engine's wait primitive: a cooperative yield.
func (e *engine) Idle(tc *omp.TC) {
	e.idle(ctxOf(tc))
}
