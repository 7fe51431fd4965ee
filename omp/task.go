package omp

import "sync/atomic"

// TaskNode is one explicit task (the object behind #pragma omp task) or the
// implicit task of a team member. It records the parent/child structure that
// taskwait synchronizes on, and the identity of the threads that created,
// started and resumed it — the observable the OpenUH validation suite's
// taskyield/untied tests check (paper Table I).
//
// Explicit-task nodes are pooled: PrepareTask draws a TaskNode+task-TC pair
// from the creating rank's pool and the last reference dropped at FinishTask
// returns it there, so a steady-state tc.Task spawn allocates nothing —
// the per-ULT creation overhead the paper's Fig. 8/14 analysis identifies is
// paid once per pool slot, not once per task. Lifetime is reference-counted
// (see refs) because a task can outlive its parent's execution and vice
// versa; Generation exposes the recycle stamp so tests (and tools) can assert
// a held node was never recycled out from under them.
type TaskNode struct {
	// Fn is the task body. It receives the TC of the thread executing the
	// task, with CurTask pointing at this node.
	Fn func(*TC)
	// Tied marks the task as tied to the first thread that runs it; once
	// started it may not resume elsewhere. Untied tasks may migrate.
	// OpenMP tasks are tied by default.
	Tied bool
	// Final marks a final task: its children must execute immediately
	// (undeferred) in the encountering thread.
	Final bool
	// Undeferred forces immediate execution at the spawn site without the
	// inheritance semantics of Final (the if(false) clause).
	Undeferred bool
	// inSingleMaster records whether the task was created lexically inside a
	// single or master construct. PrepareTask snapshots it from the creating
	// TC so that Place answers the same when the task is dispatched later
	// from a producer-side buffer, possibly after the construct ended.
	inSingleMaster bool
	// fanOut is set by the dependence release that readied the task: true
	// for a successor readied together with the one the releaser kept (see
	// Place).
	fanOut bool

	// priority is the task's scheduling hint (the Priority option, clause
	// priority(n)): 0..MaxTaskPriority, higher first. It is advisory —
	// honored where ordering is cheap: the producer buffer's drain order
	// (takeBuffered) and the dependence release-dispatch order, where the
	// Cholesky workload uses it to favour the critical path.
	priority int8

	parent *TaskNode
	group  *TaskGroup
	team   *Team

	// refs packs the node's unfinished direct children (high 32 bits, what
	// taskwait reads through Children) with the references that may still
	// reach it (low 32 bits): its own execution (held from PrepareTask until
	// FinishTask), one per unfinished child (a child dereferences its parent
	// when it finishes, to drop the parent's child count) and any Retain
	// callers (tracers). A child's creation adds childRef to its parent and
	// its completion subtracts it, so each costs one RMW on the parent's
	// line. Whoever drops the low half to zero recycles the descriptor into
	// its team's pool — which is what makes the recycle safe against a
	// parent that completed while children were still running, or children
	// that finished after their parent's taskwait returned.
	refs atomic.Uint64
	// gen is the recycle generation, bumped every time the descriptor
	// returns to the pool. A party holding a reference must never observe it
	// change; the recycling white-box tests assert exactly that under -race.
	gen atomic.Uint32
	// slot points back to the pooled node+TC pair this descriptor lives in;
	// nil for implicit-task nodes (which live in Team.nodes and are rearmed
	// per region) and hand-built nodes (garbage collected).
	slot *taskSlot

	// CreatedBy, StartedBy and ResumedBy record team-thread numbers for
	// conformance checks; ResumedBy is -1 until the task resumes after a
	// yield.
	CreatedBy int
	StartedBy atomic.Int32
	ResumedBy atomic.Int32

	// Dependence state (see depend.go). depWants is the depend-clause list
	// recorded by the In/Out/InOut options and consumed at registration;
	// depActive marks an incarnation that was registered in a dependence
	// domain, so Release performs the successor walk. ops is the engine the
	// task was created under, kept only for dep-active nodes so a releaser
	// with no TC can re-queue a parked successor. preds counts unsatisfied
	// predecessors plus the creation guard; succState/succInline/succSpill
	// are the sealed, generation-stamped successor list.
	depWants   []depWant
	depActive  bool
	ops        EngineOps
	preds      atomic.Int32
	succState  atomic.Uint64
	succInline [depInlineSuccs]atomic.Pointer[TaskNode]
	succSpill  atomic.Pointer[[]atomic.Pointer[TaskNode]]

	// traceCreate and traceRelease are flight-recorder stamps: FlightTracer
	// writes the trace clock at TaskCreate / DepRelease and reads it back at
	// TaskStart for the queue-residency and release→start histograms. Plain
	// fields: the writes ride the same happens-before edges as the node
	// itself (queue push→pop, release→requeue), and they are only touched
	// under an installed tracer.
	traceCreate  int64
	traceRelease int64

	// self is the one-node burst an unbuffered spawn or a dependence
	// release hands to EngineOps.Enqueue (see alone): a slice of the node's
	// own storage, so neither allocates.
	self [1]*TaskNode
}

// alone returns the burst holding node n alone.
func (n *TaskNode) alone() []*TaskNode {
	n.self[0] = n
	return n.self[:]
}

// newTaskNode links a fresh node under parent and pre-sets the bookkeeping
// fields. It is the non-pooled construction path, kept for implicit tasks
// built outside a team's slot array (NewTC).
func newTaskNode(fn func(*TC), parent *TaskNode, createdBy int) *TaskNode {
	n := &TaskNode{}
	n.reset(createdBy)
	n.Fn = fn
	n.parent = parent
	return n
}

// reset initializes the per-incarnation fields shared by every construction
// path. The generation stamp and slot back-pointer deliberately survive.
func (n *TaskNode) reset(createdBy int) {
	n.Fn = nil
	n.Tied = true
	n.Final = false
	n.Undeferred = false
	n.inSingleMaster = false
	n.fanOut = false
	n.priority = 0
	n.parent = nil
	n.group = nil
	n.team = nil
	n.refs.Store(1)
	n.CreatedBy = createdBy
	n.StartedBy.Store(-1)
	n.ResumedBy.Store(-1)
	n.depActive = false
	n.ops = nil
	n.preds.Store(0)
	n.traceCreate = 0
	n.traceRelease = 0
	if len(n.depWants) > 0 {
		// Normally consumed by registration; cleared here so a node prepared
		// with depend options but dispatched by a caller that bypassed
		// tc.Task cannot leak user addresses into its next incarnation.
		clear(n.depWants)
		n.depWants = n.depWants[:0]
	}
	// succState/succInline/succSpill deliberately survive: the release walk
	// retired them (and bumped the dependence generation), and resetting the
	// generation here would let a stale producer's edge-add CAS succeed
	// against a reincarnation.
}

// rearm resets a pooled implicit-task node for its next region (Team.Run).
func (n *TaskNode) rearm(createdBy int) { n.reset(createdBy) }

// childRef is one child's share of its parent's refs word: a child count in
// the high half and the reference the child holds in the low half.
const childRef = 1<<32 | 1

// Children reports the number of unfinished direct children.
func (n *TaskNode) Children() int64 { return int64(n.refs.Load() >> 32) }

// Team returns the team the task is bound to (the region whose implicit
// barrier waits for it). It is set by PrepareTask; engines dispatching tasks
// from a buffer use it to rebuild the execution context (see ExecTaskOn).
func (n *TaskNode) Team() *Team { return n.team }

// Place is the task-placement rule (§IV-D), the one answer to where a task
// handed to its engine goes. rank is the team rank whose structures should
// take it; spread asks the engine to deal it round-robin over its streams
// instead, where it can.
//
// A task the engine takes at creation or from a producer-side buffer, or one
// released with no hot context (hot < 0), goes to its creator, CreatedBy, and
// is spread if it was created inside single/master. A task released hot goes
// to the releaser, hot, where its inputs were just written, and is spread
// only if it is fan-out — a successor readied together with the one the
// releaser kept — and was created inside single/master: abt and qth streams
// never steal, so a wave sent to the releaser would queue behind its chain
// while the other streams idle. GLTO honours spread; the pthread engines read
// rank only and leave the wave to their thieves.
func (n *TaskNode) Place(hot int) (rank int, spread bool) {
	if hot < 0 {
		return n.CreatedBy, n.inSingleMaster
	}
	return hot, n.inSingleMaster && n.fanOut
}

// Generation reports the descriptor's recycle stamp. A party holding a
// reference (creator until dispatch, executor until FinishTask, a child's
// view of its parent, a Retain caller) observes a constant generation; a
// changed value proves the node was recycled — the aliasing bug the pooled
// lifecycle exists to prevent, and what the recycling tests assert.
func (n *TaskNode) Generation() uint32 { return n.gen.Load() }

// Retain adds a reference so the holder (a tracer, a tool) may keep the node
// past FinishTask. Every Retain must be paired with exactly one Release.
func (n *TaskNode) Retain() { n.refs.Add(1) }

// relCtx is the releaser's execution context, threaded from execTask or
// ExecTaskOn through finishTask into the dependence-release walk so a
// released successor can be run inline (release-to-self chaining) or pushed
// to the releasing thread's own queue (hot dispatch) instead of its
// creator's. depth counts the chain links already taken on this stack; nil
// means the release fires with no thread context (a tracer's deferred
// Release, glt's ReleaseAll) and every successor takes the fallback path.
type relCtx struct {
	team  *Team
	num   int
	ops   EngineOps
	ectx  any
	depth int
}

// Release drops a reference; the dropper of the last one recycles the
// descriptor into its team's pool (implicit and hand-built nodes are simply
// left to their owner). The node must not be touched after Release.
func (n *TaskNode) Release() { n.release(nil) }

// release is Release with the releaser's context attached, so a dependence
// release can chain or hot-dispatch (see relCtx).
func (n *TaskNode) release(rc *relCtx) { n.drop(1, rc) }

// drop subtracts d from refs — 1 for a plain reference, childRef for a
// finishing child — and runs the last-reference path when the reference
// half reaches zero.
func (n *TaskNode) drop(d uint64, rc *relCtx) {
	if uint32(n.refs.Add(-d)) != 0 {
		return
	}
	if n.depActive {
		// The last-ref drop is the dependence-release point: seal the
		// successor list and hand every successor whose final predecessor
		// this was to its engine — before the descriptor can recycle, so a
		// successor never observes its predecessor's next incarnation.
		n.releaseSuccessors(rc)
		n.depActive = false
		n.ops = nil
	}
	s := n.slot
	if s == nil {
		return
	}
	// Drop user-reachable payloads so a pooled descriptor pins neither the
	// task closure nor the parent chain, then advance the generation before
	// the slot becomes claimable again.
	n.Fn = nil
	n.parent = nil
	n.group = nil
	n.gen.Add(1)
	putTaskSlot(s)
}

// TaskOpt customizes Task.
type TaskOpt func(*TaskNode)

// Untied marks the task as untied: it may resume on a different thread after
// a task scheduling point. Whether it actually migrates depends on the
// runtime — per the paper, only GLTO over MassiveThreads moves started tasks
// between threads.
func Untied() TaskOpt { return func(n *TaskNode) { n.Tied = false } }

// Final marks the task final: it and its descendants execute undeferred.
func Final() TaskOpt { return func(n *TaskNode) { n.Final = true } }

// If gives the task an if clause: with cond false the task is undeferred,
// executing immediately at the spawn site.
func If(cond bool) TaskOpt { return func(n *TaskNode) { n.Undeferred = !cond } }

// MaxTaskPriority is the highest task priority level (omp_get_max_task_priority).
const MaxTaskPriority = 7

// Priority gives the task a scheduling priority hint (the priority(n)
// clause), clamped to 0..MaxTaskPriority; higher runs first where the
// runtime orders cheaply — the producer buffer's drain and the dependence
// release-dispatch order. Like the OpenMP clause it is advisory: it never
// changes which tasks run, only preference among simultaneously ready ones.
func Priority(n int) TaskOpt {
	if n < 0 {
		n = 0
	} else if n > MaxTaskPriority {
		n = MaxTaskPriority
	}
	return func(node *TaskNode) { node.priority = int8(n) }
}

// Priority reports the task's priority hint (0..MaxTaskPriority).
func (n *TaskNode) Priority() int { return int(n.priority) }

// execTask runs node on the calling thread, giving its body a task-scoped TC
// and settling the completion bookkeeping (parent child count, team task
// count) when the body returns. The wait step's hunt and undeferred
// execution call it. Task completion is a scheduling point: tasks the body
// buffered are flushed before the node is marked finished.
func execTask(tc *TC, node *TaskNode) {
	rc := relCtx{team: tc.team, num: tc.num, ops: tc.ops, ectx: tc.ectx}
	execNode(node, &rc)
}

// ExecTaskOn is execTask for engines that run task bodies in their own work
// units and have no creating TC at hand (GLTO's ULT-per-task): it builds the
// task-scoped context for team-rank num over ops/ectx directly, runs the
// body, flushes tasks the body buffered, and settles the completion
// bookkeeping.
func ExecTaskOn(team *Team, num int, ops EngineOps, ectx any, node *TaskNode) {
	rc := relCtx{team: team, num: num, ops: ops, ectx: ectx}
	execNode(node, &rc)
}

// execChained runs a dependence-released successor inline on the releasing
// thread: the release-to-self fast path, entered from the successor walk when
// the releaser has a context and chain budget (see releaseSuccessors). It is
// ExecTaskOn with the chain depth threaded through, so a chain of releases
// recurses at most EffectiveDepChain frames before the walk falls back to
// EngineOps.Enqueue. The releaser's buffered tasks were already flushed (task
// completion is a scheduling point, and the flush precedes finishTask), so
// chaining never buries raidable work behind the inline execution.
func execChained(node *TaskNode, rc *relCtx) {
	next := relCtx{team: rc.team, num: rc.num, ops: rc.ops, ectx: rc.ectx, depth: rc.depth + 1}
	execNode(node, &next)
}

// execNode is the unified execution choke point behind execTask, ExecTaskOn
// and execChained — which is what makes cancellation drain-without-execute
// complete: wherever a task surfaces (shared queue, deque, overflow ring
// raid, release slot, ULT, chained release), it passes through here, and a
// node whose taskgroup or team is cancelled is drained instead of run. The
// body executes under the task-level panic boundary (runBody): a panicking
// body cancels its group (or region) and records the panic, then completes
// through the same bookkeeping as a healthy task.
func execNode(node *TaskNode, rc *relCtx) {
	team := rc.team
	if (node.group != nil && node.group.Cancelled()) || team.Cancelled() {
		drainTask(team, node, rc)
		return
	}
	node.StartedBy.CompareAndSwap(-1, int32(rc.num))
	emitTrace(func(tr Tracer) { tr.TaskStart(team, node) })
	ttc := taskContext(node, team, rc.num, rc.ops, rc.ectx)
	runBody(ttc, node)
	ttc.flushPending()
	finishTask(team, node, rc)
}

// runBody invokes the task body under the panic boundary. A recovered panic
// cancels the node's taskgroup — or, for a task outside any group, the whole
// region — and records a *TaskPanicError on the team, to resurface from the
// region entry point once the region unwinds. The node's own completion
// bookkeeping runs normally in the caller, so parents, groups, barriers and
// the team task count all release exactly as for a healthy task — a panic
// can never wedge a wait.
func runBody(ttc *TC, node *TaskNode) {
	defer func() {
		if r := recover(); r != nil {
			team := ttc.team
			if _, isBreak := r.(cancelBreakSentinel); !isBreak {
				if o := team.owner; o != nil {
					o.Counters.PanicsRecovered.Add(1)
				}
				team.recordPanic(r)
			}
			if g := node.group; g != nil {
				g.Cancel()
			} else {
				team.Cancel()
			}
		}
	}()
	node.Fn(ttc)
}

// drainTask completes a cancelled task without running its body: the full
// finishTask bookkeeping — parent child count, group count, team task count,
// descriptor recycle, and (via node.release) the dependence-successor walk,
// so a cancelled graph's successors are released, claimed, and drained in
// cascade. The recycle-before-Tasks-decrement ordering contract of
// finishTask holds here identically.
func drainTask(team *Team, node *TaskNode, rc *relCtx) {
	if o := team.owner; o != nil {
		o.Counters.TasksCancelled.Add(1)
	}
	emitTrace(func(tr Tracer) { tr.TaskCancel(team, node) })
	if p := node.parent; p != nil {
		p.drop(childRef, rc)
	}
	g := node.group
	node.release(rc)
	if g != nil {
		g.count.Add(-1)
	}
	team.Tasks.Add(-1)
}

// taskContext builds (or rearms) the task-scoped TC for node. Pooled nodes
// reuse the TC paired with them in their slot — exactly one thread executes a
// node, so the pair shares the node's lifetime; the TC's overflow ring and
// flush scratch survive recycles, keeping task-created tasks allocation-free
// too. Non-pooled nodes fall back to a fresh TC.
func taskContext(node *TaskNode, team *Team, num int, ops EngineOps, ectx any) *TC {
	if s := node.slot; s != nil {
		s.tc.rearmTask(team, num, ops, ectx, node)
		return &s.tc
	}
	return &TC{team: team, num: num, ops: ops, ectx: ectx, cur: node, group: node.group}
}

// FinishTask performs the completion bookkeeping for node: it detaches the
// task from its parent's child count and from the team's outstanding-task
// count, and drops the execution reference — which recycles the descriptor
// unless live children (or Retain holders) still reference it. Engines that
// execute task bodies themselves (e.g. as ULTs) call it after the body
// returns; execTask and ExecTaskOn call it automatically. The node (and its
// slot TC) must not be touched after FinishTask returns.
//
// Ordering matters: every recycle (node.Release, parent release) happens
// before the team task count drops, because Tasks reaching zero is what lets
// the region's end barrier release and the team descriptor recycle — a slot
// returned after that could race the next region's pool reset.
func FinishTask(team *Team, node *TaskNode) { finishTask(team, node, nil) }

// finishTask is FinishTask with the finishing thread's release context, so
// the dependence releases fired by the reference drops below can chain or
// hot-dispatch. The chained successor (if any) runs inside node.release —
// before this task's own Team.Tasks decrement, which is safe because the
// successor has been counted in Team.Tasks since its PrepareTask, so the
// count stays positive throughout and the ordering contract above holds.
func finishTask(team *Team, node *TaskNode, rc *relCtx) {
	// TaskEnd fires before any reference drops: the node is still whole for
	// the tracer (Release may recycle it, and the tracer contract lets
	// implementations read node fields without a Retain inside the
	// callback).
	emitTrace(func(tr Tracer) { tr.TaskEnd(team, node) })
	if p := node.parent; p != nil {
		p.drop(childRef, rc)
	}
	g := node.group
	node.release(rc)
	if g != nil {
		g.count.Add(-1)
	}
	team.Tasks.Add(-1)
}

// PrepareTask builds the TaskNode for a tc.Task call — drawn from the team's
// descriptor pool, so steady-state task creation allocates nothing — and
// registers it with the parent task and the team counters. The parent gains a
// child and a reference in one atomic add of childRef (the child must be able
// to drop the parent's child count whenever it finishes, even long after the
// parent's own execution completed). It is exported for runtime engines;
// application code uses tc.Task.
func PrepareTask(tc *TC, fn func(*TC), opts ...TaskOpt) *TaskNode {
	node := tc.team.getTaskSlot(tc.num)
	node.reset(tc.num)
	node.Fn = fn
	node.parent = tc.cur
	node.team = tc.team
	node.inSingleMaster = tc.inSM
	for _, o := range opts {
		o(node)
	}
	if node.parent != nil {
		node.parent.refs.Add(childRef)
	}
	if tc.group != nil {
		node.group = tc.group
		tc.group.count.Add(1)
	}
	tc.team.Tasks.Add(1)
	emitTrace(func(tr Tracer) { tr.TaskCreate(tc.team, node) })
	return node
}
