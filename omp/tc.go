package omp

import "sync/atomic"

// TC is the per-thread context inside a parallel region: the receiver for
// every OpenMP construct the thread executes. A TC is created by the runtime
// for each implicit task of a region (and for each explicit task body) and
// must only be used by the goroutine or work unit it was handed to.
//
// Implicit-task TCs are pooled inside their Team and rearmed per region by
// Team.Run; explicit-task TCs are pooled alongside their TaskNode in the
// team's task-descriptor slots and rearmed by ExecTask/ExecTaskOn.
type TC struct {
	team *Team
	num  int
	ops  EngineOps
	ectx any
	cur  *TaskNode

	// inSM tracks whether execution is lexically inside a single or master
	// construct. GLTO's task dispatch policy switches on it: tasks created
	// inside single/master are distributed round-robin over the execution
	// streams, while tasks created by all threads stay thread-local
	// (paper §IV-D). PrepareTask snapshots it into each TaskNode so the
	// decision survives task buffering.
	inSM bool

	loopSeq   int64
	singleSeq int64
	sectSeq   int64

	// curOrdered points at the loop state of the ordered loop currently
	// executing on this thread, if any.
	curOrdered *loopState

	// group is the innermost active taskgroup, inherited by tasks created
	// in its extent (see taskgroup.go).
	group *TaskGroup

	// raidRotor is this consumer's cursor into the team's per-rank ring
	// directories: the wait step's raid (TC.Hunt) starts its tour here and
	// parks the rotor on whichever rank yielded a task, so concurrent
	// raiders spread over the producers instead of convoying on the lowest
	// published rank.
	// Single-threaded like the rest of the TC, so no atomics needed.
	raidRotor int

	// deps is this context's dependence domain: the address→version map the
	// depend clauses of tasks created here resolve against (see depend.go).
	// Allocated on first dependent task, retained across rearms (the map is
	// cleared, its storage reused), and only ever touched by the owning
	// thread.
	deps *depTracker

	// traceMember and traceBarrier are flight-recorder stamps: FlightTracer
	// writes the trace clock at MemberStart / BarrierEnter and reads it back
	// at the paired MemberEnd / BarrierExit. Single-threaded like the rest
	// of the TC, and only touched under an installed tracer.
	traceMember  int64
	traceBarrier int64

	// ring is the producer-side overflow ring: deferred tasks accumulate
	// here and are handed to the engine in one FlushTasks call at OpenMP
	// task scheduling points (barriers, taskwait, taskyield, taskgroup end)
	// or when the buffer reaches the engine's limit. Unlike the private
	// slice it replaced, the ring is single-producer/multi-consumer and
	// listed in the team's raid registry, so idle workers can claim
	// buffered tasks *between* the producer's scheduling points instead of
	// waiting for its next flush. Allocated on first use and retained across
	// rearms and descriptor recycles.
	ring *taskRing
	// flushScratch is the reusable slice TakeBuffered drains the ring into.
	flushScratch []*TaskNode
}

// EngineOps is the service provider interface a runtime engine implements to
// back the constructs of a TC. All other construct logic (loop scheduling,
// single election, critical sections, reductions, ordered sequencing, the
// barrier and every task-scheduling wait) is shared and lives in this
// package.
type EngineOps interface {
	// SpawnTask makes node runnable according to the engine's tasking
	// policy (queue, deque, ULT, immediate undeferred execution, or the
	// producer-side buffer via tc.BufferTask — whose true return obliges
	// the engine to FlushTasks before buffering more; see BufferTask).
	SpawnTask(tc *TC, node *TaskNode)
	// FlushTasks dispatches every task left in tc's producer-side overflow
	// ring (tc.TakeBuffered) to the engine's queues in one batch — "left"
	// because idle consumers may have raided part of the burst already. The
	// shared construct code calls it at every task scheduling point; it must
	// be a cheap no-op when the buffer is empty. Engines that never buffer
	// (tc.BufferTask unused) may implement it as an empty method.
	FlushTasks(tc *TC)
	// Taskwait blocks until the current task's children have completed. The
	// pthread engines loop on TC.WaitStep; GLTO only yields, since its
	// queued tasks are ULTs its streams run between yields.
	Taskwait(tc *TC)
	// Taskyield is a task scheduling point at which the engine may suspend
	// the current task in favour of other work.
	Taskyield(tc *TC)
	// Nested runs the pre-built inner team t (t.Size threads, body already
	// bound) with tc as the master: every member executes t.Run(rank, ...).
	// It returns after the inner region's implicit barrier. The front end
	// builds and recycles t; engines only place its members on threads.
	Nested(tc *TC, t *Team)
	// ReleaseTask makes a dependence-parked task runnable: node was built by
	// PrepareTask but never handed to SpawnTask because predecessors were
	// outstanding, and the last of them has now completed. It is called by
	// whichever thread drops the predecessor's final reference — possibly
	// with no thread context of its own — so engines must route the node
	// into a structure reachable without a TC: the shared team queue, the
	// creator's deque (node.CreatedBy), a detached work unit. When the
	// releasing thread IS a team member, hot is its team rank — and ectx its
	// engine execution context (TC.Ectx) — and engines should place the task
	// where that thread consumes next (its own deque bottom, its own stream,
	// a per-rank release slot): the successor's inputs were just written
	// there. GLTO reads the true executing stream from ectx, since a stolen
	// or nested task's team rank need not match its stream. hot is -1 (and
	// ectx nil) when the releaser has no context on the team (a tracer's
	// deferred Release, a cross-team drop) and placement falls back to the
	// creator's structures. The released task then executes through the
	// engine's normal dequeue paths (ExecTask/ExecTaskOn), which settle the
	// same completion bookkeeping as any queued task.
	ReleaseTask(team *Team, node *TaskNode, hot int, ectx any)
	// TryRunTask is the wait step's hunt (TC.WaitStep is its one caller): it
	// claims what the engine's own tasking structures hold, if anything,
	// and hands the claim — or nil — to tc.Hunt, which raids the team's
	// overflow rings if needed, does the steal accounting, reports the
	// hunt's one StealTour and runs the task. It returns Hunt's report of
	// whether a task ran. GLTO hunts its rings only (tc.Hunt(nil, 0)): its
	// queued task ULTs are scheduled by the streams during Idle.
	TryRunTask(tc *TC) bool
	// Idle is the engine's waiting primitive: spin hint for pthread
	// engines, cooperative yield for ULT engines. The wait step calls it
	// when TryRunTask finds nothing; Ordered, which is not a task
	// scheduling point, calls it alone.
	Idle(tc *TC)
}

// NewTC constructs a thread context. It is exported for runtime engines and
// tests; application code receives TCs from Runtime.Parallel and
// tc.Parallel, and the pooled region path builds its TCs in place via
// Team.Run. The node argument is the context's current (implicit or
// explicit) task; pass nil for a fresh implicit task.
func NewTC(team *Team, num int, ops EngineOps, ectx any, node *TaskNode) *TC {
	if node == nil {
		node = newTaskNode(nil, nil, num)
	}
	return &TC{team: team, num: num, ops: ops, ectx: ectx, cur: node}
}

// rearm resets a pooled TC slot for its next region, retaining the overflow
// ring and its flush scratch.
func (tc *TC) rearm(team *Team, num int, ops EngineOps, ectx any, node *TaskNode) {
	tc.team = team
	tc.num = num
	tc.ops = ops
	tc.ectx = ectx
	tc.cur = node
	tc.inSM = false
	tc.loopSeq = 0
	tc.singleSeq = 0
	tc.sectSeq = 0
	tc.curOrdered = nil
	tc.group = nil
	tc.raidRotor = num
	if tc.deps != nil {
		tc.deps.reset()
	}
}

// rearmTask resets the TC paired with a pooled explicit-task node for one
// execution of that node: like rearm, but the current task is the node and
// the taskgroup is inherited from it (descendants join the creator's group).
func (tc *TC) rearmTask(team *Team, num int, ops EngineOps, ectx any, node *TaskNode) {
	tc.rearm(team, num, ops, ectx, node)
	tc.group = node.group
}

// ThreadNum reports the calling thread's number within its team
// (omp_get_thread_num).
func (tc *TC) ThreadNum() int { return tc.num }

// NumThreads reports the team size (omp_get_num_threads).
func (tc *TC) NumThreads() int { return tc.team.Size }

// Level reports the nesting depth of the enclosing region
// (omp_get_level): 0 for a top-level region.
func (tc *TC) Level() int { return tc.team.Level }

// Team exposes the region's shared state. Engines and conformance tests use
// it; applications normally do not need it.
func (tc *TC) Team() *Team { return tc.team }

// Ectx returns the engine-specific execution context attached to this
// thread (for GLTO, the *glt.Ctx of the backing ULT).
func (tc *TC) Ectx() any { return tc.ectx }

// CurTask returns the task node of the currently executing (implicit or
// explicit) task.
func (tc *TC) CurTask() *TaskNode { return tc.cur }

// InSingleMaster reports whether execution is lexically inside a single or
// master construct (see the note on the inSM field).
func (tc *TC) InSingleMaster() bool { return tc.inSM }

// taskRing is the fixed-capacity single-producer/multi-consumer overflow
// ring behind a TC's task buffer. The owning thread is the only producer:
// it writes the slot, then publishes by advancing tail. Consumers — idle
// team members raiding through the wait step's hunt, idle glt streams
// through Team.StealBufferedTaskFrom, and the producer itself when it
// drains at a scheduling point — claim entries by CASing head forward; the
// slot they read is certified by the CAS (the producer never overwrites
// index i until head has passed i, and head passing i fails the claimant's
// CAS).
type taskRing struct {
	head atomic.Int64
	tail atomic.Int64
	// rank and slot locate the ring in its team's raid registry: slot is
	// the index in rank's directory, or -1 while the ring is unlisted.
	// Producer-only: BufferTask lists the ring on a push that finds it
	// unlisted, flushPending retires it at the producer's scheduling
	// points, and ringSet.reset unlists what is left between regions.
	rank, slot int
	// resident points at the owning team's count of ring-resident tasks
	// (ringSet.resident): push increments it, every successful claim
	// decrements it, and the raid fast path reads it alone — so spinning
	// waiters skip the directory tour whenever the rings are drained, not
	// just in regions that never buffered.
	resident *atomic.Int64
	mask     int64
	slots    []atomic.Pointer[TaskNode]
}

func newTaskRing(capacity int, resident *atomic.Int64) *taskRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &taskRing{
		slot:     -1,
		resident: resident,
		mask:     int64(n - 1),
		slots:    make([]atomic.Pointer[TaskNode], n),
	}
}

// push publishes node at the tail. Producer-only; callers guarantee room
// (the engine flushes at its limit, and limit never exceeds capacity).
func (r *taskRing) push(node *TaskNode) {
	t := r.tail.Load()
	r.slots[t&r.mask].Store(node)
	r.tail.Store(t + 1)
	r.resident.Add(1)
}

// claim takes the oldest unclaimed task, or returns nil when the ring is
// empty. Safe for any thread.
func (r *taskRing) claim() *TaskNode {
	for {
		h := r.head.Load()
		if h >= r.tail.Load() {
			return nil
		}
		node := r.slots[h&r.mask].Load()
		if r.head.CompareAndSwap(h, h+1) {
			r.resident.Add(-1)
			return node
		}
	}
}

// size reports the population (racy under concurrent claims, exact for the
// producer in the absence of consumers).
func (r *taskRing) size() int64 {
	n := r.tail.Load() - r.head.Load()
	if n < 0 {
		return 0
	}
	return n
}

// BufferTask appends node to this context's producer-side overflow ring and
// reports whether the buffer has reached limit — in which case the engine
// MUST FlushTasks before buffering anything further: the ring's capacity is
// fixed at first use (sized for limit), so unlike the growable slice it
// replaced, ignoring the signal is not an option (an engine that does, or
// that raises its limit past the first-use capacity, panics here instead of
// silently overwriting a task). It is part of the runtime SPI: engines call
// it from SpawnTask when batched submission is enabled; the shared construct
// code guarantees a FlushTasks at every task scheduling point, so a buffered
// task is dispatched no later than the next barrier/taskwait/taskyield — and
// may be claimed earlier by an idle consumer through the team's raid
// registry, which lists the ring if its rank's directory has room.
func (tc *TC) BufferTask(node *TaskNode, limit int) bool {
	r := tc.ring
	if r == nil {
		// The TC belongs to one team for life (implicit slot or pooled task
		// slot), so the ring binds to that team's resident gate once.
		r = newTaskRing(limit, &tc.team.rings.resident)
		tc.ring = r
	}
	if r.size() > r.mask {
		panic("omp: BufferTask on a full ring — the engine ignored the flush signal or raised its limit past the ring's first-use capacity")
	}
	r.push(node)
	if r.slot < 0 {
		tc.team.rings.list(r, tc.num)
	}
	return r.size() >= int64(limit)
}

// raid claims one task from some team member's overflow ring through this
// consumer's raid rotor (see raidRotor), reporting the directories it
// probed. The claimed node is ready for ExecTask on this thread.
func (tc *TC) raid() (*TaskNode, int) {
	node, at, visited := tc.team.stealBuffered(tc.raidRotor)
	if node != nil {
		tc.raidRotor = at
	}
	return node, visited
}

// Hunt ends the wait step's hunt for a task; every engine's TryRunTask
// finishes with it. node is whatever the engine's own queues yielded (nil
// for none) and visited the queues it probed to get there: a claim with
// visited > 0 is a steal. If the queues yielded nothing, Hunt raids the
// team's overflow rings through this consumer's rotor, so a burst buffered
// by a busy producer runs now rather than at the producer's next scheduling
// point; a claim from another member's ring is a steal. Hunt credits
// TasksStolen and TasksStolenFromBuffer on the team's counter block, reports
// one StealTour of every queue and ring directory probed (none if nothing
// was probed), runs the task on this thread and reports whether there was
// one.
func (tc *TC) Hunt(node *TaskNode, visited int) bool {
	stolen, raided := visited > 0, false
	if node == nil {
		var toured int
		node, toured = tc.raid()
		visited += toured
		raided = node != nil
		stolen = raided && node.CreatedBy != tc.num
	}
	if visited > 0 {
		emitTrace(func(tr Tracer) { tr.StealTour(tc.team, visited, node != nil) })
	}
	if node == nil {
		return false
	}
	if o := tc.team.owner; o != nil {
		if raided {
			o.Counters.TasksStolenFromBuffer.Add(1)
		}
		if stolen {
			o.Counters.TasksStolen.Add(1)
		}
	}
	ExecTask(tc, node)
	return true
}

// BufferedTasks reports how many created-but-not-yet-dispatched tasks sit in
// the producer-side overflow ring. Engines with queue-length policies (the
// Intel cut-off of Fig. 14) must count it as part of the observable queue
// length, so buffering does not change which tasks are deferred versus
// undeferred; ring-resident tasks raided by consumers leave the count the
// same way stolen queue entries would.
func (tc *TC) BufferedTasks() int {
	if tc.ring == nil {
		return 0
	}
	return int(tc.ring.size())
}

// TakeBuffered drains the overflow ring — whatever idle consumers have not
// already claimed — and returns the drained tasks. The returned slice is the
// context's reusable flush scratch: it is valid only until the next
// TakeBuffered on this context, so engines must finish dispatching (or copy)
// before returning from FlushTasks — and should clear() the slice once their
// queues own the nodes, so the pooled scratch does not retain finished tasks.
func (tc *TC) TakeBuffered() []*TaskNode {
	r := tc.ring
	if r == nil {
		return nil
	}
	buf := tc.flushScratch[:0]
	prioritized := false
	for {
		node := r.claim()
		if node == nil {
			break
		}
		prioritized = prioritized || node.priority != 0
		buf = append(buf, node)
	}
	if prioritized {
		// Hand the engine the drain in priority order (stable, in place: the
		// burst is small — at most the engine's buffer limit). The all-zero
		// case — every workload without omp.Priority hints — never pays.
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j].priority > buf[j-1].priority; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
	}
	tc.flushScratch = buf
	return buf
}

// flushPending hands any buffered tasks to the engine and retires the ring
// from the raid registry, even when raiders already emptied it; its next
// push lists it again. Called at every task scheduling point before the
// wait it implies, and at task end. The engines' flush at the buffer limit
// does not retire, since the producer keeps pushing after it.
func (tc *TC) flushPending() {
	r := tc.ring
	if r == nil {
		return
	}
	if r.size() > 0 {
		tc.ops.FlushTasks(tc)
	}
	if r.slot >= 0 {
		tc.team.rings.retire(r)
	}
}

// WaitStep is one step of a task-scheduling wait: it runs one task through
// the engine's TryRunTask and calls Idle only if that found nothing. Every
// wait that is a task scheduling point loops on it, and this is where each
// loop's progress bound is stated — the event that ends it, and whether
// cancellation abandons it:
//
//   - Barrier spinners (BarrierState.spin) loop until the barrier's last
//     arriver bumps the epoch word they watch. They alone feed the adaptive
//     spin budget (region end spins it but never feeds it), and they alone
//     abandon on cancellation: a cancelled rank may never arrive.
//   - The barrier's last arriver (drainTasks) loops until Team.Tasks is zero.
//   - Region end (Team.memberEnd) loops until every rank has arrived and
//     Team.Tasks is zero; each rank arrives exactly once, even after a
//     panic or a cancellation.
//   - Taskgroup end loops until the group's count is zero.
//   - The undeferred-dependence spin (spawnWithDeps) loops until every
//     predecessor has released the node.
//   - Taskwait on the pthread engines loops until the current task's
//     children are done. GLTO's taskwait only yields.
//
// Apart from the barrier spinners, no loop abandons on cancellation, and none
// needs to: a cancelled task completes as a drain, so every count above still
// reaches zero and every predecessor still releases.
func (tc *TC) WaitStep() {
	if !tc.ops.TryRunTask(tc) {
		tc.ops.Idle(tc)
	}
}

// Barrier executes a team barrier (#pragma omp barrier). Barriers are task
// scheduling points: buffered tasks are flushed and waiting threads execute
// queued tasks.
//
// Barriers are also cancellation points: when the region is cancelled, the
// barrier's spinners abandon the wait (a cancelled rank might never arrive),
// and this rank skips the rest of the member body via the cancelBreak
// sentinel — swallowed by Team.runMember — to the region-end rendezvous,
// which synchronizes the team regardless of abandoned construct barriers.
func (tc *TC) Barrier() {
	chaosBarrier()
	tc.flushPending()
	emitTrace(func(tr Tracer) { tr.BarrierEnter(tc) })
	tc.team.Bar.wait(tc)
	emitTrace(func(tr Tracer) { tr.BarrierExit(tc) })
	if tc.team.Cancelled() {
		panic(cancelBreak)
	}
}

// Master runs body on thread 0 only, with no implied barrier
// (#pragma omp master).
func (tc *TC) Master(body func()) {
	if tc.num != 0 {
		return
	}
	prev := tc.inSM
	tc.inSM = true
	body()
	tc.inSM = prev
}

// Single runs body on the first thread to arrive and makes every member wait
// at an implied barrier (#pragma omp single). It reports whether this thread
// was the one elected.
func (tc *TC) Single(body func()) bool {
	return tc.single(body, false)
}

// SingleNoWait is Single with the nowait clause: no implied barrier.
func (tc *TC) SingleNoWait(body func()) bool {
	return tc.single(body, true)
}

func (tc *TC) single(body func(), nowait bool) bool {
	tc.singleSeq++
	elected := tc.team.claimSingle(tc.singleSeq)
	if elected {
		prev := tc.inSM
		tc.inSM = true
		body()
		tc.inSM = prev
	}
	if !nowait {
		tc.Barrier()
	}
	return elected
}

// Critical runs body under the team-wide mutex identified by name
// (#pragma omp critical(name)). The empty name is the unnamed critical.
func (tc *TC) Critical(name string, body func()) {
	m := tc.team.criticalFor(name)
	m.Lock()
	defer m.Unlock()
	body()
}

// Task creates an explicit task (#pragma omp task). The body receives a
// task-scoped TC whose ThreadNum is the executing thread. Deferral,
// placement and stealing are runtime policy: the GNU-like runtime queues to
// a shared team queue, the Intel-like runtime to per-thread deques with a
// cut-off, and GLTO creates a ULT (paper §IV-D). Engines may batch deferred
// tasks through the producer-side overflow ring, from which idle consumers
// may claim them before the next scheduling point; undeferred tasks (final,
// if(0), cut-off overflow) always execute inline at this call, before it
// returns.
// Tasks carrying depend clauses (the In/Out/InOut options) are ordered
// against previously created sibling tasks first: a task with unsatisfied
// predecessors parks until the last of them completes, then flows into the
// same engine fabric (see depend.go).
func (tc *TC) Task(fn func(*TC), opts ...TaskOpt) {
	chaosTask(tc)
	node := PrepareTask(tc, fn, opts...)
	if (node.group != nil && node.group.Cancelled()) || tc.team.Cancelled() {
		// Task creation is a cancellation point: drain the node right here
		// instead of feeding a cancelled graph into the queues. Spawned-but-
		// queued siblings drain at their own dequeue (see execNode).
		rc := relCtx{team: tc.team, num: tc.num, ops: tc.ops, ectx: tc.ectx}
		drainTask(tc.team, node, &rc)
		return
	}
	if lim := tc.team.Cfg.MaxInflightTasks; lim > 0 && !node.Undeferred && !node.Final &&
		tc.team.Tasks.Load() > int64(lim) {
		// Backpressure: past the in-flight budget, deferral degrades to
		// undeferred inline execution — the producer absorbs its own burst
		// instead of growing queues and descriptor pools without bound.
		node.Undeferred = true
		if o := tc.team.owner; o != nil {
			o.Counters.InlineFallbacks.Add(1)
		}
	}
	if len(node.depWants) != 0 {
		tc.spawnWithDeps(node)
		return
	}
	tc.ops.SpawnTask(tc, node)
}

// Taskwait blocks until all children of the current task complete
// (#pragma omp taskwait). It is a task scheduling point: buffered tasks
// flush first, so a task's own children are never stranded in its buffer.
func (tc *TC) Taskwait() {
	tc.flushPending()
	tc.ops.Taskwait(tc)
}

// Taskyield allows the runtime to suspend the current task in favour of
// other work (#pragma omp taskyield). As a task scheduling point it flushes
// the producer-side buffer first.
func (tc *TC) Taskyield() {
	tc.flushPending()
	tc.ops.Taskyield(tc)
}

// Sections executes each function as one section of a sections construct,
// distributing them dynamically over the team, with an implied barrier
// (#pragma omp sections).
func (tc *TC) Sections(fns ...func()) {
	tc.sectSeq++
	ls := tc.team.sectionFor(tc.sectSeq, loopSpec{hi: int64(len(fns)), chunk: 1})
	for {
		i := ls.next.Add(1) - 1
		if i >= int64(len(fns)) {
			break
		}
		fns[i]()
	}
	tc.Barrier()
}

// Parallel opens a nested parallel region of n threads with this thread as
// its master (a nested #pragma omp parallel num_threads(n); pass 0 for the
// configured default size). Whether the region is active or serialized
// follows the nesting ICVs: with Nested disabled or the max-active-levels
// limit reached, body runs on this thread alone in a team of one — which is
// how the pthread runtimes dodge the oversubscription the paper measures
// when nesting is *enabled* (OMP_NESTED=true, §VI-A). The inner team comes
// from the front end's descriptor pool; the engine only places its members.
func (tc *TC) Parallel(n int, body func(*TC)) {
	cfg := tc.team.Cfg
	if n <= 0 {
		n = cfg.NumThreads
	}
	// Any tc.Parallel call is by construction nested (top-level regions come
	// from Runtime.Parallel), so OMP_NESTED=false serializes it outright.
	serialize := !cfg.Nested ||
		cfg.MaxActiveLevels > 0 && tc.team.Level+1 >= cfg.MaxActiveLevels
	if n == 1 || serialize {
		tc.serialRegion(body)
		return
	}
	team := tc.team.newNested(n, body)
	if o := tc.team.owner; o != nil {
		o.Counters.NestedRegions.Add(1)
	}
	tc.ops.Nested(tc, team)
	perr := team.TakePanic()
	tc.team.releaseNested(team)
	if perr != nil {
		// Resurface the inner region's recorded panic on the encountering
		// thread, after the inner region fully unwound and its descriptor was
		// recycled. The outer member/task boundary catches it in turn, so the
		// panic cascades region by region to the top-level entry point.
		panic(perr)
	}
}

// serialRegion runs a serialized parallel region: a team of one on the
// encountering thread, reusing the engine's tasking machinery so explicit
// tasks inside still work.
func (tc *TC) serialRegion(body func(*TC)) {
	if owner := tc.team.owner; owner != nil {
		owner.Counters.SerializedRegions.Add(1)
	}
	team := tc.team.newNested(1, body)
	team.Run(0, tc.ops, tc.ectx)
	perr := team.TakePanic()
	tc.team.releaseNested(team)
	if perr != nil {
		panic(perr) // see tc.Parallel: cascade to the enclosing boundary
	}
}

// newNested fetches a pooled descriptor for an inner region of this team
// (falling back to allocation for hand-built teams with no owning Frontend).
func (t *Team) newNested(size int, body func(*TC)) *Team {
	if t.owner != nil {
		return t.owner.getTeam(size, t.Level+1, t.Cfg, body)
	}
	return NewTeam(size, t.Level+1, t.Cfg, body)
}

// releaseNested returns an inner-region descriptor to the pool it came from.
func (t *Team) releaseNested(inner *Team) {
	if t.owner != nil {
		t.owner.putTeam(inner)
	}
}
