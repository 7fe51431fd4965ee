package omp

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tour"
)

// Team is the shared state of one parallel region: the data behind every
// work-sharing and synchronization construct its members execute. Runtimes
// reuse *threads* across regions (that reuse is exactly what the paper's
// Fig. 7 and Table II measure); since the SPI redesign the front end also
// reuses Team descriptors — a region fetches one from the owning Frontend's
// pool and returns it when the region completes, the way the glt engine
// recycles unit descriptors. Per-encounter bookkeeping (loops, singles,
// criticals) is rearmed on every reuse, so nothing leaks across the hundreds
// of thousands of regions in the CloverLeaf experiment; the backing storage
// (the TC and TaskNode slots, the construct tables) survives, which is what
// makes region respawn allocation-free by construction on every runtime.
type Team struct {
	// Size is the number of implicit tasks (OpenMP threads) in the team.
	Size int
	// Level is the nesting depth: 0 for a top-level region.
	Level int
	// Cfg is the runtime configuration governing this region.
	Cfg Config
	// Bar is the region's barrier, shared by explicit tc.Barrier calls, the
	// implied barriers of work-sharing constructs, and the implicit barrier
	// ending the region. It is epoch-based and self-rearming, so it needs no
	// reset across descriptor reuses.
	Bar BarrierState
	// Tasks counts explicit tasks bound to this region that have not yet
	// finished. The implicit barrier at region end waits for it to drain,
	// per the OpenMP task-completion rules.
	Tasks atomic.Int64
	// ends counts members that have not yet returned from the region's
	// implicit barrier; the member that decrements it to zero — the last one
	// out — fires Tracer.RegionEnd, pairing every RegionBegin exactly once.
	ends atomic.Int32

	// cancelled is the region's sticky cancel flag (see cancel.go): checked
	// (one load, never a CAS) at every task scheduling point, set by
	// Team.Cancel. deadline is the armed region deadline as unix
	// nanoseconds, 0 when none; Cancelled folds an expired deadline into the
	// flag. panicErr records the region's first recovered panic, resurfaced
	// from the region entry point. endArrived counts members that reached
	// the region-end rendezvous — unlike Bar's epoch counters it counts
	// ranks exactly once each, so it releases correctly even when cancelled
	// or panicking ranks skipped construct barriers.
	cancelled  atomic.Bool
	deadline   atomic.Int64
	panicErr   atomic.Pointer[TaskPanicError]
	endArrived atomic.Int32

	loops    loopTable  // work-shared loop instances, by per-member loop seq
	sections loopTable  // sections instances, by per-member sections seq
	singles  claimTable // single-construct claims, by per-member single seq

	// taskPools are the per-rank pools of explicit-task descriptors
	// (TaskNode + task-scoped TC pairs), one shard per rank so producers on
	// different threads never contend on one lock. PrepareTask draws from the
	// creating rank's shard under its lock; the last reference dropped
	// (usually FinishTask, on whichever thread ran the task) pushes the slot
	// back onto that shard's lock-free returned stack, keeping descriptors
	// warm where the producer will spawn next without the returning consumer
	// ever taking the producer's lock (see taskShard). The slots — like the
	// engine data — survive descriptor reuse, which is what makes the
	// steady-state tc.Task spawn allocation-free across the hundreds of
	// thousands of regions of the CloverLeaf and CG experiments.
	taskPools []taskShard

	// rings is the raid registry: the producer-side overflow rings holding
	// tasks between their producers' scheduling points, each listed by its
	// producer on a push and retired at the producer's next scheduling point.
	// Idle consumers walk it through the wait step's hunt (TC.Hunt) and the
	// glt idle-drain hook's StealBufferedTaskFrom, which is what makes
	// the producer-side buffer visible between the producer's scheduling
	// points (the consumer-visible half of the paper's Fig. 14 analysis).
	rings ringSet

	critMu sync.Mutex
	crit   map[string]*sync.Mutex

	// Engine-attached state (task queues, deques). It deliberately survives
	// descriptor reuse: a Team only ever serves one engine (its Frontend's),
	// and recycling the engine's per-team structures is exactly how the task
	// path stays allocation-free across regions. ready is the fast-path flag;
	// data is published before ready is set.
	engMu    sync.Mutex
	engReady atomic.Bool
	engData  any

	// body is the region body every member executes; set by the Frontend (or
	// tc.Parallel for nested regions) before the team is handed to the
	// runtime's RunRegion/Nested.
	body func(*TC)
	// tcs and nodes are the pooled per-rank thread contexts and implicit
	// task nodes, (re)initialized by Run.
	tcs   []TC
	nodes []TaskNode
	// traceBegin is the flight-recorder dispatch stamp: FlightTracer's
	// RegionBegin (fired in prepare, before any member is dispatched)
	// writes the trace clock here, and each member's MemberStart measures
	// its work-assignment latency against it. Plain field: the engine
	// dispatch orders the write before every member's read, and it is only
	// written under an installed tracer.
	traceBegin int64
	// owner is the Frontend whose pool this descriptor belongs to; nil for
	// hand-built teams (NewTeam), which are simply garbage collected.
	owner *Frontend
}

// NewTeam creates the shared state for a parallel region of the given size
// at the given nesting level, with body as the region body. It is the
// non-pooled construction path, kept for engines and tests that build teams
// by hand; runtimes normally receive pooled teams from the Frontend.
func NewTeam(size, level int, cfg Config, body func(*TC)) *Team {
	t := &Team{}
	t.prepare(size, level, cfg, body)
	return t
}

// prepare (re)initializes a descriptor for its next region. Construct
// bookkeeping is rearmed; engine data and slot storage survive.
func (t *Team) prepare(size, level int, cfg Config, body func(*TC)) {
	if size < 1 {
		size = 1
	}
	t.Size, t.Level, t.Cfg, t.body = size, level, cfg, body
	t.Tasks.Store(0)
	t.ends.Store(int32(size))
	t.cancelled.Store(false)
	t.panicErr.Store(nil)
	t.endArrived.Store(0)
	if cfg.RegionDeadline > 0 {
		t.deadline.Store(time.Now().Add(cfg.RegionDeadline).UnixNano())
	} else {
		t.deadline.Store(0)
	}
	// A cancelled previous region may have left abandoned barrier waits
	// behind: their arrivals pollute the epoch counters, so rearm them.
	t.Bar.resetCounters()
	t.loops.reset()
	t.sections.reset()
	t.singles.reset()
	t.rings.reset(size)
	if cap(t.taskPools) < size {
		t.taskPools = make([]taskShard, size)
	} else {
		t.taskPools = t.taskPools[:size]
	}
	t.critMu.Lock()
	clear(t.crit)
	t.critMu.Unlock()
	if cap(t.tcs) < size {
		t.tcs = make([]TC, size)
		t.nodes = make([]TaskNode, size)
	} else {
		t.tcs = t.tcs[:size]
		t.nodes = t.nodes[:size]
	}
	emitTrace(func(tr Tracer) { tr.RegionBegin(t) })
}

// Run executes the region body as team member rank: it rearms the rank's
// pooled TC and implicit TaskNode over the given engine ops and engine
// context, runs the body, and completes the region's implicit barrier
// (including the task drain the barrier implies). Runtimes call it once per
// member from RunRegion and EngineOps.Nested; it is the only construction
// path implicit tasks need, so member startup allocates nothing.
func (t *Team) Run(rank int, ops EngineOps, ectx any) {
	node := &t.nodes[rank]
	node.rearm(rank)
	tc := &t.tcs[rank]
	tc.rearm(t, rank, ops, ectx, node)
	emitTrace(func(tr Tracer) { tr.MemberStart(tc) })
	t.runMember(tc)
	emitTrace(func(tr Tracer) { tr.MemberEnd(tc) })
	t.memberEnd(tc) // the implicit barrier ending the region
	if t.ends.Add(-1) == 0 {
		// Last member out of the implicit barrier: the region is over.
		emitTrace(func(tr Tracer) { tr.RegionEnd(t) })
	}
}

// runMember executes the region body under the member-level panic boundary:
// a panicking member body cancels the region and records the panic (to be
// resurfaced from the region entry point), and the cancelBreak sentinel —
// raised at cancellation points inside the body when the region is already
// cancelled — is swallowed. Either way the rank proceeds to the region-end
// rendezvous, so a panic never deadlocks the rest of the team.
func (t *Team) runMember(tc *TC) {
	defer func() {
		if r := recover(); r != nil {
			if _, isBreak := r.(cancelBreakSentinel); !isBreak {
				if o := t.owner; o != nil {
					o.Counters.PanicsRecovered.Add(1)
				}
				t.recordPanic(r)
			}
			t.Cancel()
		}
	}()
	t.body(tc)
}

// memberEnd is the implicit barrier ending the region: a once-per-region
// counter rendezvous, deliberately NOT the shared epoch barrier. Ranks that
// abandoned construct-barrier waits (cancellation, a panicking body) leave
// Bar's arrival counts polluted; endArrived counts each rank exactly once,
// so the region releases no matter how many construct barriers each member
// skipped. Like any region-end barrier it is a task scheduling point — the
// member's buffered tasks flush first, and waiters drain Team.Tasks to zero
// (cancelled tasks complete as drains, so the count always reaches zero).
func (t *Team) memberEnd(tc *TC) {
	tc.flushPending()
	emitTrace(func(tr Tracer) { tr.BarrierEnter(tc) })
	t.endArrived.Add(1)
	budget := t.Bar.spinBudget(t.Cfg.WaitPolicy == ActiveWait)
	spins := int64(0)
	for t.endArrived.Load() < int32(t.Size) || t.Tasks.Load() > 0 {
		if spins < budget {
			spins++
			continue
		}
		spins = 0
		tc.WaitStep()
	}
	emitTrace(func(tr Tracer) { tr.BarrierExit(tc) })
}

// Body returns the region body the team was built with. Engines that cannot
// route execution through Run (none in this repository) may invoke it
// directly against hand-built TCs.
func (t *Team) Body() func(*TC) { return t.body }

// EngineData returns per-team engine state, initializing it with init on
// first use. Engines use it to attach region-local structures (task queues,
// deques) to teams. The state survives descriptor reuse — a team only ever
// serves one engine — so engines must size-check anything that depends on
// Team.Size (see internal/iomp's deques).
func (t *Team) EngineData(init func() any) any {
	if t.engReady.Load() {
		return t.engData
	}
	t.engMu.Lock()
	defer t.engMu.Unlock()
	if !t.engReady.Load() {
		t.engData = init()
		t.engReady.Store(true)
	}
	return t.engData
}

// criticalFor returns the mutex backing the named critical construct,
// creating it on first use. Unnamed criticals share the "" mutex, matching
// the unnamed-critical semantics of the specification.
func (t *Team) criticalFor(name string) *sync.Mutex {
	t.critMu.Lock()
	defer t.critMu.Unlock()
	if t.crit == nil {
		t.crit = make(map[string]*sync.Mutex)
	}
	m, ok := t.crit[name]
	if !ok {
		m = new(sync.Mutex)
		t.crit[name] = m
	}
	return m
}

// loopFor returns the state of the work-shared loop with the given
// per-thread encounter sequence number, arming it from spec if this thread
// is the first to arrive. All members encounter work-sharing constructs in
// the same order (an OpenMP requirement), so the sequence number identifies
// the construct instance.
func (t *Team) loopFor(seq int64, spec loopSpec) *loopState {
	return t.loops.get(seq, spec)
}

// sectionFor is loopFor for sections constructs, which have their own
// encounter sequence.
func (t *Team) sectionFor(seq int64, spec loopSpec) *loopState {
	return t.sections.get(seq, spec)
}

// claimSingle reports whether the caller is the thread that executes the
// single construct with the given encounter sequence number.
func (t *Team) claimSingle(seq int64) bool {
	return t.singles.claim(seq)
}

// taskSlot is one pooled explicit-task descriptor: the TaskNode and the
// task-scoped TC its body runs under, allocated together so one pool hit
// serves both halves of a task's footprint. The node's slot back-pointer is
// set once, at allocation; the free list and the returned stack thread
// through next.
type taskSlot struct {
	node TaskNode
	tc   TC
	next *taskSlot
	// shard is the pool this slot returns to, captured when the slot is
	// drawn. Returning through the captured pointer (instead of re-indexing
	// t.taskPools) keeps a late Release — a tracer dropping a Retain after
	// the region ended — from racing Team.prepare's pool-array replacement
	// on the recycled descriptor: the shard struct itself is stable, and a
	// slot pushed into an orphaned shard is simply collected.
	shard *taskShard
}

// taskShard is one rank's pool of task descriptors, split by side so the
// rank's producer and the consumers finishing its tasks never take one lock.
// Draws pop free under mu: the mutex stays because two goroutines can draw
// for one rank when ws or mth migrates a member, and nothing else contends
// for it. Returns never lock: they CAS-push onto the lock-free returned
// stack, and a draw that finds free empty takes the whole stack with one
// Swap as its new free list. The stack is ABA-free because no thread ever
// reads next of a node it has not claimed: a push links only the slot it
// owns above whatever head it read, and the drawer walks next only on slots
// its Swap took out. The two sides sit on separate cache lines.
type taskShard struct {
	mu       sync.Mutex
	free     *taskSlot
	_        [48]byte
	returned atomic.Pointer[taskSlot]
	_        [56]byte
}

// getTaskSlot draws a pooled descriptor from rank's shard, refilling the
// free list from the returned stack when it runs dry and allocating only
// when both are empty (the cold start of a task storm). The caller owns the
// node until it registers references through PrepareTask.
func (t *Team) getTaskSlot(rank int) *TaskNode {
	sh := &t.taskPools[rank%len(t.taskPools)]
	sh.mu.Lock()
	s := sh.free
	if s == nil {
		s = sh.returned.Swap(nil)
	}
	if s != nil {
		sh.free = s.next
	}
	sh.mu.Unlock()
	if s == nil {
		s = new(taskSlot)
		s.node.slot = s
	}
	s.shard = sh
	if censusOn.Load() {
		liveSlots.Add(1)
	}
	return &s.node
}

// putTaskSlot returns a descriptor to the shard it was drawn from by pushing
// it onto the shard's returned stack, so the thread dropping a task's last
// reference never waits on the producer's draws. Called by TaskNode.release
// after the generation stamp has advanced; deliberately touches nothing on
// the Team, so it stays safe however late the last reference drops.
func putTaskSlot(s *taskSlot) {
	if censusOn.Load() {
		liveSlots.Add(-1)
	}
	sh := s.shard
	for {
		h := sh.returned.Load()
		s.next = h
		if sh.returned.CompareAndSwap(h, s) {
			return
		}
	}
}

// ringSet is the team's raid registry of producer-side overflow rings: one
// tour.Dir per rank. A producer lists its ring in its rank's directory on a
// push that finds the ring unlisted and retires it at its next scheduling
// point (TC.flushPending), so a rank's directory holds only the rings whose
// producers are between scheduling points: the rank's implicit task and the
// explicit task it runs. A ring its full directory refuses stays unlisted
// and retries at its producer's next push; its tasks still run, through the
// producer's flush at its next scheduling point, or a raid once listed.
// Raiders tour the per-rank directories starting from a per-consumer rotor
// (see TC.raidRotor), so the raid path takes no lock: one atomic load on the
// resident gate, atomic slot loads along the tour, one CAS to claim.
//
// The directory slice is published through an atomic pointer because a
// raider may hold the Team across a descriptor recycle (GLTO's idle-drain
// hook scans a stream-indexed table of teams, and a team retired from it may
// still be raided by a drain that loaded it first). Every field a raider
// touches — the gate, the directory header, the slots, the rings' cursors —
// is therefore atomic, and a stale raid can only miss or claim a task of the
// team's next region, which executes exactly once either way (the claim CAS
// arbitrates, and execution routes through the node's own Team pointer).
type ringSet struct {
	// resident counts tasks currently sitting in rings: pushes increment,
	// successful claims decrement (see taskRing.resident). The raid fast
	// path reads it alone — barrier waiters spin through the wait step's
	// hunt on every iteration, so both a region that never buffers (the
	// CloverLeaf/CG region-respawn hot path) and a region whose bursts have
	// drained must cost one atomic load. Tasks in an unlisted ring count
	// too, so a raid may tour the directories and find nothing.
	resident atomic.Int64
	_        [56]byte
	// dirs is the per-rank directory array, one entry per team rank,
	// replaced (atomically) only when a recycle changes the team size.
	dirs atomic.Pointer[[]tour.Dir[taskRing]]
}

// list publishes r in rank's directory and records where; a full directory
// leaves r unlisted (slot -1). Producer-only.
func (rs *ringSet) list(r *taskRing, rank int) {
	dirs := *rs.dirs.Load()
	r.rank = rank % len(dirs)
	r.slot = dirs[r.rank].Publish(r)
}

// retire empties r's directory slot. Producer-only.
func (rs *ringSet) retire(r *taskRing) {
	(*rs.dirs.Load())[r.rank].Retire(r.slot, r)
	r.slot = -1
}

// reset retires the registry between regions: the rings still listed (a
// producer that pushed and never reached a scheduling point, as TCs driven
// by hand do) are unlisted so their next push lists them again, the
// directories are cleared, and the directory array is resized for the next
// team shape. size is the next region's rank count.
func (rs *ringSet) reset(size int) {
	rs.resident.Store(0)
	dp := rs.dirs.Load()
	if dp != nil {
		for i := range *dp {
			d := &(*dp)[i]
			for j, n := 0, d.Len(); j < n; j++ {
				if r := d.At(j); r != nil {
					r.slot = -1
				}
			}
			d.Clear()
		}
	}
	if dp == nil || cap(*dp) < size {
		fresh := make([]tour.Dir[taskRing], size)
		rs.dirs.Store(&fresh)
	} else if len(*dp) != size {
		resized := (*dp)[:size]
		rs.dirs.Store(&resized)
	}
}

// StealBufferedTaskFrom claims one task from some member's producer-side
// overflow ring, touring the per-rank ring directories from rank start (mod
// the team size), or returns nil when every listed ring is empty. It is
// the raid of consumers with no thread context on the team — the glt
// idle-drain hook seeds it with the idle stream's rank — so it credits
// TasksStolenFromBuffer and reports its own StealTour; team members raid
// through the wait step's hunt (TC.Hunt) instead. The claimed node is ready
// for ExecTask/ExecTaskOn on any team thread.
func (t *Team) StealBufferedTaskFrom(start int) *TaskNode {
	node, _, visited := t.stealBuffered(start)
	if node != nil {
		if o := t.owner; o != nil {
			o.Counters.TasksStolenFromBuffer.Add(1)
		}
	}
	if visited > 0 {
		emitTrace(func(tr Tracer) { tr.StealTour(t, visited, node != nil) })
	}
	return node
}

// stealBuffered tours the per-rank ring directories from start and claims
// the first available task, reporting the rank it was found at, so
// per-consumer rotors can stick with a productive producer, and the number
// of directories it probed, for the caller's StealTour. The tour is
// near-first (see internal/tour, forward direction): a raider whose start
// encodes its own locality (a TC rotor, GLTO's stream rank) reaches nearby
// producers before far ones and concurrent raiders with different starts
// diverge immediately instead of converging on one victim. A tour that
// never starts (the one-load empty fast path) probes nothing, so idle
// spinners do not flood the tracer with zero-length tours.
func (t *Team) stealBuffered(start int) (*TaskNode, int, int) {
	rs := &t.rings
	if rs.resident.Load() <= 0 {
		return nil, start, 0 // nothing ring-resident anywhere: one atomic load
	}
	chaosRaid()
	visited := 0
	if dp := rs.dirs.Load(); dp != nil {
		n := len(*dp)
		if start < 0 {
			start = 0
		}
		for k := 0; k < n; k++ {
			at := tour.At(start, 1, k, n)
			d := &(*dp)[at]
			visited++
			for j, m := 0, d.Len(); j < m; j++ {
				if r := d.At(j); r != nil {
					if node := r.claim(); node != nil {
						return node, at, visited
					}
				}
			}
		}
	}
	return nil, start, visited
}

// BufferedTaskCount reports how many tasks currently sit in the team's
// listed overflow rings (racy; for tests and tooling).
func (t *Team) BufferedTaskCount() int {
	rs := &t.rings
	if rs.resident.Load() <= 0 {
		return 0
	}
	var n int
	if dp := rs.dirs.Load(); dp != nil {
		for i := range *dp {
			d := &(*dp)[i]
			for j, m := 0, d.Len(); j < m; j++ {
				if r := d.At(j); r != nil {
					n += int(r.size())
				}
			}
		}
	}
	return n
}

// loopTable maps per-region encounter sequence numbers (1-based, dense) to
// shared loop state. The loopState objects themselves are pooled: each slot
// carries a generation stamp, reset bumps the table's generation instead of
// dropping the slice contents, and the first member to arrive at a construct
// re-arms the slot's existing object in place from the caller's loopSpec.
// A steady-state region with dynamic/guided loops, sections or reductions
// therefore allocates nothing per region — the seed dropped every loopState
// at team recycle and rebuilt them (one allocation plus one mk closure per
// construct instance per region, which CloverLeaf's hundreds of thousands of
// per-step regions paid in full). Lookups happen once per member per
// construct instance; the dispatch cursors inside loopState carry the
// per-chunk traffic.
type loopTable struct {
	mu  sync.Mutex
	gen uint64
	s   []loopSlot
}

type loopSlot struct {
	ls  *loopState
	gen uint64
}

func (lt *loopTable) get(seq int64, spec loopSpec) *loopState {
	lt.mu.Lock()
	for int64(len(lt.s)) < seq {
		lt.s = append(lt.s, loopSlot{})
	}
	sl := &lt.s[seq-1]
	if sl.ls == nil {
		sl.ls = new(loopState)
	}
	if sl.gen != lt.gen {
		sl.ls.arm(spec)
		sl.gen = lt.gen
	}
	ls := sl.ls
	lt.mu.Unlock()
	return ls
}

// reset retires the current region's construct instances by advancing the
// generation; the loopState objects stay allocated for in-place re-arming.
// Reduction payloads are dropped eagerly so a pooled idle team does not pin
// user values.
func (lt *loopTable) reset() {
	lt.gen++
	for i := range lt.s {
		if ls := lt.s[i].ls; ls != nil {
			ls.redAny = nil
		}
	}
}

// claimTable is the single-construct election table. The per-seq flags are
// recycled (cleared, not dropped) across descriptor reuses, so a steady-state
// region with single constructs allocates nothing for its elections — and the
// steady-state claim is lock-free: one atomic load of the published table,
// one CAS on the flag. The table grows by CAS-replacing the published slice
// with a larger copy; the flag objects are shared between the copies, so a
// reset racing a concurrent grow (the recycle race the mutex version had:
// reset iterated the slice unguarded while claim appended) still clears
// every flag a claimer can reach — entries a racing grow adds are fresh,
// i.e. already false.
type claimTable struct {
	s atomic.Pointer[[]*atomic.Bool]
}

func (ct *claimTable) claim(seq int64) bool {
	for {
		sp := ct.s.Load()
		if sp != nil && int64(len(*sp)) >= seq {
			return (*sp)[seq-1].CompareAndSwap(false, true)
		}
		var cur []*atomic.Bool
		if sp != nil {
			cur = *sp
		}
		n := int(seq)
		if d := 2 * len(cur); d > n {
			n = d // double so a region of many singles grows O(log) times
		}
		bigger := make([]*atomic.Bool, n)
		copy(bigger, cur)
		for i := len(cur); i < n; i++ {
			bigger[i] = new(atomic.Bool)
		}
		ct.s.CompareAndSwap(sp, &bigger)
		// Lost CAS: another claimer grew it; reload and retry either way.
	}
}

func (ct *claimTable) reset() {
	// Re-check the published pointer after clearing: a claimer racing the
	// reset may have CAS-published a larger table and set a flag in it that
	// the snapshot we just cleared does not reach. Repeating on the new
	// slice (which shares the old entries, so re-clearing them is harmless)
	// until the pointer is stable guarantees every publish that completed
	// before reset returns has had its flags cleared.
	for {
		sp := ct.s.Load()
		if sp == nil {
			return
		}
		for _, b := range *sp {
			b.Store(false)
		}
		if ct.s.Load() == sp {
			return
		}
	}
}

// BarrierState is a reusable epoch barrier that lets waiting threads execute
// queued tasks — the OpenMP rule that barriers are task scheduling points,
// and the mechanism by which consumer threads in the paper's CG experiment
// pick up the producer's tasks while parked at the single construct's
// barrier.
//
// The arrival and epoch words are padded apart: arrivals hammer arrived with
// RMWs while every waiter spins loading epoch, and sharing a cache line
// between them made each arrival invalidate every spinner. Two refinements
// over the fixed-budget flat barrier the seed shipped:
//
//   - Adaptive spinning. The pure-spin budget a waiter burns between
//     task-raid/idle rounds is no longer a constant: each waiter reports how
//     many spin iterations its release actually took, an EWMA of those
//     observations (spinEWMA) tracks the team's typical arrival-to-release
//     window, and the next waiter budgets twice the EWMA — clamped by the
//     team's OMP_WAIT_POLICY (see spinBudget). Short barriers converge to a
//     handful of loads before the first task raid; long ones stop wasting
//     the clamp's worth of spins and reach the engine's Idle (which yields,
//     and on GLTO is what lets queued task ULTs run) promptly.
//   - A combining tree for wide teams. Above barrierTreeThreshold ranks,
//     the barrier goes two-level: ranks arrive at their group's
//     counter (groups of barrierGroupArity, each on its own pair of padded
//     cache lines), the last arriver of a group combines one arrival at the
//     root, and the release fans out group by group — so at width w the
//     spinners split across ⌈w/arity⌉ epoch words instead of all hammering
//     one, and each release store invalidates at most arity spinners.
//
// Both the flat epoch word and the per-group epochs are monotonic and
// self-rearming: counters are reset (before any epoch bump — see waitTree)
// by each release, so the barrier needs no reset across descriptor recycles
// and a recycled team of a different width simply reuses whatever group
// prefix it needs.
type BarrierState struct {
	arrived atomic.Int64
	_       [56]byte
	epoch   atomic.Uint64
	_       [56]byte
	// spinEWMA is the adaptive spin state: a racy (atomic but unfenced
	// read-modify-write) exponentially weighted moving average of observed
	// arrival-to-release spin counts. Zero means "no observation yet", which
	// spinBudget treats as barrierSpinInit. Lossy concurrent updates only
	// make the average favour recent observations harder, which is fine.
	spinEWMA atomic.Int64
	_        [56]byte
	// groups is the lazily built group array of the combining tree, sized to
	// ⌈size/arity⌉ on first wide use and grown (never shrunk) by CAS. All
	// members of one barrier agree on the group count, and growth only
	// happens while no release is in flight, so every participant of a given
	// barrier resolves the same array.
	groups atomic.Pointer[[]barrierGroup]
}

// barrierGroup is one leaf of the combining tree: an arrival counter and an
// epoch word for up to barrierGroupArity ranks, padded like the root pair so
// one group's arrivals do not invalidate another group's spinners.
type barrierGroup struct {
	arrived atomic.Int64
	_       [56]byte
	epoch   atomic.Uint64
	_       [56]byte
}

const (
	// barrierGroupArity is the rank capacity of one tree-barrier group: at
	// most this many waiters ever spin on one epoch word.
	barrierGroupArity = 8
	// barrierSpinInit seeds the adaptive budget before any observation: the
	// seed's fixed budget, so unmeasured barriers behave exactly as before.
	barrierSpinInit = 32
	// barrierSpinMin floors the budget so a noisy EWMA cannot turn the
	// barrier into a pure yield loop.
	barrierSpinMin = 8
	// barrierSpinMaxPassive caps the budget under OMP_WAIT_POLICY=passive:
	// waiters should release the processor quickly (§VI-A: spinning
	// consumers aggravate contention for task parallelism).
	barrierSpinMaxPassive = 64
	// barrierSpinMaxActive caps the budget under OMP_WAIT_POLICY=active,
	// where the user asked waiters to burn cycles for wake-up latency.
	barrierSpinMaxActive = 4096
)

// barrierTreeCfg overrides the width threshold above which the barrier uses
// the combining tree (0 = the default, barrierGroupArity). Settable only
// through SetBarrierTreeThreshold.
var barrierTreeCfg atomic.Int32

func barrierTreeThreshold() int {
	if v := barrierTreeCfg.Load(); v > 0 {
		return int(v)
	}
	return barrierGroupArity
}

// SetBarrierTreeThreshold overrides the team width above which the barrier
// uses the combining tree instead of the flat epoch word; n <= 0 restores
// the default (barrierGroupArity). It exists for benchmarks and tests that
// compare the two shapes (BenchmarkBarrier's w32-flat series forces the flat
// path at width 32 with a huge threshold); call it only while no region is
// running.
func SetBarrierTreeThreshold(n int) {
	if n <= 0 {
		n = 0
	}
	barrierTreeCfg.Store(int32(n))
}

// resetCounters rearms the arrival counters (flat and tree) for a recycled
// descriptor. Normally a no-op — every completed barrier resets its own
// counters — but a cancelled region's abandoned waits leave arrivals behind
// that would desynchronize the next region; prepare calls this while no
// member is active, so there is nothing to race. Epochs stay monotonic.
func (b *BarrierState) resetCounters() {
	b.arrived.Store(0)
	if gp := b.groups.Load(); gp != nil {
		for i := range *gp {
			(*gp)[i].arrived.Store(0)
		}
	}
}

// spinBudget returns the pure-spin budget for one wait: twice the observed
// EWMA (so typical jitter around the average still releases within the spin
// phase), clamped to the wait policy's band.
func (b *BarrierState) spinBudget(active bool) int64 {
	e := b.spinEWMA.Load()
	if e == 0 {
		e = barrierSpinInit
	}
	budget := 2 * e
	max := int64(barrierSpinMaxPassive)
	if active {
		max = barrierSpinMaxActive
	}
	if budget > max {
		budget = max
	}
	if budget < barrierSpinMin {
		budget = barrierSpinMin
	}
	return budget
}

// observeSpins folds one waiter's pure-spin count (task/idle time excluded —
// the budget models the release latency, not the work done while waiting)
// into the EWMA with weight 1/4.
func (b *BarrierState) observeSpins(total int64) {
	if total > barrierSpinMaxActive {
		total = barrierSpinMaxActive
	}
	e := b.spinEWMA.Load()
	if e == 0 {
		e = barrierSpinInit
	}
	b.spinEWMA.Store((3*e + total) / 4)
}

// groupsFor returns a group array of at least n entries, installing or
// growing it by CAS. Safe to race: losers reload the winner's array, and all
// participants of one barrier call with the same n before any of them can
// arrive, so a barrier never straddles two arrays. Epochs are carried over
// on growth to stay monotonic across recycles.
func (b *BarrierState) groupsFor(n int) []barrierGroup {
	for {
		gp := b.groups.Load()
		if gp != nil && len(*gp) >= n {
			return *gp
		}
		fresh := make([]barrierGroup, n)
		if gp != nil {
			for i := range *gp {
				fresh[i].epoch.Store((*gp)[i].epoch.Load())
			}
		}
		if b.groups.CompareAndSwap(gp, &fresh) {
			return fresh
		}
	}
}

// wait is the team barrier behind tc.Barrier: it returns once every member
// has arrived and the region's tasks have drained, or — for a waiter that is
// not the last arriver — once the team is cancelled. Every waiting iteration
// is the wait step (TC.WaitStep), so waiters execute queued tasks and raid
// the overflow rings exactly as every other task-scheduling wait does.
//
// The spin budget adapts to the team's observed release latency under the
// clamp of the team's OMP_WAIT_POLICY, and teams wider than the tree
// threshold arrive through the combining tree (see BarrierState).
//
// A cancelled wait is abandoned (see spin): the arrival this waiter already
// contributed stands (so a concurrent normal release still balances), and
// tc.Barrier raises the cancelBreak sentinel to skip forward to the
// region-end rendezvous. The cancel check costs one atomic load per wait
// step, never on the pure-spin fast path.
func (b *BarrierState) wait(tc *TC) {
	team := tc.team
	if team.Size > barrierTreeThreshold() {
		b.waitTree(tc)
		return
	}
	epoch := b.epoch.Load()
	if b.arrived.Add(1) == int64(team.Size) {
		drainTasks(tc)
		b.arrived.Store(0)
		b.epoch.Add(1)
		return
	}
	b.spin(tc, &b.epoch, epoch)
}

// drainTasks is the last arriver's duty before any release: the region's
// tasks must complete first.
func drainTasks(tc *TC) {
	for tc.team.Tasks.Load() > 0 {
		tc.WaitStep()
	}
}

// spin is a non-last arriver's wait: it returns once the epoch word it
// watches moves past seen, burning the adaptive spin budget between wait
// steps and feeding the pure-spin count back into the EWMA. It abandons the
// wait when the team is cancelled; arrivals already contributed stand — in
// the tree, combining happened at arrival time, so its invariants are
// unaffected by leaving the spin.
func (b *BarrierState) spin(tc *TC, epoch *atomic.Uint64, seen uint64) {
	team := tc.team
	budget := b.spinBudget(team.Cfg.WaitPolicy == ActiveWait)
	spins, total := int64(0), int64(0)
	for epoch.Load() == seen {
		if spins < budget {
			spins++
			total++
			continue
		}
		spins = 0
		if team.Cancelled() {
			break
		}
		tc.WaitStep()
	}
	b.observeSpins(total)
}

// waitTree is the wide-team arrival path: rank-assigned groups combine
// arrivals toward the root counter, and every waiter spins on its own
// group's epoch word only.
//
// Release ordering is the one subtlety: the last arriver resets every
// arrival counter BEFORE bumping any epoch. A released member can re-enter
// the next barrier while slower members of other groups are still spinning
// on the previous epoch value, and its arrival must land on a counter that
// has already been reset; a spinner from the previous epoch that misses an
// intermediate value simply observes epoch != snapshot one bump later
// (epochs only move forward, and waiters compare for inequality).
func (b *BarrierState) waitTree(tc *TC) {
	size := tc.team.Size
	ngroups := (size + barrierGroupArity - 1) / barrierGroupArity
	groups := b.groupsFor(ngroups)
	gi := tc.num / barrierGroupArity
	g := &groups[gi]
	gsize := size - gi*barrierGroupArity
	if gsize > barrierGroupArity {
		gsize = barrierGroupArity
	}
	epoch := g.epoch.Load()
	// The last of a group combines one arrival at the root; the last arriver
	// of the whole team drains the region's tasks, then resets all counters
	// and fans the release out over the groups.
	if g.arrived.Add(1) == int64(gsize) && b.arrived.Add(1) == int64(ngroups) {
		drainTasks(tc)
		b.arrived.Store(0)
		for i := 0; i < ngroups; i++ {
			groups[i].arrived.Store(0)
		}
		b.epoch.Add(1) // keep the flat word monotonic alongside the tree
		for i := 0; i < ngroups; i++ {
			groups[i].epoch.Add(1)
		}
		return
	}
	b.spin(tc, &g.epoch, epoch)
}
