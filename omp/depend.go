package omp

// Task dependences (#pragma omp task depend(in/out/inout: ...)) — the
// dataflow layer over the pooled TaskNode lifecycle.
//
// OpenMP defines dependences between *sibling* tasks: tasks created by the
// same (implicit or explicit) parent task, matched by the addresses their
// depend clauses name. That scoping is what makes the design below cheap:
//
//   - Registration is single-threaded by construction. All siblings of one
//     dependence domain are created by the one thread executing the parent's
//     body, so the address map (depTracker, hanging off the creating TC) is
//     a plain Go map with no lock, and every edge-add against a predecessor
//     has exactly one producer. The only concurrency on a predecessor's
//     successor list is producer-vs-release.
//   - The map holds no references. Recording a task as an address's last
//     writer (or one of its readers) does NOT Retain it — a retained entry
//     would keep the task's refcount above zero after completion, and the
//     successor release fires on the last-ref drop, so a map reference would
//     deadlock the graph it exists to order. Instead the map records
//     (node, dep-generation) pairs, and the edge-add validates the
//     generation inside its CAS: a recycled predecessor fails the CAS, which
//     is indistinguishable from (and as correct as) "already completed".
//   - Release is lock-free, inside TaskNode.Release, on the descriptor's
//     last-ref drop — the same place the recycle happens, with the same
//     CAS + generation-stamp discipline as the overflow-ring directories.
//     The releaser seals the successor list (no further edges can commit),
//     walks the sealed prefix, and drops one predecessor count per edge;
//     a successor whose count reaches zero is handed to the engine through
//     EngineOps.Enqueue and flows into the ordinary queue/ring/steal
//     fabric from there. taskwait, taskgroup and barriers need no new code:
//     a parked task is counted in Team.Tasks and in its parent's child count
//     from PrepareTask on, exactly like a queued one.
//
// The per-node dependence state (successor slots, the packed seal word, the
// predecessor count) is embedded in the pooled TaskNode itself, so a
// depend-free task pays one length check and the dependence machinery
// allocates nothing beyond what the depend clauses themselves require (the
// address map and its per-address version entries).

import "sync/atomic"

// depMode classifies one depend item.
type depMode uint8

const (
	depIn depMode = iota
	depOut
	depInOut
)

// depWant is one depend item of a task under construction: the clause list
// as recorded by the In/Out/InOut TaskOpts, consumed (and cleared) by
// registration in the creating thread before the task becomes runnable.
type depWant struct {
	addr any
	mode depMode
}

// In declares in dependences (depend(in: addrs...)): the task may not start
// until the last previously created sibling that named any of these
// addresses out or inout has completed. Addresses are compared as interface
// values; by convention pass pointers (&x, &a[i]) so distinct objects never
// collide.
func In(addrs ...any) TaskOpt {
	return func(n *TaskNode) { n.addDepWants(addrs, depIn) }
}

// Out declares out dependences (depend(out: addrs...)): the task may not
// start until the last previous writer of each address and every reader
// since it have completed, and it becomes the address's last writer.
func Out(addrs ...any) TaskOpt {
	return func(n *TaskNode) { n.addDepWants(addrs, depOut) }
}

// InOut declares inout dependences, which order like out (wait for the last
// writer and all readers since, then become the last writer).
func InOut(addrs ...any) TaskOpt {
	return func(n *TaskNode) { n.addDepWants(addrs, depInOut) }
}

func (n *TaskNode) addDepWants(addrs []any, m depMode) {
	for _, a := range addrs {
		n.depWants = append(n.depWants, depWant{addr: a, mode: m})
	}
}

// The successor list's control word, packed so one CAS covers all three
// fields: bits 63..32 are the dependence generation (bumped once per
// dep-active incarnation, at release), bit 31 is the seal, bits 30..0 the
// committed successor count.
const (
	depSealedBit = uint64(1) << 31
	depCountMask = depSealedBit - 1
	depGenShift  = 32
)

// depInlineSuccs is the successor capacity embedded in every TaskNode; a
// predecessor with more successors spills to an atomically published slice.
const depInlineSuccs = 4

// depGeneration reads the node's dependence generation: the incarnation
// stamp a depTracker records alongside the pointer, validated inside the
// edge-add CAS.
func (n *TaskNode) depGeneration() uint32 {
	return uint32(n.succState.Load() >> depGenShift)
}

// setSuccSlot publishes s at successor index i. Producer-only (one thread
// registers all edges of a domain); the spill slice is grown by the producer
// and republished atomically, and the sealer can only observe index i after
// the count CAS that follows this store, so it always resolves a slice that
// contains every committed slot.
func (n *TaskNode) setSuccSlot(i int, s *TaskNode) {
	if i < depInlineSuccs {
		n.succInline[i].Store(s)
		return
	}
	j := i - depInlineSuccs
	sp := n.succSpill.Load()
	if sp == nil || j >= len(*sp) {
		size := depInlineSuccs
		if sp != nil {
			size = 2 * len(*sp)
		}
		for size <= j {
			size *= 2
		}
		fresh := make([]atomic.Pointer[TaskNode], size)
		if sp != nil {
			for k := range *sp {
				fresh[k].Store((*sp)[k].Load())
			}
		}
		n.succSpill.Store(&fresh)
		sp = &fresh
	}
	(*sp)[j].Store(s)
}

// addDepEdge records succ as a successor of pred, valid only while pred is
// still the incarnation the caller's depTracker recorded (predGen) and not
// yet sealed by its release. It reports whether the edge committed; false
// means the dependence is already satisfied (pred completed — or completed,
// recycled and moved on, which implies completion). The successor's
// predecessor count is raised before the slot is published and rolled back
// if the commit CAS loses to the seal, so a releaser can never observe a
// committed edge it was not charged for.
//
// Called only by the single registering thread of succ's dependence domain,
// so the CAS can lose only to pred's sealer, never to another producer.
func addDepEdge(pred *TaskNode, predGen uint32, succ *TaskNode) bool {
	for {
		w := pred.succState.Load()
		if uint32(w>>depGenShift) != predGen || w&depSealedBit != 0 {
			return false
		}
		cnt := int(w & depCountMask)
		succ.preds.Add(1)
		pred.setSuccSlot(cnt, succ)
		if pred.succState.CompareAndSwap(w, w+1) {
			return true
		}
		// Lost to the seal (the only other writer): the predecessor's
		// release is walking a list that excludes this slot. Uncharge and
		// re-check — the reload observes the seal or a bumped generation.
		succ.preds.Add(-1)
	}
}

// releaseSuccessors is the dependence-release half of TaskNode.Release, run
// by whichever thread drops the node's last reference, before the recycle.
// It seals the successor list with one CAS (edge-adds racing the seal roll
// themselves back), walks the committed prefix, and decrements each
// successor's predecessor count; a successor reaching zero has no
// outstanding predecessors and no creation guard — it was parked — and is
// dispatched (see dispatchReleased and the chaining below). Finally the
// incarnation is retired: slots cleared, generation bumped, seal and count
// reset in one store, so a producer still holding this (node, generation)
// pair in a map can never commit an edge against the node's next life.
//
// Dispatch is locality-first. The walk keeps a running best-priority ready
// successor — the one the releaser keeps — and dispatches the rest as they
// surface, marked as fan-out so that TaskNode.Place lets an engine whose
// streams do not steal spread them over the team instead of queueing them
// all behind the releaser. At the end, if the releaser has an execution context
// on the successor's team and chain budget left (rc.depth <
// EffectiveDepChain), the kept successor runs INLINE on the releasing thread
// — the data its predecessor just wrote is still hot, and the
// enqueue/dequeue/wakeup round trip is skipped entirely. A chain that
// exhausts its budget (or a releaser with no context: a tracer's deferred
// Release, glt's ReleaseAll) dispatches the kept successor last and unmarked,
// so the tail of a long chain stays on the releasing stream and re-surfaces
// where TryRunTask can claim it.
// Undeferred/final dependent tasks are unreachable here: their creation
// guard keeps preds at 1, so the spin in spawnWithDeps — never this walk —
// runs them.
func (n *TaskNode) releaseSuccessors(rc *relCtx) {
	var w uint64
	for {
		w = n.succState.Load()
		if n.succState.CompareAndSwap(w, w|depSealedBit) {
			break
		}
	}
	cnt := int(w & depCountMask)
	sp := n.succSpill.Load()
	var best *TaskNode
	for i := 0; i < cnt; i++ {
		var s *TaskNode
		if i < depInlineSuccs {
			s = n.succInline[i].Load()
		} else {
			s = (*sp)[i-depInlineSuccs].Load()
		}
		if s.preds.Add(-1) == 0 {
			switch {
			case best == nil:
				best = s
			case s.priority > best.priority:
				dispatchReleased(best, rc, true)
				best = s
			default:
				dispatchReleased(s, rc, true)
			}
		}
	}
	if best != nil {
		if rc != nil && rc.team == best.team && rc.depth < best.team.Cfg.EffectiveDepChain() {
			team := best.team
			if o := team.owner; o != nil {
				o.Counters.DepReleases.Add(1)
				o.Counters.TasksChained.Add(1)
			}
			emitTrace(func(tr Tracer) { tr.DepRelease(team, best, DepDispatchChained) })
			// Retire this incarnation BEFORE running the successor: the
			// inline execution can spawn, finish and recycle arbitrary tasks,
			// and the walk already holds everything it needs.
			n.retireSuccState(w, sp)
			execChained(best, rc)
			return
		}
		dispatchReleased(best, rc, false)
	}
	n.retireSuccState(w, sp)
}

// retireSuccState clears the successor slots and bumps the dependence
// generation in one store, retiring the sealed incarnation.
func (n *TaskNode) retireSuccState(w uint64, sp *[]atomic.Pointer[TaskNode]) {
	for i := range n.succInline {
		n.succInline[i].Store(nil)
	}
	if sp != nil {
		n.succSpill.Store(nil)
	}
	n.succState.Store((w>>depGenShift + 1) << depGenShift)
}

// dispatchReleased hands one released successor to its engine, marking it
// as fan-out or as the kept successor (fanOut). With a releaser context on
// the successor's team the hand-off is HOT: EngineOps.Enqueue receives the
// releaser's team rank and routes the task to that rank's own
// deque/stream/release-slot, so the successor is consumed where its inputs
// were just written — unless TaskNode.Place spreads fan-out, which GLTO
// honours (its abt and qth streams never steal, so a wide release sent to
// the releaser would queue behind it). Without a context (rc nil, or a
// cross-team release) hot is -1 and Place sends the task to its creator.
func dispatchReleased(s *TaskNode, rc *relCtx, fanOut bool) {
	chaosDepRelease()
	s.fanOut = fanOut
	team := s.team
	hot := -1
	var ectx any
	path := DepDispatchFallback
	if rc != nil && rc.team == team {
		hot = rc.num
		ectx = rc.ectx
		path = DepDispatchLocal
	}
	if o := team.owner; o != nil {
		o.Counters.DepReleases.Add(1)
		if path == DepDispatchLocal {
			o.Counters.LocalReleases.Add(1)
		}
		o.Counters.TasksQueued.Add(1)
	}
	// The release stamp must land before Enqueue requeues the node: the
	// executing thread reads it at TaskStart through the queue's
	// happens-before edge. The engine's cut-off does not apply: the
	// releaser cannot run the task inline, and a released task has already
	// paid its deferral.
	emitTrace(func(tr Tracer) { tr.DepRelease(team, s, path) })
	s.ops.Enqueue(team, s.alone(), hot, ectx)
}

// depTracker is one dependence domain: the address→version map of the tasks
// a single parent task has created so far. It hangs off the creating TC
// (implicit-task TCs for region-level siblings, the pooled task TC for a
// task's own children), is mutated only by that TC's thread, and is cleared
// on every rearm so no entry outlives its region or task execution.
type depTracker struct {
	m map[any]*depAddr
}

// depAddr is the version state of one depend address: the last out/inout
// writer and the in-readers recorded since it.
type depAddr struct {
	out     depRef
	readers []depRef
}

// depRef is a recorded (node, dep-generation) pair. It holds NO reference —
// see the package comment: the generation, checked inside the edge-add CAS,
// is what keeps a recycled node from being mistaken for the task that was
// recorded.
type depRef struct {
	node *TaskNode
	gen  uint32
}

func (t *depTracker) reset() {
	if len(t.m) > 0 {
		clear(t.m)
	}
}

// registerDeps resolves node's recorded depend items against the creating
// context's tracker: it adds one edge per unsatisfied predecessor (the last
// writer for in; the last writer plus all readers since for out/inout) and
// re-records node as the address's reader or last writer. The node's
// predecessor count starts at one — the creation guard, held by the caller
// until registration is complete — so a predecessor finishing mid-
// registration can decrement but never release a half-registered task.
func (tc *TC) registerDeps(node *TaskNode) {
	t := tc.deps
	if t == nil {
		t = &depTracker{m: make(map[any]*depAddr)}
		tc.deps = t
	}
	node.depActive = true
	node.ops = tc.ops
	node.preds.Store(1) // creation guard
	if o := tc.team.owner; o != nil {
		o.Counters.TasksWithDeps.Add(1)
	}
	gen := node.depGeneration()
	for _, w := range node.depWants {
		da := t.m[w.addr]
		if da == nil {
			da = &depAddr{}
			t.m[w.addr] = da
		}
		if w.mode == depIn {
			if p := da.out; p.node != nil && p.node != node {
				addDepEdge(p.node, p.gen, node)
			}
			da.readers = append(da.readers, depRef{node: node, gen: gen})
			continue
		}
		// out/inout: ordered after the last writer and every reader since.
		if p := da.out; p.node != nil && p.node != node {
			addDepEdge(p.node, p.gen, node)
		}
		for _, r := range da.readers {
			if r.node != node {
				addDepEdge(r.node, r.gen, node)
			}
		}
		da.readers = da.readers[:0]
		da.out = depRef{node: node, gen: gen}
	}
	// The wants are consumed; clear them so the pooled backing array does not
	// pin user addresses across recycles.
	clear(node.depWants)
	node.depWants = node.depWants[:0]
}

// spawnWithDeps is the dependence branch of tc.Task: register, then either
// spawn now (no unsatisfied predecessors), park (a predecessor's release
// will hand the node to EngineOps.Enqueue), or — for undeferred/final
// tasks, which must still obey their dependences — wait at this task
// scheduling point until every predecessor has released, then execute
// through spawn's undeferred path.
func (tc *TC) spawnWithDeps(node *TaskNode) {
	tc.registerDeps(node)
	if node.Final || node.Undeferred {
		// This wait is a task scheduling point; flush the producer-side
		// buffer first, or a predecessor parked in it could never run while
		// this thread spins.
		tc.flushBuffered()
		// The creation guard is never dropped, so a releaser can at most
		// bring preds down to 1 — the node cannot be double-run by a release
		// racing this inline execution.
		for node.preds.Load() != 1 {
			tc.WaitStep()
		}
		node.preds.Store(0)
		tc.spawn(node)
		return
	}
	if node.preds.Add(-1) == 0 {
		tc.spawn(node)
	}
	// else: parked. The predecessor whose last-ref drop satisfies the final
	// edge routes the node into the engine via Enqueue; until then it is
	// pinned by its own execution reference and counted in Team.Tasks, so
	// taskwait/taskgroup/barrier drain semantics hold unchanged.
}
