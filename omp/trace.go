package omp

import "sync/atomic"

// This file provides an OMPT-style tool interface: a process-wide Tracer
// receives runtime events from hook points in the shared construct code, so
// profiling tools can observe region, task and barrier activity without
// modifying any runtime — the role OMPT plays for the native runtimes, and
// the kind of introspection behind the paper's Fig. 7 "time spent in the
// work assignment step inside the OpenMP runtime".
//
// The tracer is global and off by default; the hooks cost one atomic load
// when disabled. FlightTracer (flight.go) is the ready-made implementation
// that records events into the glt/trace flight recorder and feeds the
// latency histograms the harness's Fig. 7 breakdown is computed from;
// CountingTracer is the counting reference implementation.

// Tracer receives runtime events. Implementations must be safe for
// concurrent use from every team thread; hot paths call them.
type Tracer interface {
	// RegionBegin fires when a team is formed (Frontend prepare), before
	// any member is dispatched — the start of the runtime's work-assignment
	// step for the region.
	RegionBegin(team *Team)
	// RegionEnd fires after the region's implicit barrier releases, once
	// per team, on the member that completed it last.
	RegionEnd(team *Team)
	// MemberStart fires when a team member begins executing the region
	// body: RegionBegin→MemberStart is that member's work-assignment
	// latency (paper Fig. 7).
	MemberStart(tc *TC)
	// MemberEnd fires when a member's region body returns, before the
	// implicit barrier: MemberStart→MemberEnd is the member's useful
	// execution time.
	MemberEnd(tc *TC)
	// TaskCreate fires when an explicit task is created (before deferral
	// policy applies). Task descriptors are pooled: a tracer that keeps node
	// past the callback must Retain it (and Release it later), or the
	// runtime may recycle it for a new task the moment the old one finishes
	// (observable via TaskNode.Generation).
	TaskCreate(team *Team, node *TaskNode)
	// TaskStart fires when a thread begins executing an explicit task's
	// body: TaskCreate→TaskStart is the task's queue residency.
	TaskStart(team *Team, node *TaskNode)
	// TaskEnd fires when an explicit task's body has completed, before the
	// completion bookkeeping releases the descriptor.
	TaskEnd(team *Team, node *TaskNode)
	// TaskCancel fires when a task is drained without executing because its
	// taskgroup or region was cancelled — in place of the TaskStart/TaskEnd
	// pair, before the completion bookkeeping releases the descriptor.
	TaskCancel(team *Team, node *TaskNode)
	// DepRelease fires when a dependence-parked task becomes runnable on its
	// final predecessor's completion; path records which dispatch the release
	// took (chained inline, hot to the releaser's rank, or the creator-side
	// fallback through EngineOps.Enqueue).
	DepRelease(team *Team, node *TaskNode, path DepPath)
	// StealTour fires once per wait step (TC.Hunt) that probed anything,
	// for the engine's queues and the team's overflow-ring directories
	// together. visited is the number of queues and directories probed,
	// found whether the hunt claimed a task.
	StealTour(team *Team, visited int, found bool)
	// BarrierEnter and BarrierExit bracket each thread's wait at any team
	// barrier (explicit, work-sharing, or region-end), including the task
	// drain the barrier implies.
	BarrierEnter(tc *TC)
	BarrierExit(tc *TC)
}

// DepPath identifies which dispatch path a dependence release took: the
// decision tree is chain → hot → fallback (see releaseSuccessors).
type DepPath uint8

const (
	// DepDispatchFallback: the releaser had no execution context on the
	// successor's team, so the engine placed the task creator-side — the
	// only path that existed before release-to-self chaining.
	DepDispatchFallback DepPath = iota
	// DepDispatchLocal: the successor was handed to the engine hot — routed
	// to the releasing thread's own deque/stream/release-slot.
	DepDispatchLocal
	// DepDispatchChained: the successor ran inline on the releasing thread,
	// skipping the engine queues entirely.
	DepDispatchChained
)

// String names the path for reports.
func (p DepPath) String() string {
	switch p {
	case DepDispatchLocal:
		return "local"
	case DepDispatchChained:
		return "chained"
	default:
		return "fallback"
	}
}

var activeTracer atomic.Pointer[Tracer]

// SetTracer installs tr as the process-wide tracer; nil disables tracing.
// It returns the previous tracer.
func SetTracer(tr Tracer) Tracer {
	var prev Tracer
	if p := activeTracer.Swap(ptrOrNil(tr)); p != nil {
		prev = *p
	}
	return prev
}

func ptrOrNil(tr Tracer) *Tracer {
	if tr == nil {
		return nil
	}
	return &tr
}

// emitTrace invokes f with the active tracer, if any.
func emitTrace(f func(Tracer)) {
	if p := activeTracer.Load(); p != nil {
		f(*p)
	}
}

// CountingTracer is a ready-made Tracer that counts events, usable as a
// cheap profiler and as the reference implementation. Every RegionBegin is
// paired by exactly one RegionEnd (fired by the last member out of the
// region's implicit barrier), and every BarrierEnter by exactly one
// BarrierExit, so Regions == RegionEnds and Barriers == BarrierExits once
// all regions a program started have completed.
type CountingTracer struct {
	Regions      atomic.Int64
	RegionEnds   atomic.Int64
	Members      atomic.Int64
	MemberEnds   atomic.Int64
	Tasks        atomic.Int64
	TaskStarts   atomic.Int64
	TaskEnds     atomic.Int64
	TaskCancels  atomic.Int64
	DepReleases  atomic.Int64
	DepChained   atomic.Int64
	DepLocal     atomic.Int64
	StealTours   atomic.Int64
	Barriers     atomic.Int64
	BarrierExits atomic.Int64
}

// RegionBegin implements Tracer.
func (c *CountingTracer) RegionBegin(*Team) { c.Regions.Add(1) }

// RegionEnd implements Tracer.
func (c *CountingTracer) RegionEnd(*Team) { c.RegionEnds.Add(1) }

// MemberStart implements Tracer.
func (c *CountingTracer) MemberStart(*TC) { c.Members.Add(1) }

// MemberEnd implements Tracer.
func (c *CountingTracer) MemberEnd(*TC) { c.MemberEnds.Add(1) }

// TaskCreate implements Tracer.
func (c *CountingTracer) TaskCreate(*Team, *TaskNode) { c.Tasks.Add(1) }

// TaskStart implements Tracer.
func (c *CountingTracer) TaskStart(*Team, *TaskNode) { c.TaskStarts.Add(1) }

// TaskEnd implements Tracer.
func (c *CountingTracer) TaskEnd(*Team, *TaskNode) { c.TaskEnds.Add(1) }

// TaskCancel implements Tracer. A task is either started or cancelled, never
// both: TaskStarts + TaskCancels == Tasks once all created tasks have
// completed (the exactly-once contract the cancellation tests pin down).
func (c *CountingTracer) TaskCancel(*Team, *TaskNode) { c.TaskCancels.Add(1) }

// DepRelease implements Tracer. DepReleases counts every release;
// DepChained and DepLocal break out the locality-first dispatch paths
// (fallback = DepReleases - DepChained - DepLocal).
func (c *CountingTracer) DepRelease(_ *Team, _ *TaskNode, path DepPath) {
	c.DepReleases.Add(1)
	switch path {
	case DepDispatchChained:
		c.DepChained.Add(1)
	case DepDispatchLocal:
		c.DepLocal.Add(1)
	}
}

// StealTour implements Tracer.
func (c *CountingTracer) StealTour(*Team, int, bool) { c.StealTours.Add(1) }

// BarrierEnter implements Tracer.
func (c *CountingTracer) BarrierEnter(*TC) { c.Barriers.Add(1) }

// BarrierExit implements Tracer. (It was a silent no-op before the pairing
// contract was pinned; every enter is now matched by a counted exit.)
func (c *CountingTracer) BarrierExit(*TC) { c.BarrierExits.Add(1) }
