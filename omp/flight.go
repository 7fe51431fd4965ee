package omp

import "repro/glt/trace"

// FlightTracer is the ready-made Tracer that bridges the OpenMP construct
// hooks to the glt/trace flight recorder and latency histograms. Both sinks
// are optional and independent:
//
//   - Rec, when set, receives one compact binary event per hook on the team
//     rank's ring — drained and exported as Chrome trace JSON by
//     cmd/glto-trace.
//   - Met, when set, accumulates the latency histograms (barrier wait, task
//     queue residency, dep release→start, steal-tour length, and the
//     Fig. 7 assignment/execution split) the harness's `-exp assign`
//     breakdown and the benchmark's trace metrics are computed from.
//
// Every hook is allocation-free — duration state lives in the pooled Team,
// TC and TaskNode descriptors it instruments (stamp fields written only
// under an installed tracer), so the 0 allocs/op region and task guards
// hold with a FlightTracer installed. The stamps ride existing
// happens-before edges: a team's dispatch orders traceBegin before the
// members read it, and a task queue's push/pop orders the create/release
// stamps before the executing thread reads them.
type FlightTracer struct {
	Rec *trace.Recorder
	Met *trace.Metrics
}

// NewFlightTracer builds a FlightTracer over the given sinks (either may be
// nil). Install it with SetTracer.
func NewFlightTracer(rec *trace.Recorder, met *trace.Metrics) *FlightTracer {
	return &FlightTracer{Rec: rec, Met: met}
}

// RegionBegin implements Tracer: it stamps the team's dispatch time, the
// reference MemberStart measures assignment latency against.
func (f *FlightTracer) RegionBegin(t *Team) {
	now := trace.Since()
	t.traceBegin = now
	if f.Rec != nil {
		f.Rec.EmitAt(now, 0, trace.KindRegionBegin, uint64(t.Size))
	}
}

// RegionEnd implements Tracer.
func (f *FlightTracer) RegionEnd(t *Team) {
	if f.Rec != nil {
		f.Rec.Emit(0, trace.KindRegionEnd, uint64(t.Size))
	}
}

// MemberStart implements Tracer: dispatch→here is this member's
// work-assignment latency (top-level regions only; nested teams' dispatch
// overlaps the outer region's execution and would double-count).
func (f *FlightTracer) MemberStart(tc *TC) {
	now := trace.Since()
	tc.traceMember = now
	if f.Met != nil && tc.team.Level == 0 {
		f.Met.Assign.Observe(now - tc.team.traceBegin)
	}
	if f.Rec != nil {
		f.Rec.EmitAt(now, tc.num, trace.KindMemberStart, uint64(tc.team.Size))
	}
}

// MemberEnd implements Tracer: MemberStart→here is the member's useful
// execution time.
func (f *FlightTracer) MemberEnd(tc *TC) {
	now := trace.Since()
	if f.Met != nil && tc.team.Level == 0 {
		f.Met.Exec.Observe(now - tc.traceMember)
	}
	if f.Rec != nil {
		f.Rec.EmitAt(now, tc.num, trace.KindMemberEnd, 0)
	}
}

// TaskCreate implements Tracer: it stamps the node's creation time for the
// queue-residency histogram.
func (f *FlightTracer) TaskCreate(t *Team, node *TaskNode) {
	now := trace.Since()
	node.traceCreate = now
	node.traceRelease = 0
	if f.Rec != nil {
		f.Rec.EmitAt(now, node.CreatedBy, trace.KindTaskCreate, uint64(node.Generation()))
	}
}

// TaskStart implements Tracer: create→here is queue residency; for
// dependence-parked tasks, release→here is the dep-release latency.
func (f *FlightTracer) TaskStart(t *Team, node *TaskNode) {
	now := trace.Since()
	if f.Met != nil {
		// A zero create stamp means the node predates the tracer install
		// (or its TaskCreate fired while tracing was off): no baseline, no
		// sample.
		if created := node.traceCreate; created > 0 {
			f.Met.TaskQueue.Observe(now - created)
		}
		if rel := node.traceRelease; rel > 0 {
			f.Met.DepRelease.Observe(now - rel)
		}
	}
	if f.Rec != nil {
		f.Rec.EmitAt(now, int(node.StartedBy.Load()), trace.KindTaskStart, uint64(node.Generation()))
	}
}

// TaskEnd implements Tracer.
func (f *FlightTracer) TaskEnd(t *Team, node *TaskNode) {
	if f.Rec != nil {
		f.Rec.Emit(int(node.StartedBy.Load()), trace.KindTaskEnd, uint64(node.Generation()))
	}
}

// TaskCancel implements Tracer: a drained task emits a cancel event on its
// creator's stream (it never acquired an executing rank) in place of the
// start/end pair.
func (f *FlightTracer) TaskCancel(t *Team, node *TaskNode) {
	if f.Rec != nil {
		f.Rec.Emit(node.CreatedBy, trace.KindTaskCancel, uint64(node.Generation()))
	}
}

// DepRelease implements Tracer: it stamps the release time TaskStart
// measures the release→start latency against, and packs the dispatch path
// into the event arg (above DepPathShift) so a cmd/glto-trace export shows
// which releases skipped the queues. Chained releases start inline
// immediately after this hook, so their release→start samples land near
// zero in Met.DepRelease with no extra plumbing.
func (f *FlightTracer) DepRelease(t *Team, node *TaskNode, path DepPath) {
	now := trace.Since()
	node.traceRelease = now
	if f.Rec != nil {
		arg := uint64(path)<<trace.DepPathShift | uint64(node.Generation())&(1<<trace.DepPathShift-1)
		f.Rec.EmitAt(now, node.CreatedBy, trace.KindDepRelease, arg)
	}
}

// StealTour implements Tracer.
func (f *FlightTracer) StealTour(t *Team, visited int, found bool) {
	if f.Met != nil {
		f.Met.StealTour.Observe(int64(visited))
	}
	if f.Rec != nil {
		arg := uint64(visited)
		if found {
			arg |= trace.TourFoundBit
		}
		f.Rec.Emit(0, trace.KindStealTour, arg)
	}
}

// BarrierEnter implements Tracer: it stamps the wait start on the waiting
// TC (single-threaded by contract).
func (f *FlightTracer) BarrierEnter(tc *TC) {
	now := trace.Since()
	tc.traceBarrier = now
	if f.Rec != nil {
		f.Rec.EmitAt(now, tc.num, trace.KindBarrierEnter, 0)
	}
}

// BarrierExit implements Tracer: enter→here is the thread's barrier wait.
func (f *FlightTracer) BarrierExit(tc *TC) {
	now := trace.Since()
	if f.Met != nil {
		f.Met.BarrierWait.Observe(now - tc.traceBarrier)
	}
	if f.Rec != nil {
		f.Rec.EmitAt(now, tc.num, trace.KindBarrierExit, 0)
	}
}
