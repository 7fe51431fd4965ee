package omp

import (
	"testing"

	"repro/glt/trace"
)

// TestEmitTraceDisabledAllocFree pins the disabled-tracer cost model: with
// no tracer installed, the emitTrace closure pattern used on every construct
// hot path (region dispatch, member brackets, task lifecycle, barrier
// brackets, steal tours) performs one atomic load and zero allocations. The
// closures capture only values already live in the caller's frame, so the
// compiler keeps them on the stack when f is not invoked. The wait step's
// hunt (TC.Hunt), which reports its steal tour the same way, is pinned end
// to end: a hunt that finds a task in a member's ring and runs it, and one
// that probes queues and finds nothing.
func TestEmitTraceDisabledAllocFree(t *testing.T) {
	if prev := SetTracer(nil); prev != nil {
		defer SetTracer(prev)
	}
	team := &Team{Size: 4}
	tc := &TC{team: team, num: 1}
	node := &TaskNode{}
	got := testing.AllocsPerRun(200, func() {
		emitTrace(func(tr Tracer) { tr.RegionBegin(team) })
		emitTrace(func(tr Tracer) { tr.MemberStart(tc) })
		emitTrace(func(tr Tracer) { tr.TaskCreate(team, node) })
		emitTrace(func(tr Tracer) { tr.TaskStart(team, node) })
		emitTrace(func(tr Tracer) { tr.TaskEnd(team, node) })
		emitTrace(func(tr Tracer) { tr.DepRelease(team, node, DepDispatchLocal) })
		emitTrace(func(tr Tracer) { tr.BarrierEnter(tc) })
		emitTrace(func(tr Tracer) { tr.BarrierExit(tc) })
		emitTrace(func(tr Tracer) { tr.MemberEnd(tc) })
		emitTrace(func(tr Tracer) { tr.RegionEnd(team) })
		emitTrace(func(tr Tracer) { tr.StealTour(team, 3, true) })
	})
	if got != 0 {
		t.Errorf("disabled-tracer hook paths allocate %.2f/op, want 0", got)
	}

	_, tcs := raidTeam(2)
	body := func(*TC) {}
	got = testing.AllocsPerRun(200, func() {
		tcs[0].bufferTask(PrepareTask(tcs[0], body), 8)
		if !tcs[1].Hunt(nil, 0) {
			t.Fatal("found hunt: the buffered task was not raided")
		}
		if tcs[1].Hunt(nil, 2) {
			t.Fatal("failed hunt ran a task")
		}
	})
	if got != 0 {
		t.Errorf("disabled-tracer hunts allocate %.2f/op, want 0", got)
	}
}

// TestFlightTracerHooksAllocFree pins the enabled-path contract for the
// ready-made tracer: every FlightTracer hook writes pooled-descriptor stamp
// fields, histogram buckets and fixed-capacity ring slots only — zero
// allocations per event with both sinks live.
func TestFlightTracerHooksAllocFree(t *testing.T) {
	rec := trace.NewRecorder(4, 256)
	met := &trace.Metrics{}
	f := NewFlightTracer(rec, met)
	team := &Team{Size: 4}
	tc := &TC{team: team, num: 1}
	node := &TaskNode{}
	got := testing.AllocsPerRun(200, func() {
		f.RegionBegin(team)
		f.MemberStart(tc)
		f.TaskCreate(team, node)
		f.TaskStart(team, node)
		f.TaskEnd(team, node)
		f.DepRelease(team, node, DepDispatchChained)
		f.BarrierEnter(tc)
		f.BarrierExit(tc)
		f.StealTour(team, 3, true)
		f.MemberEnd(tc)
		f.RegionEnd(team)
	})
	if got != 0 {
		t.Errorf("FlightTracer hooks allocate %.2f/op, want 0", got)
	}
}
