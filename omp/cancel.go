package omp

// Failure semantics: cancellation, panic isolation and deadlines.
//
// The paper's case for lightweight-thread runtimes is oversubscription-
// friendly execution; a server built on that claim additionally needs every
// failure mode to resolve to a defined outcome instead of a hang. This file
// holds the cross-cutting state:
//
//   - Cancellation. A Team (and each TaskGroup) carries a sticky cancel flag
//     checked — never written — on the task hot path. Cancelled tasks are
//     drained, not executed: wherever a task surfaces (producer ring, shared
//     queue, deque, release slot, ULT, chained release), the unified exec
//     path performs the full completion bookkeeping minus the body, so
//     refcounts, pools, taskgroup counts and the team task count stay sound
//     and a cancelled dependence graph unwinds through the ordinary release
//     walk.
//   - Panic isolation. A panicking task body is recovered at the exec
//     boundary: it cancels its taskgroup (or, outside one, the region),
//     records a *TaskPanicError on the team, and completes like a drained
//     task — so barriers, taskwait and taskgroup still release. A panicking
//     member body is recovered in Team.runMember; the rank still arrives at
//     the region-end rendezvous. The first recorded panic resurfaces from
//     the region entry point (Runtime.Parallel/ParallelN, tc.Parallel).
//   - Deadlines. WithDeadline (or OMP_REGION_DEADLINE) arms a region
//     deadline; once exceeded, Team.Cancelled starts reporting true and the
//     task graph drains cooperatively.
//
// Construct barriers need one extra mechanism: all barriers of a region
// share one epoch word, so a rank that skips barriers (its body panicked, or
// it abandoned a wait on cancellation) would desynchronize the arrival
// counts for everyone else. cancelBreak is the control-flow sentinel for
// that: cancellation points inside member bodies (tc.Barrier after an
// abandoned wait, tc.Ordered) panic it, runMember swallows it, and the
// region-end rendezvous — which counts ranks, not barrier epochs — releases
// the region regardless of how many construct barriers each rank skipped.

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// TaskPanicError records a panic recovered from a task body or a region
// member body. The first panic of a region is recorded on its Team and
// re-raised from the region entry point once the region has fully unwound;
// Value is the original panic value and Stack the stack captured at the
// recovery site.
type TaskPanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("omp: recovered panic in parallel region: %v", e.Value)
}

// cancelBreakSentinel is the control-flow panic raised at cancellation
// points inside member bodies (see the file comment). It never escapes the
// runtime: runMember swallows it.
type cancelBreakSentinel struct{}

var cancelBreak = cancelBreakSentinel{}

// Cancel cancels the region: every subsequent task scheduling point drains
// tasks instead of executing them, and members abandon construct-barrier
// waits (the region-end rendezvous still synchronizes the team). The flag is
// sticky for the rest of the region; prepare resets it.
func (t *Team) Cancel() {
	if t.cancelled.CompareAndSwap(false, true) {
		if o := t.owner; o != nil {
			o.Counters.GroupsCancelled.Add(1)
		}
	}
}

// Cancelled reports whether the region is cancelled, arming the cancel flag
// first if a region deadline has expired. It is the hot-path check: one
// atomic load when no deadline is set and the region is healthy.
func (t *Team) Cancelled() bool {
	if t.cancelled.Load() {
		return true
	}
	if d := t.deadline.Load(); d != 0 && time.Now().UnixNano() >= d {
		t.Cancel()
		return true
	}
	return false
}

// ArmDeadline arms the region deadline d from now, first caller wins (so
// every member of a WithDeadline body can call it racelessly). Non-positive
// d is ignored.
func (t *Team) ArmDeadline(d time.Duration) {
	if d <= 0 {
		return
	}
	t.deadline.CompareAndSwap(0, time.Now().Add(d).UnixNano())
}

// Deadline reports the armed region deadline and whether one is set.
func (t *Team) Deadline() (time.Time, bool) {
	d := t.deadline.Load()
	if d == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, d), true
}

// recordPanic stores the first panic of the region (first writer wins) and
// returns the recorded error. An already-wrapped *TaskPanicError — a nested
// region's panic resurfacing through tc.Parallel — is recorded as-is, so
// the innermost stack survives the cascade.
func (t *Team) recordPanic(v any) *TaskPanicError {
	pe, ok := v.(*TaskPanicError)
	if !ok {
		pe = &TaskPanicError{Value: v, Stack: debug.Stack()}
	}
	t.panicErr.CompareAndSwap(nil, pe)
	return pe
}

// TakePanic removes and returns the region's recorded panic, or nil. The
// front end calls it after RunRegion to resurface the panic from the region
// entry point; tests running regions by hand may use it directly.
func (t *Team) TakePanic() *TaskPanicError {
	return t.panicErr.Swap(nil)
}

// WithDeadline wraps a region body so the region cancels cooperatively once
// d has elapsed: tasks still queued drain without executing, and the region
// completes through its ordinary rendezvous. Use it as the body argument of
// Parallel/ParallelN. The deadline is armed by whichever member enters
// first, so the window covers the whole region, not each member separately.
func WithDeadline(d time.Duration, body func(*TC)) func(*TC) {
	return func(tc *TC) {
		tc.team.ArmDeadline(d)
		body(tc)
	}
}

// CancelRegion requests cancellation of the innermost enclosing parallel
// region (the cancel parallel construct). Tasks not yet started are drained;
// running task bodies are not interrupted (Go cannot preempt them) but every
// task scheduling point after the flag is set observes it.
func (tc *TC) CancelRegion() {
	tc.team.Cancel()
}

// CancelTaskgroup requests cancellation of the innermost enclosing taskgroup
// (the cancel taskgroup construct), reporting whether there was one. Tasks
// of the group not yet started are drained; the group's wait still
// synchronizes (drained tasks count down like executed ones).
func (tc *TC) CancelTaskgroup() bool {
	if tc.group == nil {
		return false
	}
	tc.group.Cancel()
	return true
}

// Cancelled reports whether the innermost enclosing taskgroup or the region
// is cancelled — the cancellation-point check (#pragma omp cancellation
// point) long-running bodies poll to participate in cooperative
// cancellation.
func (tc *TC) Cancelled() bool {
	return (tc.group != nil && tc.group.Cancelled()) || tc.team.Cancelled()
}

// Pooled-descriptor census: a gated pair of global counters tracking live
// (drawn-but-not-recycled) task slots, for leak assertions in chaos and
// cancellation tests. Gated because the counters are shared across all
// teams: one atomic load on the pool paths when disabled, so production
// traffic never pays the contention.
var (
	censusOn  atomic.Bool
	liveSlots atomic.Int64
)

// EnableTaskSlotCensus toggles the task-slot census. Counting is relative:
// enable it, snapshot LiveTaskSlots, run the workload to quiescence, and
// compare — a non-zero delta is a leaked (or double-recycled) descriptor.
func EnableTaskSlotCensus(on bool) { censusOn.Store(on) }

// LiveTaskSlots reports the census counter (meaningful only while the
// census is enabled; see EnableTaskSlotCensus).
func LiveTaskSlots() int64 { return liveSlots.Load() }
