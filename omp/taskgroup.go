package omp

import "sync/atomic"

// This file implements the taskgroup and taskloop constructs.
//
// taskgroup (OpenMP 4.0) waits for *all descendant* tasks created in its
// dynamic extent, not just direct children as taskwait does. taskloop
// (4.5) tiles a loop into tasks and wraps them in an implicit taskgroup.
// The paper's GLTO implements OpenMP 4.0, where taskgroup is the deep
// synchronization point its CG-style producer patterns rely on.

// TaskGroup tracks the unfinished descendant tasks of one taskgroup region,
// and carries the group's cancel flag: one atomic word, checked (never
// CAS'd) at every task scheduling point, set once by Cancel.
type TaskGroup struct {
	count     atomic.Int64
	cancelled atomic.Bool
	// team is the region the group belongs to, for stats attribution; nil
	// for hand-built groups.
	team *Team
}

// Pending reports the number of unfinished descendant tasks.
func (g *TaskGroup) Pending() int64 { return g.count.Load() }

// Cancel cancels the taskgroup (the cancel taskgroup construct): tasks of
// the group that have not started are drained without executing — wherever
// they sit (producer ring, queue, deque, dependence park) — while running
// bodies are unaffected. The group's wait still releases: drained tasks
// count down exactly like executed ones.
func (g *TaskGroup) Cancel() {
	if g.cancelled.CompareAndSwap(false, true) {
		if g.team != nil {
			if o := g.team.owner; o != nil {
				o.Counters.GroupsCancelled.Add(1)
			}
		}
	}
}

// Cancelled reports whether the group is cancelled.
func (g *TaskGroup) Cancelled() bool { return g.cancelled.Load() }

// Taskgroup runs body and then waits until every task created within it —
// including tasks created by those tasks, transitively — has completed
// (#pragma omp taskgroup). While waiting, the thread executes queued tasks.
// A cancelled group (TaskGroup.Cancel, tc.CancelTaskgroup, or a panicking
// task body inside the group) still drains here: unstarted tasks complete as
// drains, so the count always reaches zero.
func (tc *TC) Taskgroup(body func()) {
	g := &TaskGroup{team: tc.team}
	parent := tc.group
	tc.group = g
	body()
	tc.group = parent
	// The end of a taskgroup is a task scheduling point: tasks the body
	// buffered must be dispatched before the wait, or the count never drains.
	tc.flushPending()
	for g.count.Load() > 0 {
		tc.WaitStep()
	}
}

// Taskloop executes body over [lo, hi) tiled into tasks of grain iterations
// each (grain <= 0 picks roughly one task per team thread), then waits for
// them like an enclosing taskgroup (#pragma omp taskloop).
func (tc *TC) Taskloop(lo, hi, grain int, body func(i int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = (n + tc.team.Size - 1) / tc.team.Size
		if grain < 1 {
			grain = 1
		}
	}
	tc.Taskgroup(func() {
		for start := lo; start < hi; start += grain {
			end := start + grain
			if end > hi {
				end = hi
			}
			start, end := start, end
			tc.Task(func(*TC) {
				for i := start; i < end; i++ {
					body(i)
				}
			})
		}
	})
}

// ForCollapse2 work-shares the collapsed 2-D iteration space
// [lo0,hi0) x [lo1,hi1) across the team, the collapse(2) clause: the
// flattened space is distributed with the given options, so teams larger
// than hi0-lo0 still balance.
func (tc *TC) ForCollapse2(lo0, hi0, lo1, hi1 int, opts ForOpts, body func(i, j int)) {
	n1 := hi1 - lo1
	if n1 <= 0 || hi0 <= lo0 {
		// Degenerate inner/outer range: nothing to do, but members must
		// still agree on encounter numbering, which ForSpec handles.
		tc.ForSpec(0, 0, opts, func(int) {})
		return
	}
	total := (hi0 - lo0) * n1
	tc.ForSpec(0, total, opts, func(k int) {
		body(lo0+k/n1, lo1+k%n1)
	})
}
