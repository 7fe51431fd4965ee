package omp

import "sync/atomic"

// Counters is a runtime's one counter block: a cell for every Stats field
// except PeakThreads, owned by the runtime's Frontend. Whoever decides an
// event credits its cell in place — the shared construct code through
// Team.owner, an engine through its embedded Frontend — and Frontend.Stats
// and Frontend.ResetStats are the one snapshot and the one reset.
//
// Credited by the front end: Regions, NestedRegions, SerializedRegions, the
// task-queueing cells (TasksQueued, TasksDirect, TaskFlushes: the front end
// decides deferral, buffering and flushes, asking the engine only for its
// cut-off through EngineOps.Inline), the dependence cells (TasksWithDeps,
// DepReleases, TasksChained, LocalReleases) and the failure cells
// (TasksCancelled, PanicsRecovered, GroupsCancelled, InlineFallbacks). The
// steal cells (TasksStolen, TasksStolenFromBuffer, StealAttempts) are
// credited by whoever claims the task: TC.Hunt and the ring raid here, an
// engine's own queues and task units there. Credited by engines alone:
// ThreadsCreated/ThreadsReused (gomp, iomp) and ULTsCreated (GLTO).
//
// The cells are grouped by writer, each group on cache lines of its own:
// the producer's per-task increments must not invalidate the line that
// consumers increment on every steal, and neither may share one with the
// once-per-region cells.
type Counters struct {
	_ [64]byte

	// Region cells: written once per region or per nested-team thread.
	Regions           atomic.Int64
	NestedRegions     atomic.Int64
	SerializedRegions atomic.Int64
	ThreadsCreated    atomic.Int64
	ThreadsReused     atomic.Int64
	_                 [64]byte

	// Producer cells: written by the thread creating and dispatching tasks.
	TasksQueued atomic.Int64
	TasksDirect atomic.Int64
	TaskFlushes atomic.Int64
	ULTsCreated atomic.Int64
	_           [64]byte

	// Consumer cells: written by threads claiming other threads' tasks.
	TasksStolen           atomic.Int64
	TasksStolenFromBuffer atomic.Int64
	StealAttempts         atomic.Int64
	_                     [64]byte

	// Release and failure cells.
	TasksWithDeps   atomic.Int64
	DepReleases     atomic.Int64
	TasksChained    atomic.Int64
	LocalReleases   atomic.Int64
	TasksCancelled  atomic.Int64
	PanicsRecovered atomic.Int64
	GroupsCancelled atomic.Int64
	InlineFallbacks atomic.Int64
	_               [64]byte
}

// Stats snapshots the counter block and lets the engine complete the
// snapshot with the values only it can read (RegionEngine.EngineStats).
func (f *Frontend) Stats() Stats {
	c := &f.Counters
	s := Stats{
		Regions:               c.Regions.Load(),
		NestedRegions:         c.NestedRegions.Load(),
		SerializedRegions:     c.SerializedRegions.Load(),
		ThreadsCreated:        c.ThreadsCreated.Load(),
		ThreadsReused:         c.ThreadsReused.Load(),
		ULTsCreated:           c.ULTsCreated.Load(),
		TasksQueued:           c.TasksQueued.Load(),
		TasksDirect:           c.TasksDirect.Load(),
		TasksStolen:           c.TasksStolen.Load(),
		TasksStolenFromBuffer: c.TasksStolenFromBuffer.Load(),
		StealAttempts:         c.StealAttempts.Load(),
		TaskFlushes:           c.TaskFlushes.Load(),
		TasksWithDeps:         c.TasksWithDeps.Load(),
		DepReleases:           c.DepReleases.Load(),
		TasksChained:          c.TasksChained.Load(),
		LocalReleases:         c.LocalReleases.Load(),
		TasksCancelled:        c.TasksCancelled.Load(),
		PanicsRecovered:       c.PanicsRecovered.Load(),
		GroupsCancelled:       c.GroupsCancelled.Load(),
		InlineFallbacks:       c.InlineFallbacks.Load(),
	}
	f.eng.EngineStats(&s)
	return s
}

// ResetStats zeroes the counter block and the engine's resettable sources.
func (f *Frontend) ResetStats() {
	c := &f.Counters
	c.Regions.Store(0)
	c.NestedRegions.Store(0)
	c.SerializedRegions.Store(0)
	c.ThreadsCreated.Store(0)
	c.ThreadsReused.Store(0)
	c.ULTsCreated.Store(0)
	c.TasksQueued.Store(0)
	c.TasksDirect.Store(0)
	c.TasksStolen.Store(0)
	c.TasksStolenFromBuffer.Store(0)
	c.StealAttempts.Store(0)
	c.TaskFlushes.Store(0)
	c.TasksWithDeps.Store(0)
	c.DepReleases.Store(0)
	c.TasksChained.Store(0)
	c.LocalReleases.Store(0)
	c.TasksCancelled.Store(0)
	c.PanicsRecovered.Store(0)
	c.GroupsCancelled.Store(0)
	c.InlineFallbacks.Store(0)
	f.eng.EngineStats(nil)
}
