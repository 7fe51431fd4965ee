package glt

import "sync/atomic"

// Func is the body of a ULT or tasklet. The Ctx argument identifies the
// executing work unit and execution stream; for tasklets it is valid but
// Yield must not be called through it.
type Func func(*Ctx)

// Unit is a schedulable work unit: either a ULT (stackful, yieldable,
// migratable) or a tasklet (stackless, run-to-completion). Units are created
// with Runtime.Spawn, Runtime.SpawnTasklet, or their Ctx equivalents, and
// are executed by exactly one execution stream at a time.
//
// Unit is built for cheap mass creation — the GLTO runtime makes one per
// OpenMP task: a body that never yields runs inline on its stream and costs
// no goroutine at all, the token gate a suspended ULT waits on is embedded by
// value with a lazily allocated park channel, and the Join rendezvous is
// embedded too. Descriptors themselves are recycled through the runtime's free list
// (see Release and the Spawn*Detached variants), so the steady-state spawn
// path allocates nothing.
type Unit struct {
	rt *Runtime
	fn Func

	tasklet bool
	main    bool // primary unit; pinned by backends with PinMain
	// detached marks a fire-and-forget unit: no *Unit handle escapes to the
	// application, so the executing worker recycles the descriptor the
	// moment it completes. Join is impossible by construction.
	detached bool

	tag int // caller-assigned identity (the OpenMP team rank in GLTO)
	// arg is an optional per-unit payload for batch spawns that share one
	// body (SpawnDetachedBatch): the GLTO task path stores the task node
	// here, so a batch of tasks needs no per-task closure.
	arg any

	// sched hands a stream's token to the suspended ULT: the holder that pops
	// the unit signals it, and the ULT's goroutine, parked in Ctx.Yield,
	// resumes on that stream.
	sched gate

	finished atomic.Bool
	// join is the Join rendezvous: a generation-counted broadcast gate that
	// is rearmed, not reallocated, across descriptor recycles.
	join joinGate
	// refs counts the parties that may still touch the descriptor: the
	// executing worker and (unless detached) the owner of the *Unit handle.
	// Whoever drops the last reference returns the descriptor to the free
	// list, so a recycle can never race with the worker's completion path.
	refs atomic.Int32
	// promoted is set from the ULT's first yield on: its body keeps the
	// goroutine it started on as a private stack, which a pop resumes.
	// Written by the ULT before it requeues itself, read by its next popper.
	promoted bool

	home int // rank the unit was dispatched to
	ctx  Ctx
}

// allocUnit builds a fresh descriptor. All spawn paths go through
// Runtime.newUnit, which prefers the free list; this is the slow path.
func allocUnit(rt *Runtime) *Unit {
	u := &Unit{rt: rt}
	u.join.init()
	u.ctx.u = u
	u.ctx.rt = rt
	return u
}

// newUnit returns a descriptor for fn, recycled from the runtime's free list
// when one is available. from is the rank of the stream the spawn originates
// on (-1 outside any stream), selecting the free list's per-stream cache;
// tasklet selects the stackless kind. This is the single construction path
// for both kinds, so a unit's kind and body are always set together.
func (rt *Runtime) newUnit(from int, fn Func, tasklet bool) *Unit {
	u := rt.units.get(rt, from)
	u.fn = fn
	u.tasklet = tasklet
	u.refs.Store(2)
	return u
}

// Done reports whether the unit has finished executing.
func (u *Unit) Done() bool { return u.finished.Load() }

// IsTasklet reports whether the unit is a stackless tasklet.
func (u *Unit) IsTasklet() bool { return u.tasklet }

// IsMain reports whether the unit was spawned with SpawnMain (the primary
// execution; see Policy.PinMain).
func (u *Unit) IsMain() bool { return u.main }

// Tag reports the caller-assigned tag: the batch index for units created by
// SpawnTeam/SpawnBatch (GLTO stores the OpenMP team rank here), 0 otherwise.
func (u *Unit) Tag() int { return u.tag }

// Arg reports the per-unit payload attached by SpawnDetachedBatch (the task
// node in GLTO's batched task dispatch), or nil.
func (u *Unit) Arg() any { return u.arg }

// Home reports the rank the unit was last dispatched to — the `to` of the
// Push (or the per-unit destination of the PushBatch) that made it runnable.
// Policies use it to route the members of a batch.
func (u *Unit) Home() int { return u.home }

// Started reports whether the unit is a suspended continuation — a ULT being
// requeued after a yield — rather than a fresh spawn. Only meaningful inside
// a Policy, where pool synchronization orders it against the writer.
func (u *Unit) Started() bool { return u.promoted }

// Release returns a finished unit's descriptor to the runtime's free list
// for reuse by later spawns. The caller asserts that every Join has returned
// and that it holds the last application reference: any use of the unit
// after Release races with its next incarnation. Releasing is optional —
// unreleased descriptors are simply garbage collected — and a no-op under
// Config.PerUnitDispatch.
func (u *Unit) Release() {
	if !u.finished.Load() {
		panic("glt: Release of unfinished unit")
	}
	u.unref()
}

// unref drops one of the unit's lifetime references (executing worker,
// application handle). The party dropping the last one recycles the
// descriptor, which guarantees the worker's completion path has fully
// quiesced before the descriptor can be respawned.
func (u *Unit) unref() { u.unrefOn(-1) }

// unrefOn is unref with the rank of the stream the caller is executing on,
// so a worker that drops the last reference recycles the descriptor into its
// own free-list cache (application callers pass -1 via unref and use the
// global pool).
func (u *Unit) unrefOn(rank int) {
	n := u.refs.Add(-1)
	if n == 0 {
		u.rt.units.put(u, rank)
		return
	}
	if n < 0 {
		// A reference count below zero is always an accounting bug (double
		// Release, unref after recycle) and means a descriptor may already
		// be live as another unit. Fail stop under the gltdebug build tag;
		// count it in release builds so tests can assert zero.
		if debugChecks {
			panic("glt: unit reference count underflow")
		}
		u.rt.refUnderflows.inc()
	}
}

// Join blocks the calling goroutine until the unit completes. It must not be
// called from inside a ULT, because blocking a ULT blocks its entire
// execution stream; ULTs join each other cooperatively with Ctx.Join. Join
// is allocation-free: the rendezvous is the unit's embedded joinGate, reused
// across descriptor recycles.
func (u *Unit) Join() {
	if u.finished.Load() {
		return
	}
	u.join.wait(&u.finished)
}

// complete marks the unit finished and wakes any joiners. Only the executing
// worker calls it, after updating its statistics.
func (u *Unit) complete() {
	u.finished.Store(true)
	u.join.open()
}

// recycle clears per-execution state so the descriptor can host its next
// incarnation. The token gate's park channel, the join gate's condition variable
// and the ctx back-pointers survive: they are position-independent, and
// reallocating them is exactly the per-spawn cost the free list exists to
// avoid.
func (u *Unit) recycle() {
	u.fn = nil
	u.arg = nil
	u.tasklet = false
	u.main = false
	u.detached = false
	u.tag = 0
	u.finished.Store(false)
	u.join.rearm()
	u.promoted = false
	u.home = 0
	u.ctx.w = nil
}
