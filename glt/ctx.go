package glt

import (
	"runtime"

	"repro/glt/trace"
)

// Ctx is the execution context handed to every work-unit body. It identifies
// the unit and the execution stream currently running it, and exposes the
// cooperative scheduling operations of the GLT API: yield, spawn, join and
// migrate.
//
// A Ctx is only valid while its unit holds the execution token, i.e. inside
// the unit's body between scheduling points. It must not be retained or used
// from other goroutines.
type Ctx struct {
	u  *Unit
	rt *Runtime
	w  *Thread // set by the stream before each dispatch of the unit
}

// Rank reports the rank of the execution stream currently running the unit.
// A ULT that yields may be resumed by a different stream under stealing
// policies, so Rank can change across scheduling points.
func (c *Ctx) Rank() int { return c.w.rank }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Unit returns the work unit this context belongs to.
func (c *Ctx) Unit() *Unit { return c.u }

// IsMain reports whether this unit was spawned with SpawnMain.
func (c *Ctx) IsMain() bool { return c.u.main }

// Tag reports the unit's caller-assigned tag (the batch index assigned by
// SpawnTeam/SpawnBatch; the OpenMP team rank in GLTO). Unlike Rank it is
// fixed for the unit's lifetime.
func (c *Ctx) Tag() int { return c.u.tag }

// Yield makes the unit runnable again at the tail of its current stream's
// pool and runs that stream's next scheduling step itself, since it holds the
// token: popping itself costs one OS-level scheduling hint and no switch;
// popping a suspended ULT hands that ULT the token directly; popping a fresh
// unit, or nothing, hands the stream to a pooled shell (see shellPool). This
// goroutine then parks, as the ULT's private stack, until a stream pops the
// unit again. The first yield promotes the ULT (see Unit.promoted).
//
// Two special cases mirror the native libraries:
//   - Tasklets cannot yield; Yield panics if the unit is a tasklet.
//   - If the unit is the primary one and the backend pins the main execution
//     (MassiveThreads, paper §IV-G), Yield is a no-op apart from an OS-level
//     scheduling hint: the main ULT occupies its stream until it finishes,
//     and other streams must steal its children.
func (c *Ctx) Yield() { c.yieldTo(-1) }

// MigrateTo is Yield with the unit pushed to the pool of the execution stream
// with the given rank instead of the current one.
func (c *Ctx) MigrateTo(rank int) {
	if rank < 0 || rank >= len(c.rt.threads) {
		panic("glt: migrate target out of range")
	}
	c.yieldTo(rank)
}

// yieldTo is Yield with the unit requeued on stream target (-1: the current
// one).
func (c *Ctx) yieldTo(target int) {
	u, t := c.u, c.w
	if u.tasklet {
		panic("glt: tasklet attempted to yield")
	}
	// The pinned-main rule needs a second stream to make sense: suppressing
	// the only stream's yields would strand every unit behind the main with
	// no thief to rescue them, a configuration the native library resolves
	// with blocking synchronization instead.
	if u.main && c.rt.policy.PinMain() && len(c.rt.threads) > 1 {
		t.stats.pinnedYields.Add(1)
		runtime.Gosched()
		return
	}
	t.stats.yields.Add(1)
	if !u.promoted {
		u.promoted = true
		t.stats.promotions.Add(1)
	}
	trace.Emit(t.rank, trace.KindUnitEnd, uint64(u.tag))
	if target < 0 {
		target = t.rank
	} else {
		t.stats.migrations.Add(1)
	}
	// Once pushed, u may be popped and signalled by another stream, but it
	// cannot run on until this goroutine reaches sched.wait below; c.w is
	// stale from here on.
	c.rt.dispatchFrom(t.rank, target, u)
	var next *Unit
	if !c.rt.shutdown.isSet() {
		next = c.rt.policy.Pop(t.rank)
	}
	switch {
	case next == u:
		trace.Emit(t.rank, trace.KindUnitStart, uint64(u.tag))
		runtime.Gosched()
		return
	case next != nil && next.promoted:
		t.exec(next)
	default:
		c.rt.handoff(t, next)
	}
	u.sched.wait()
	c.w.take()
}

// Spawn creates a ULT on the current execution stream's pool. This is the
// cheapest spawn: under non-stealing backends the child is guaranteed to run
// on the creating stream, which is how GLTO handles nested parallel regions
// (paper §IV-E: "each GLT_thread generates and executes the GLT_ults for the
// nested code").
func (c *Ctx) Spawn(fn Func) *Unit {
	u := c.rt.newUnit(c.w.rank, fn, false)
	c.rt.dispatchFrom(c.w.rank, c.w.rank, u)
	return u
}

// SpawnTo creates a ULT on the pool of the stream with the given rank
// (or round-robin for AnyThread).
func (c *Ctx) SpawnTo(rank int, fn Func) *Unit {
	u := c.rt.newUnit(c.w.rank, fn, false)
	c.rt.dispatchFrom(c.w.rank, rank, u)
	return u
}

// SpawnTasklet creates a tasklet on the given stream's pool
// (or round-robin for AnyThread).
func (c *Ctx) SpawnTasklet(rank int, fn func()) *Unit {
	u := c.rt.newUnit(c.w.rank, func(*Ctx) { fn() }, true)
	c.rt.dispatchFrom(c.w.rank, rank, u)
	return u
}

// SpawnDetached creates a fire-and-forget work unit on the given stream's
// pool (AnyThread for round-robin); see Runtime.SpawnDetached. tasklet
// selects the stackless kind. This is GLTO's task-dispatch primitive: the
// OpenMP layer tracks task completion through its own team counters, so no
// handle is needed and the descriptor recycles the moment the task ends.
func (c *Ctx) SpawnDetached(rank int, fn Func, tasklet bool) {
	c.rt.spawnDetached(c.w.rank, rank, fn, tasklet)
}

// SpawnDetachedBatch is Runtime.SpawnDetachedBatch with the calling stream
// as the originating rank, so work-first policies (mth) apply the same
// locality rule as a sequence of Ctx.SpawnDetached calls. It is GLTO's
// batched task-dispatch primitive: one scheduling synchronization episode
// makes a whole producer-side task buffer runnable.
func (c *Ctx) SpawnDetachedBatch(fn Func, targets []int, args []any, tasklet bool) {
	c.rt.spawnDetachedBatch(c.w.rank, fn, targets, args, tasklet)
}

// Arg reports the unit's batch payload (see Runtime.SpawnDetachedBatch).
func (c *Ctx) Arg() any { return c.u.arg }

// SpawnBatch creates n ULTs sharing one body on the current stream's pool in
// a single batch, tagged baseTag, baseTag+1, ... — the batched form of
// Spawn. GLTO's nested regions use it: the encountering stream generates the
// whole inner team (§IV-E) under one synchronization episode. out is as in
// Runtime.SpawnTeam.
func (c *Ctx) SpawnBatch(n, baseTag int, fn Func, out []*Unit) []*Unit {
	rt := c.rt
	units := unitSlice(out, n)
	rt.units.getBatch(rt, units, c.w.rank)
	for i, u := range units {
		u.fn = fn
		u.tag = baseTag + i
		u.home = c.w.rank
		u.refs.Store(2)
	}
	rt.dispatchBatch(c.w.rank, units)
	return units
}

// Join waits cooperatively for u to complete, yielding the token between
// checks so the stream can execute other units — including u itself when it
// lives in this stream's pool.
func (c *Ctx) Join(u *Unit) {
	for !u.Done() {
		c.Yield()
	}
}

// JoinAll cooperatively joins every unit in us.
func (c *Ctx) JoinAll(us []*Unit) {
	for _, u := range us {
		c.Join(u)
	}
}

// dispatchFrom is the single-unit dispatch path, with an originating rank so
// policies can apply locality rules (e.g. work-first placement).
func (rt *Runtime) dispatchFrom(from, target int, u *Unit) {
	target = rt.resolveTarget(target)
	u.home = target
	rt.policy.Push(from, target, u)
	rt.threads[target].park.wake()
	if rt.cfg.SharedQueues || rt.policy.Steals() {
		rt.threads[(target+1)%len(rt.threads)].park.wake()
	}
}
