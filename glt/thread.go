package glt

import (
	"runtime"
	"time"

	"repro/glt/trace"
	"repro/internal/chaos"
)

// Thread is an execution stream (the GLT_thread of the GLT API): one
// scheduler loop driven by one goroutine at a time — which one changes at
// every promotion (see Ctx.Yield), and none is bound to an OS thread (see
// loop). Threads are created by New and run until Shutdown.
type Thread struct {
	rt    *Runtime
	rank  int
	park  parker
	stats threadStats
}

func newThread(rt *Runtime, rank int) *Thread {
	return &Thread{rt: rt, rank: rank, park: parker{ch: make(chan struct{}, 1)}}
}

// loop is the scheduler loop of one execution stream. The stream repeatedly
// asks the policy for the next unit and executes it; when no unit is
// available it spins briefly and then parks.
//
// GLT_threads are bound to CPU cores in the native libraries (paper Fig. 3).
// Here each stream is driven by an ordinary goroutine that the Go
// scheduler maps onto the OS threads of its GOMAXPROCS pool. It is
// deliberately NOT runtime.LockOSThread-pinned: on virtualized hosts waking
// a locked thread costs tens of microseconds (a real futex round trip),
// which would bill every ULT operation at OS-thread price and erase the
// two-level-threading cost gap this library exists to reproduce. The
// essential properties survive — one scheduler loop per stream, at most one
// ULT running per stream, and no oversubscription from ULT creation — while
// the pthread substrate (internal/pthread) keeps hard OS-thread binding and
// genuinely pays kernel-thread costs, as the paper's comparison requires.
//
// loop returns at Shutdown, or once exec reports that the calling goroutine
// no longer drives the stream (a successor runs the loop by then).
func (t *Thread) loop() {
	const spinBeforePark = 64
	idleSpins := 0
	for {
		if t.rt.shutdown.isSet() {
			t.rt.wg.Done() // not deferred: a Goexit must not release it
			return
		}
		u := t.rt.policy.Pop(t.rank)
		if u == nil {
			idleSpins++
			if idleSpins < spinBeforePark {
				runtime.Gosched()
				continue
			}
			// Last resort before sleeping: policies with the Stealer
			// capability let an idle stream raid half of a loaded peer's run
			// instead of parking (see glt.Stealer).
			if st := t.rt.stealer; st != nil {
				trace.Emit(t.rank, trace.KindStealAttempt, 0)
				chaos.MaybeDelay(chaos.SiteSteal)
				if u = st.StealHalf(t.rank); u != nil {
					trace.Emit(t.rank, trace.KindStealHit, 0)
					t.stats.idleSteals.Add(1)
				}
			}
		}
		idleSpins = 0
		if u != nil {
			if !t.exec(u) {
				return
			}
			continue
		}
		// Still nothing anywhere in the policy's pools: give the engine's
		// drain hook a chance to surface work that is not a unit yet — GLTO
		// raids producer-side overflow rings of buffered OpenMP tasks here —
		// before committing to a park.
		if dp := t.rt.drain.Load(); dp != nil && (*dp)(t.rank) {
			t.stats.bufferSteals.Add(1)
			continue
		}
		t.stats.parks.Add(1)
		trace.Emit(t.rank, trace.KindPark, 0)
		t.park.parkTimeout(200 * time.Microsecond)
		trace.Emit(t.rank, trace.KindUnpark, 0)
	}
}

// exec runs one unit until it yields or completes and reports whether the
// calling goroutine still drives the stream afterwards. A fresh unit — ULT or
// tasklet — starts inline, costing no goroutine switch if it never yields; a
// promoted ULT (see Ctx.Yield) is resumed through its sched/yield gates.
func (t *Thread) exec(u *Unit) bool {
	// Unit start/end bracket one execution slice on this stream, up to the
	// next yield. Disabled cost is one atomic load per emit.
	trace.Emit(t.rank, trace.KindUnitStart, uint64(u.tag))
	u.ctx.w = t // happens-before a resumed ULT observes it via the sched gate
	if !u.promoted {
		if !u.tasklet {
			t.stats.ultsStarted.Add(1)
		}
		return t.runInline(u)
	}
	u.sched.signal()
	u.yield.wait()
	if u.promoted {
		t.requeue(u)
	} else {
		t.finish(u)
	}
	return true
}

// runInline calls a fresh unit's body on the goroutine driving the stream and
// reports whether that goroutine still drives it afterwards. The deferred
// function is the containment boundary: a panic is recovered and counted; a
// runtime.Goexit (a t.FailNow in a body) cannot be, so the dying driver
// appoints a successor. Either way the unit completes. A body promoted on the
// way ends on its own goroutine instead: however it ended, it hands the token
// back with promoted cleared and leaves completion to the waiting stream.
func (t *Thread) runInline(u *Unit) (driving bool) {
	returned := false // still false in the deferred call: panic or Goexit
	defer func() {
		if !returned && recover() != nil {
			t.rt.panicsRecovered.inc()
			returned = true // contained: the stream carries on as after a return
		}
		if u.promoted {
			u.promoted = false
			u.yield.signal()
			return
		}
		t.finish(u)
		if driving = returned; !driving {
			t.rt.handoff(t)
		}
	}()
	u.fn(&u.ctx)
	returned = true
	return
}

// finish completes a unit and drops the worker's lifetime reference; for
// detached units that is the last one, so the descriptor recycles right here.
func (t *Thread) finish(u *Unit) {
	trace.Emit(t.rank, trace.KindUnitEnd, uint64(u.tag))
	if u.tasklet {
		t.stats.taskletsRun.Add(1)
	} else {
		t.stats.ultsCompleted.Add(1)
	}
	u.complete()
	u.unrefOn(t.rank)
}

// requeue ends a yielding ULT's slice and makes it runnable again.
func (t *Thread) requeue(u *Unit) {
	trace.Emit(t.rank, trace.KindUnitEnd, uint64(u.tag))
	target := t.rank
	if m := u.migrate.Swap(-1); m >= 0 {
		target = int(m)
		t.stats.migrations.Add(1)
	}
	t.rt.dispatchFrom(t.rank, target, u)
}

// parker lets an idle execution stream sleep until work might be available.
// wake is level-triggered via a 1-buffered channel, so a wake delivered while
// the worker is not parked is not lost.
type parker struct {
	ch chan struct{}
	// timer is reused across parks (only the owning stream parks, so no
	// synchronization is needed). A fresh time.NewTimer per park would
	// charge every idle period one allocation.
	timer *time.Timer
}

func (p *parker) wake() {
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

func (p *parker) parkTimeout(d time.Duration) {
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-p.ch:
	case <-p.timer.C:
	}
	p.timer.Stop()
}
