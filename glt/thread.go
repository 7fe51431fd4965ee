package glt

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/glt/trace"
	"repro/internal/chaos"
)

// Thread is an execution stream (the GLT_thread of the GLT API): a pool (the
// policy's, for this rank) plus one execution token. Whichever goroutine holds
// the token runs the stream's scheduling step — a pooled shell in loop, a
// unit body, or a yielding ULT in Ctx.Yield — and none is bound to an OS
// thread (see loop). Threads are created by New and run until Shutdown.
type Thread struct {
	rt    *Runtime
	rank  int
	park  parker
	held  atomic.Bool // gltdebug token tripwire (see take)
	stats threadStats
	// directs counts yields that handed the token straight to another
	// suspended ULT (see Ctx.yieldTo); only the token holder touches it.
	directs uint32
}

// handoffsPerGosched is how many waiter-to-waiter handoffs a stream makes
// between two OS-level scheduling hints.
const handoffsPerGosched = 64

func newThread(rt *Runtime, rank int) *Thread {
	return &Thread{rt: rt, rank: rank, park: parker{ch: make(chan struct{}, 1)}}
}

// take records that the calling goroutine now holds t's token, and give that
// it passed the token on; the caller must not touch t's owner-side state
// after give. Under the gltdebug build tag they panic with tokenFault if two
// goroutines ever hold one stream; otherwise they compile to nothing.
func (t *Thread) take() {
	if debugChecks && !t.held.CompareAndSwap(false, true) {
		panic(tokenFault)
	}
}

func (t *Thread) give() {
	if debugChecks && !t.held.CompareAndSwap(true, false) {
		panic(tokenFault)
	}
}

const tokenFault = "glt: execution-stream token held twice or given by a non-holder"

// loop is the scheduler loop of one execution stream, entered by a shell that
// was handed t's token. It runs u first when non-nil, then repeatedly asks the
// policy for the next unit and executes it; when no unit is available it
// spins briefly and then parks.
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
// A promoted body that returns on another stream moves the loop there (see
// runInline). loop returns at Shutdown or once its token is passed on.
func (t *Thread) loop(u *Unit) {
	const spinBeforePark = 64
	t.take()
	idleSpins := 0
	for {
		if t.rt.shutdown.isSet() {
			t.give()
			t.rt.wg.Done() // not deferred: a Goexit must not release it
			return
		}
		if u == nil {
			u = t.rt.policy.Pop(t.rank)
		}
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
			if t = t.exec(u); t == nil {
				return
			}
			u = nil
			continue
		}
		t.stats.parks.Add(1)
		trace.Emit(t.rank, trace.KindPark, 0)
		t.park.parkTimeout(200 * time.Microsecond)
		trace.Emit(t.rank, trace.KindUnpark, 0)
	}
}

// exec runs popped unit u on t, whose token the caller holds, and returns the
// stream the caller drives afterwards, or nil once it passed the token on. A
// fresh unit — ULT or tasklet — starts inline, costing no goroutine switch if
// it never yields; a promoted ULT is handed the token through its sched gate.
func (t *Thread) exec(u *Unit) *Thread {
	// Unit start/end bracket one execution slice on this stream, up to the
	// next yield. Disabled cost is one atomic load per emit.
	trace.Emit(t.rank, trace.KindUnitStart, uint64(u.tag))
	u.ctx.w = t // happens-before a resumed ULT observes it via the sched gate
	if u.promoted.Load() {
		t.stats.handoffs.Add(1)
		t.give()
		u.sched.signal()
		return nil
	}
	if !u.tasklet {
		t.stats.ultsStarted.Add(1)
	}
	return t.runInline(u)
}

// runInline calls a fresh unit's body on the calling goroutine, finishes the
// unit on the stream the body ended on (a promoted body may have been resumed
// elsewhere) and returns that stream, which the goroutine goes on driving.
// The deferred function is the containment boundary for inline and resumed
// bodies alike: a panic is recovered and counted; a runtime.Goexit (a
// t.FailNow in a body) cannot be, so the dying goroutine hands the stream to
// a successor and returns nil. Either way the unit completes.
func (t *Thread) runInline(u *Unit) (driving *Thread) {
	returned := false // still false in the deferred call: panic or Goexit
	defer func() {
		if t.rt.contain(recover()) {
			returned = true // the stream carries on as after a return
		}
		end := u.ctx.w // read before finish may recycle u
		end.finish(u)
		if driving = end; !returned {
			driving = nil
			t.rt.handoff(end, nil)
		}
	}()
	u.fn(&u.ctx)
	returned = true
	return
}

// contain reports whether r, the value of a unit body's deferred recover, is
// a panic it has now contained and counted. The token tripwire's panic is not
// the body's to contain and propagates.
func (rt *Runtime) contain(r any) bool {
	if r == nil {
		return false
	}
	if r == tokenFault {
		panic(r)
	}
	rt.panicsRecovered.inc()
	return true
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
