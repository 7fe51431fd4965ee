package glt

import "sync/atomic"

// shellPool parks the goroutines that can take over an execution stream: a
// yielding ULT whose scheduling step pops a fresh unit (which must never run
// nested on a waiter's stack) or nothing hands the stream's token to a shell,
// which runs Thread.loop, and parks here again once its loop has passed the
// token to a suspended ULT. Starting a goroutine costs a couple of
// microseconds plus a stack; waking a parked one allocates nothing.
type shellPool struct {
	idle chan shellJob // unbuffered: a send only succeeds into a parked shell
	n    atomic.Int32  // shells parked, or about to park, on idle
	cap  int32
}

// shellJob is a stream's token plus the unit its new holder runs first.
type shellJob struct {
	t *Thread
	u *Unit
}

// handoff passes t's token to a parked shell — or a new goroutine if none is
// parked — which runs u (when non-nil) and then t's loop. The caller must hold
// t's token and must not touch t's owner-side state afterwards.
func (rt *Runtime) handoff(t *Thread, u *Unit) {
	t.stats.handoffs.Add(1)
	t.give()
	select {
	case rt.shells.idle <- shellJob{t, u}:
	default:
		go rt.drive(t, u)
	}
}

// drive is a shell's body: it drives one stream after another, parking in
// the pool in between for as long as the pool has room.
func (rt *Runtime) drive(t *Thread, u *Unit) {
	for t != nil {
		t.loop(u)
		if rt.shells.n.Add(1) > rt.shells.cap {
			rt.shells.n.Add(-1)
			return
		}
		j := <-rt.shells.idle // zero once Shutdown has closed the pool
		t, u = j.t, j.u
		rt.shells.n.Add(-1)
	}
}
