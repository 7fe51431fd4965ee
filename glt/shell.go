package glt

import "sync/atomic"

// shellPool parks the goroutines that can drive an execution stream. A
// stream has exactly one driver at a time: the goroutine running its
// Thread.loop, which calls unit bodies inline. When a promotion turns the
// driver's stack into a ULT's private stack (Ctx.Yield), a parked shell takes
// over the loop, and the old driver parks here once its ULT has finished.
// Starting a goroutine costs a couple of microseconds plus a stack; waking a
// parked one is a channel handoff and allocates nothing.
type shellPool struct {
	idle chan *Thread // unbuffered: a send only succeeds into a parked shell
	n    atomic.Int32 // shells parked, or about to park, on idle
	cap  int32
}

// handoff makes a parked shell — or a new goroutine if none is parked — the
// driver of stream t. The caller must be t's current driver (or New) and must
// not touch t's owner-side state afterwards.
func (rt *Runtime) handoff(t *Thread) {
	select {
	case rt.shells.idle <- t:
	default:
		go rt.drive(t)
	}
}

// drive is a shell's body: it drives one stream after another, parking in
// the pool in between for as long as the pool has room.
func (rt *Runtime) drive(t *Thread) {
	for t != nil {
		t.loop()
		if rt.shells.n.Add(1) > rt.shells.cap {
			rt.shells.n.Add(-1)
			return
		}
		t = <-rt.shells.idle // nil once Shutdown has closed the pool
		rt.shells.n.Add(-1)
	}
}
