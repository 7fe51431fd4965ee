package glt

import (
	"sync"
	"sync/atomic"
)

// gate is the single-token synchronization point through which a suspended
// ULT receives its stream's execution token: only the unit's own goroutine
// waits, and only the token holder that popped the unit signals, so there is
// at most one waiter and one outstanding signal. It is a one-slot channel: a
// signal that lands first is buffered, and one that finds the waiter parked
// makes it runnable on the signaller's P, which then parks or moves on — one
// goroutine switch per handoff.
//
// The channel is allocated on first use, so a unit that never yields costs
// no allocation, and kept across descriptor recycles: the protocol leaves it
// empty whenever the unit is quiescent.
type gate struct {
	ch atomic.Pointer[chan struct{}]
}

// park returns the gate's channel, allocating it on first use.
func (g *gate) park() chan struct{} {
	if ch := g.ch.Load(); ch != nil {
		return *ch
	}
	nc := make(chan struct{}, 1)
	if g.ch.CompareAndSwap(nil, &nc) {
		return nc
	}
	return *g.ch.Load()
}

// signal delivers the token. A second signal before the first was consumed
// would break the token protocol; it is dropped for robustness.
func (g *gate) signal() {
	select {
	case g.park() <- struct{}{}:
	default:
	}
}

// wait consumes the token, parking until it is signalled.
func (g *gate) wait() { <-g.park() }

// joinGate is the generation-counted broadcast gate behind Unit.Join. Unlike
// the token gate above, which alternates strictly between two parties, the
// join rendezvous is one-shot-many-waiters — which a closed channel models
// perfectly but can never rearm, so the seed allocated a fresh channel per
// parked joiner and Unit.Join charged every region respawn two allocations.
// This gate is embedded by value and reused across descriptor recycles: a
// condition variable carries the broadcast, and a generation counter bumped
// at every rearm lets a straggling joiner from a previous incarnation
// distinguish "not finished yet" from "finished, recycled, and respawned"
// (the ABA case a plain boolean could not).
//
// The completion fast path stays lock-free: open only takes the mutex when a
// waiter has announced itself, so the hundreds of thousands of detached task
// units in the paper's benchmarks pay one atomic load each, as before.
type joinGate struct {
	mu   sync.Mutex
	cond sync.Cond
	// done and gen are guarded by mu; done mirrors Unit.finished for parked
	// waiters, gen counts incarnations.
	done bool
	gen  uint64
	// waiting counts joiners between announcement and wake-up. The Dekker
	// pair with Unit.finished (joiner: waiting.Add then finished.Load;
	// completer: finished.Store then waiting.Load — both sequentially
	// consistent atomics) guarantees that either the completer sees the
	// waiter and broadcasts, or the joiner sees completion and never parks.
	waiting atomic.Int32
}

func (g *joinGate) init() { g.cond.L = &g.mu }

// wait parks the caller until the current incarnation opens. finished is the
// unit's completion flag, re-checked after announcing so a concurrent open
// cannot be missed.
func (g *joinGate) wait(finished *atomic.Bool) {
	g.waiting.Add(1)
	g.mu.Lock()
	if finished.Load() {
		g.mu.Unlock()
		g.waiting.Add(-1)
		return
	}
	gen := g.gen
	for !g.done && g.gen == gen {
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.waiting.Add(-1)
}

// open releases the current incarnation's waiters. The caller must have
// stored the unit's finished flag first.
func (g *joinGate) open() {
	if g.waiting.Load() == 0 {
		return // no joiner announced; finished alone satisfies late arrivals
	}
	g.mu.Lock()
	g.done = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// rearm advances the generation for the descriptor's next incarnation. The
// unit is quiescent here (last reference dropped), so unsynchronized reads
// of done are ordered by the refcount edge; the lock is only taken when a
// previous incarnation actually opened the gate or a straggler might still
// be parked.
func (g *joinGate) rearm() {
	if !g.done && g.waiting.Load() == 0 {
		return
	}
	g.mu.Lock()
	g.done = false
	g.gen++
	g.mu.Unlock()
	g.cond.Broadcast() // release stragglers; they observe the generation bump
}
