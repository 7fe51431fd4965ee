// Package qth implements the Qthreads-like scheduling backend for the GLT
// runtime.
//
// Two properties of Qthreads drive its behaviour in the paper:
//
//  1. Synchronization is built on full/empty bits (FEBs): every aligned
//     memory word can act as a lock, and the runtime "protects all the
//     memory words with mutex regions, adding a noticeable contention when
//     we increase the number of OS threads" (§VI-B). The FEB word locks live
//     in a hashed, striped global table, so the cost of any queue operation
//     grows with the number of streams touching the table.
//  2. Work units stay where they were queued: the paper's Table I analysis
//     notes that under GLT over Qthreads "once a task is bound to a
//     GLT_thread, there is no work stealing, so the task is resumed in the
//     same GLT_thread".
//
// This backend therefore uses one FIFO pool per execution stream with
// strictly local Pop — the same topology as the Argobots backend — but every
// push, and every pop that finds work, performs readFE/writeEF round-trips on
// the FEB words guarding the pool's head and tail, plus one on the word
// holding the queued unit itself, through the shared striped table (package
// glt/qth/feb). That is where Qthreads pays, and measurably so as streams are
// added. A pop of an empty pool only reads both words full-to-full.
//
// With GLT_SHARED_QUEUES all streams share one FEB-guarded pool.
package qth

import (
	"repro/glt"
	"repro/glt/qth/feb"
)

func init() {
	glt.Register("qth", func() glt.Policy { return &policy{} })
}

// pool is a FIFO ring whose head and tail are guarded by FEB words rather
// than a Go mutex: readFE/writeEF round-trips on the queue metadata are the
// unit of synchronization cost, as in Qthreads itself.
type pool struct {
	head feb.Word // FEB-guarded index of the first element
	tail feb.Word // FEB-guarded index one past the last element
	slot feb.Word // FEB word standing in for the queued unit's memory word
	ring []*glt.Unit
}

const initialRing = 64

func newPool(t *feb.Table) *pool {
	p := &pool{ring: make([]*glt.Unit, initialRing)}
	p.head.Init(t, 0)
	p.tail.Init(t, 0)
	p.slot.Init(t, 0)
	return p
}

func (p *pool) push(u *glt.Unit) {
	// Acquire tail then head: both are needed because a push may have to
	// grow the ring, and the double acquisition reproduces the multi-word
	// FEB traffic of the native queue.
	tail := p.tail.ReadFE()
	head := p.head.ReadFE()
	if int(tail-head) == len(p.ring) {
		bigger := make([]*glt.Unit, 2*len(p.ring))
		for i := head; i < tail; i++ {
			bigger[i%uint64(len(bigger))] = p.ring[i%uint64(len(p.ring))]
		}
		p.ring = bigger
	}
	p.ring[tail%uint64(len(p.ring))] = u
	// Qthreads fills the FEB of the word receiving the work unit.
	p.slot.TouchFE()
	p.head.WriteEF(head)
	p.tail.WriteEF(tail + 1)
}

// pushAll enqueues a run of units under one head/tail FEB acquisition. The
// queue-metadata synchronization is amortized across the run — the
// readFE/writeEF round-trips that grow with stream count happen once per run
// instead of once per unit — while the per-word FEB fill that Qthreads pays
// for each queued work unit (slot.TouchFE) remains per unit, keeping the
// backend's distinctive cost signature. FIFO order matches a sequence of
// pushes.
func (p *pool) pushAll(units []*glt.Unit) {
	n := len(units)
	if n == 0 {
		return
	}
	tail := p.tail.ReadFE()
	head := p.head.ReadFE()
	for int(tail-head)+n > len(p.ring) {
		bigger := make([]*glt.Unit, 2*len(p.ring))
		for i := head; i < tail; i++ {
			bigger[i%uint64(len(bigger))] = p.ring[i%uint64(len(p.ring))]
		}
		p.ring = bigger
	}
	for _, u := range units {
		p.ring[tail%uint64(len(p.ring))] = u
		p.slot.TouchFE()
		tail++
	}
	p.head.WriteEF(head)
	p.tail.WriteEF(tail)
}

// pop takes the oldest unit, or returns nil if the pool is empty. An empty
// pool costs two full-to-full reads and no FE transition, so poppers spinning
// on an empty pool never hold head or tail empty against a pusher's ReadFE.
// Head is read first: indices only grow and head never passes tail, so equal
// reads mean the pool was empty when tail was read. A pool found non-empty
// pays the full round trip, a ReadFE/WriteEF pair on each word plus one
// slot.TouchFE, and re-checks under it.
func (p *pool) pop() *glt.Unit {
	if head := p.head.ReadFF(); head == p.tail.ReadFF() {
		return nil
	}
	tail := p.tail.ReadFE()
	head := p.head.ReadFE()
	if head == tail {
		p.head.WriteEF(head)
		p.tail.WriteEF(tail)
		return nil
	}
	u := p.ring[head%uint64(len(p.ring))]
	p.ring[head%uint64(len(p.ring))] = nil
	p.slot.TouchFE()
	p.head.WriteEF(head + 1)
	p.tail.WriteEF(tail)
	return u
}

type policy struct {
	febs   *feb.Table
	pools  []*pool
	shared bool
}

func (*policy) Name() string  { return "qth" }
func (*policy) PinMain() bool { return false }
func (*policy) Steals() bool  { return false }

func (p *policy) Setup(nthreads int, shared bool) {
	p.febs = feb.NewTable(feb.DefaultStripes)
	p.shared = shared
	if shared {
		p.pools = []*pool{newPool(p.febs)}
		return
	}
	p.pools = make([]*pool, nthreads)
	for i := range p.pools {
		p.pools[i] = newPool(p.febs)
	}
}

// Table exposes the policy's FEB table so that application code written in
// the Qthreads idiom (e.g. the native UTS driver of Fig. 5) can allocate FEB
// words from the same contention domain as the scheduler.
func (p *policy) Table() *feb.Table { return p.febs }

func (p *policy) Push(from, to int, u *glt.Unit) {
	if p.shared {
		p.pools[0].push(u)
		return
	}
	p.pools[to].push(u)
}

// PushBatch enqueues a fresh spawn batch as contiguous equal-Home runs, one
// FEB head/tail acquisition per run, preserving FIFO order within each pool.
// A unit's Home is never read after the unit has been handed to a pool:
// ownership transfers on enqueue.
func (p *policy) PushBatch(from int, units []*glt.Unit) {
	if p.shared {
		p.pools[0].pushAll(units)
		return
	}
	glt.ForEachHomeRun(units, func(to int, run []*glt.Unit) {
		p.pools[to].pushAll(run)
	})
}

func (p *policy) Pop(self int) *glt.Unit {
	if p.shared {
		return p.pools[0].pop()
	}
	return p.pools[self].pop()
}
