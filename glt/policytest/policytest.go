// Package policytest is a reusable conformance suite for glt.Policy
// implementations. The glt engine leans on two backend promises that are
// easy to get subtly wrong in a new policy:
//
//   - Batch equivalence: PushBatch(from, units) must be observably
//     equivalent to glt.PushEach(p, from, units) — the same units reach the
//     same pools in the same relative order, whatever locking the batch
//     amortizes (Policy.PushBatch's contract).
//   - Ownership transfer: a unit is handed over the instant it is enqueued.
//     A worker may pop, run, requeue and recycle it while PushBatch is still
//     working through the rest of the slice, so a policy must never read a
//     unit — Home included — after pushing it.
//
// Every policy also gets its GLT_SHARED_QUEUES mode checked: the shared
// pool must deliver each unit exactly once under concurrent producers and
// consumers (see sharedExactlyOnce for the ordering relaxations a shared
// pool is allowed — and documented — to make). This is the section that
// certifies ws's lock-free MPMC pool the way the deque sections certify its
// private pools.
//
// Policies that additionally implement the optional glt.Stealer capability
// get a third contract checked: a unit moved by StealHalf transfers
// ownership exactly like a popped one — it surfaces exactly once across all
// Pop/StealHalf calls, and the policy never touches it after handing it
// over — and the transfer stays sound while the victim's deque indices wrap
// and its ring grows. Backends without the capability skip that section.
//
// Run additionally drives a registered backend through the real engine:
// for a policy whose Pop steals (Policy.Steals), a child spawned by a ULT
// that spins without yielding must escape to the peer stream even though
// that stream never idles, because it keeps running a yielding waiter.
//
// Third-party backends certify themselves by calling Run (for a registered
// backend name) or Suite (for an unregistered constructor) from a test:
//
//	func TestMyPolicyConformance(t *testing.T) {
//	    policytest.Suite(t, func() glt.Policy { return newMyPolicy() })
//	}
//
// The ownership check relies on the race detector: run the suite under
// `go test -race` to get its full value, as this repository's CI does.
package policytest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/glt"
)

// Run exercises the conformance suite against a registered backend
// (glt.NewPolicy), in both private-pool and shared-queue modes, and then
// the engine-level cases that need a runtime built from the backend name.
func Run(t *testing.T, name string) {
	t.Helper()
	mk := func() glt.Policy {
		p, err := glt.NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		return p
	}
	Suite(t, mk)
	t.Run("Engine/SpinnerChildEscapes", func(t *testing.T) {
		if !mk().Steals() {
			t.Skip("policy's Pop does not steal")
		}
		spinnerChildEscapes(t, name)
	})
}

// spinnerChildEscapes is the engine-level face of a stealing Pop's progress
// guarantee. A ULT spins in Go code, never yielding, until a unit it spawned
// on its own stream has run. The only other unit in the runtime is a waiter
// that yields in a loop on the peer stream, so that stream always has a
// unit to pop and never reaches the engine's idle path: only a steal from
// inside Pop can move the child. It must run before the deadline; the
// spinner gives up at the deadline, so a policy that strands the child
// fails the case instead of hanging it.
func spinnerChildEscapes(t *testing.T, name string) {
	rt, err := glt.New(glt.Config{Backend: name, NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	deadline := time.Now().Add(10 * time.Second)
	var childRan, rescued, stop atomic.Bool
	var waitRank atomic.Int64
	waitRank.Store(-1)
	waiter := rt.Spawn(1, func(c *glt.Ctx) {
		for !stop.Load() {
			waitRank.Store(int64(c.Rank()))
			c.Yield()
		}
	})
	for waitRank.Load() < 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if waitRank.Load() < 0 {
		stop.Store(true)
		t.Fatal("the waiter never started")
	}
	spinner := rt.Spawn(1-int(waitRank.Load()), func(c *glt.Ctx) {
		c.Spawn(func(*glt.Ctx) { childRan.Store(true) })
		for !childRan.Load() && time.Now().Before(deadline) {
			runtime.Gosched() // hold the stream without yielding it
		}
		rescued.Store(childRan.Load())
	})
	spinner.Join()
	stop.Store(true)
	waiter.Join()
	if !rescued.Load() {
		t.Fatal("the spinning ULT's child never ran: the peer's pops kept returning the waiter")
	}
}

// Suite exercises the conformance suite against a policy constructor. Each
// subtest builds fresh instances via mk and drives them directly, with no
// engine behind them, exactly as glt.NewPolicy invites tooling to do.
func Suite(t *testing.T, mk func() glt.Policy) {
	t.Helper()
	for _, shared := range []bool{false, true} {
		shared := shared
		mode := "private"
		if shared {
			mode = "shared"
		}
		t.Run("BatchEquivalence/"+mode, func(t *testing.T) {
			batchEquivalence(t, mk, shared)
		})
	}
	t.Run("SingletonBatch", func(t *testing.T) { singletonBatch(t, mk) })
	t.Run("EmptyBatch", func(t *testing.T) { emptyBatch(t, mk) })
	t.Run("ForeignPush", func(t *testing.T) {
		t.Run("DrainOrder", func(t *testing.T) { foreignDrainOrder(t, mk) })
		t.Run("ExactlyOnce", func(t *testing.T) { foreignExactlyOnce(t, mk) })
	})
	t.Run("OwnershipTransfer", func(t *testing.T) { ownershipTransfer(t, mk) })
	t.Run("SharedQueues", func(t *testing.T) { sharedExactlyOnce(t, mk) })
	t.Run("Stealer", func(t *testing.T) {
		if _, ok := mk().(glt.Stealer); !ok {
			t.Skip("policy does not implement glt.Stealer")
		}
		t.Run("StealHalfOwnership", func(t *testing.T) { stealHalfOwnership(t, mk) })
		t.Run("Wraparound", func(t *testing.T) { stealWraparound(t, mk) })
	})
}

// batchShapes are the Home layouts the equivalence check covers: the
// grouped-run shape the engine produces for team spawns, a single-pool
// burst, an adversarial interleaving (no two neighbours share a pool), and
// pushes originating both outside any stream (from = -1) and from a stream
// (from = 1, which work-first policies reroute).
func batchShapes(nthreads, n int) []struct {
	name  string
	from  int
	homes []int
} {
	grouped := make([]int, 0, n)
	for h := 0; h < nthreads; h++ {
		for tag := h; tag < n; tag += nthreads {
			grouped = append(grouped, h)
		}
	}
	interleaved := make([]int, n)
	single := make([]int, n)
	for i := range interleaved {
		interleaved[i] = i % nthreads
	}
	return []struct {
		name  string
		from  int
		homes []int
	}{
		{"grouped-external", -1, grouped},
		{"single-pool-external", -1, single},
		{"interleaved-external", -1, interleaved},
		{"interleaved-internal", 1, interleaved},
	}
}

func mkUnits(homes []int) []*glt.Unit {
	units := make([]*glt.Unit, len(homes))
	for i, h := range homes {
		units[i] = glt.NewPolicyUnit(i, h)
	}
	return units
}

// drain pops every rank dry in rank order and records the tag sequence per
// rank. Both instances of a backend share the same deterministic pop state
// (per-rank RNGs are seeded by rank), so equivalent pool contents produce
// identical drains.
func drain(p glt.Policy, nthreads int) [][]int {
	out := make([][]int, nthreads)
	for rank := 0; rank < nthreads; rank++ {
		for {
			u := p.Pop(rank)
			if u == nil {
				break
			}
			out[rank] = append(out[rank], u.Tag())
		}
	}
	return out
}

func batchEquivalence(t *testing.T, mk func() glt.Policy, shared bool) {
	const nthreads, n = 4, 16
	for _, shape := range batchShapes(nthreads, n) {
		batched, each := mk(), mk()
		batched.Setup(nthreads, shared)
		each.Setup(nthreads, shared)

		batched.PushBatch(shape.from, mkUnits(shape.homes))
		glt.PushEach(each, shape.from, mkUnits(shape.homes))

		got, want := drain(batched, nthreads), drain(each, nthreads)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: PushBatch drain %v != PushEach drain %v", shape.name, got, want)
		}
	}
}

// singletonBatch: a one-element batch must behave exactly like one Push.
func singletonBatch(t *testing.T, mk func() glt.Policy) {
	const nthreads = 3
	batched, pushed := mk(), mk()
	batched.Setup(nthreads, false)
	pushed.Setup(nthreads, false)
	batched.PushBatch(-1, []*glt.Unit{glt.NewPolicyUnit(7, 2)})
	pushed.Push(-1, 2, glt.NewPolicyUnit(7, 2))
	got, want := drain(batched, nthreads), drain(pushed, nthreads)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("singleton batch drain %v != single push drain %v", got, want)
	}
}

// emptyBatch: policies must tolerate an empty slice (the engine filters
// these out today, but the contract should not depend on it).
func emptyBatch(t *testing.T, mk func() glt.Policy) {
	p := mk()
	p.Setup(2, false)
	p.PushBatch(-1, nil)
	p.PushBatch(-1, []*glt.Unit{})
	if u := p.Pop(0); u != nil {
		t.Errorf("empty batch produced unit %v", u.Tag())
	}
}

// stealHalfOwnership checks the Stealer capability's ownership contract
// under the engine's real concurrency shape: one stream owns the loaded
// pool and pops it while every other stream raids it through StealHalf
// (draining its own pool of the stolen extras via Pop, as the engine's idle
// path does). Every unit must surface exactly once across all Pop and
// StealHalf calls, and — under the race detector — the consumers' immediate
// Home rewrite catches any post-transfer read inside the policy.
func stealHalfOwnership(t *testing.T, mk func() glt.Policy) {
	const nthreads, n, rounds = 4, 256, 4
	p := mk()
	st := p.(glt.Stealer)
	p.Setup(nthreads, false)
	for round := 0; round < rounds; round++ {
		seen := make([]atomic.Int32, n)
		homes := make([]int, n) // single loaded pool: every unit targets rank 0
		var stop atomic.Bool
		var wg sync.WaitGroup
		var surfaced atomic.Int32
		account := func(rank int, u *glt.Unit) {
			u.SetHome(rank) // post-transfer write: races with a non-conforming policy
			seen[u.Tag()].Add(1)
			if surfaced.Add(1) == n {
				stop.Store(true)
			}
		}
		for rank := 0; rank < nthreads; rank++ {
			rank := rank
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if rank != 0 {
						if u := st.StealHalf(rank); u != nil {
							account(rank, u)
							continue
						}
					}
					if u := p.Pop(rank); u != nil {
						account(rank, u)
					}
				}
			}()
		}
		p.PushBatch(-1, mkUnits(homes))
		wg.Wait()
		for tag := range seen {
			if got := seen[tag].Load(); got != 1 {
				t.Fatalf("round %d: unit %d surfaced %d times, want exactly once", round, tag, got)
			}
		}
	}
}

// stealWraparound churns one victim pool through many small bursts and one
// oversized burst while thieves raid it concurrently, so the victim's deque
// indices wrap its ring several times and the ring grows at least once.
// Exactly-once delivery across the wrap/growth boundary is the property: a
// steal that claims a recycled slot, or a grow that loses an in-flight
// unit, double-delivers or drops.
func stealWraparound(t *testing.T, mk func() glt.Policy) {
	const nthreads = 4
	bursts := []int{48, 48, 48, 200, 48, 48, 48, 48} // 48×: wrap; 200: grow
	total := int32(0)
	for _, b := range bursts {
		total += int32(b)
	}
	p := mk()
	st := p.(glt.Stealer)
	p.Setup(nthreads, false)
	seen := make([]atomic.Int32, total)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var surfaced atomic.Int32
	account := func(rank int, u *glt.Unit) {
		u.SetHome(rank)
		seen[u.Tag()].Add(1)
		if surfaced.Add(1) == total {
			stop.Store(true)
		}
	}
	for rank := 1; rank < nthreads; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if u := st.StealHalf(rank); u != nil {
					account(rank, u)
					continue
				}
				if u := p.Pop(rank); u != nil {
					account(rank, u)
				}
			}
		}()
	}
	// This goroutine is rank 0's owner: it alone pushes from rank 0 and pops
	// rank 0, interleaving bursts with partial drains so bottom keeps
	// advancing past the ring size.
	tag := 0
	for _, burst := range bursts {
		units := make([]*glt.Unit, burst)
		for i := range units {
			units[i] = glt.NewPolicyUnit(tag, 0)
			tag++
		}
		p.PushBatch(0, units)
		for i := 0; i < burst/2; i++ {
			if u := p.Pop(0); u != nil {
				account(0, u)
			}
		}
	}
	for !stop.Load() {
		if u := p.Pop(0); u != nil {
			account(0, u)
		}
	}
	wg.Wait()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("unit %d surfaced %d times, want exactly once", i, got)
		}
	}
}

// sharedExactlyOnce is the GLT_SHARED_QUEUES conformance section: every
// stream pushes into and pops from the one shared pool concurrently — the
// paper's §IV-F mode, in which the pool is the single hottest structure in
// the runtime. The contract is deliberately weaker than the private-pool
// sections' ordering guarantees, and that relaxation is part of the
// contract being documented here:
//
//   - Exactly-once: every pushed unit surfaces from exactly one Pop, on any
//     rank (Home is advisory in shared mode). This is the invariant, checked
//     under concurrent producers and consumers.
//   - Ordering: each producer's units surface in its submission order
//     relative to each other, but concurrent producers may interleave at
//     any granularity (for the lock-free ws pool: whole reservation ranges;
//     for mutex pools: whole push calls). The single-threaded
//     BatchEquivalence/shared subtest pins the sequential order; this
//     section makes no inter-producer ordering assertion.
//   - Transient emptiness: a Pop that overlaps an in-flight push may
//     observe the pool empty rather than wait. That is sound against the
//     engine, which wakes streams only after the push call returns; the
//     consumers below simply retry.
//
// Ownership transfers on enqueue exactly as in the private sections: the
// consumers' immediate Home rewrite races with any policy that touches a
// unit after publishing it, so run this under -race (CI does).
func sharedExactlyOnce(t *testing.T, mk func() glt.Policy) {
	const nthreads, producers, perProducer = 4, 3, 256
	const total = producers * perProducer
	p := mk()
	p.Setup(nthreads, true)
	seen := make([]atomic.Int32, total)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var surfaced atomic.Int32
	for rank := 0; rank < nthreads; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				u := p.Pop(rank)
				if u == nil {
					continue
				}
				u.SetHome(rank) // post-transfer write: races with a non-conforming policy
				seen[u.Tag()].Add(1)
				if surfaced.Add(1) == total {
					stop.Store(true)
				}
			}
		}()
	}
	// Producers mix batch and single pushes so both publication paths run
	// concurrently with each other and with the consumers. Bursts of 48
	// cross the ws pool's 64-slot segment boundaries repeatedly.
	for prod := 0; prod < producers; prod++ {
		prod := prod
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := prod * perProducer
			for pushed := 0; pushed < perProducer; {
				if pushed%2 == 0 {
					burst := 48
					if rem := perProducer - pushed; burst > rem {
						burst = rem
					}
					units := make([]*glt.Unit, burst)
					for i := range units {
						units[i] = glt.NewPolicyUnit(tag, (prod+i)%nthreads)
						tag++
					}
					p.PushBatch(-1, units)
					pushed += burst
				} else {
					p.Push(-1, prod%nthreads, glt.NewPolicyUnit(tag, prod%nthreads))
					tag++
					pushed++
				}
			}
		}()
	}
	wg.Wait()
	for tag := range seen {
		if got := seen[tag].Load(); got != 1 {
			t.Fatalf("unit %d surfaced %d times, want exactly once", tag, got)
		}
	}
}

// foreignDrainOrder pins the foreign-submission (inbox) path's ordering: a
// producer outside any stream (from = -1) alternates single pushes and small
// batches at one destination rank, and the resulting drain must match an
// instance that received the identical tag sequence through Push calls
// alone. This is batch equivalence specialized to the inbox — for the ws
// backend it certifies that the lock-free segment queue preserves one
// producer's submission order across put/putAll interleavings, exactly as
// the old mutex FIFO did.
func foreignDrainOrder(t *testing.T, mk func() glt.Policy) {
	const nthreads, n, to = 4, 96, 2
	mixed, each := mk(), mk()
	mixed.Setup(nthreads, false)
	each.Setup(nthreads, false)
	tag := 0
	for tag < n {
		burst := make([]*glt.Unit, 0, 8)
		for i := 0; i < 8 && tag+i < n; i++ {
			burst = append(burst, glt.NewPolicyUnit(tag+i, to))
		}
		for _, u := range burst {
			each.Push(-1, to, glt.NewPolicyUnit(u.Tag(), to))
		}
		mixed.PushBatch(-1, burst)
		tag += len(burst)
		if tag < n {
			mixed.Push(-1, to, glt.NewPolicyUnit(tag, to))
			each.Push(-1, to, glt.NewPolicyUnit(tag, to))
			tag++
		}
	}
	got, want := drain(mixed, nthreads), drain(each, nthreads)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("mixed put/putAll drain %v != per-unit push drain %v", got, want)
	}
}

// foreignExactlyOnce is the concurrent half of the inbox section: producers
// outside any stream Push and PushBatch into two destination ranks while
// those ranks' owners pop (draining their backlogs) and, on Stealer
// policies, the other ranks raid the same backlogs through StealHalf. Every
// unit must surface exactly once across all Pop and StealHalf calls — for
// the ws backend this races put, putAll, the owner's drain and the thief's
// claim on the lock-free inbox simultaneously, which is exactly the
// interleaving the old mutex serialized. Run under -race (CI does): the
// consumers' immediate Home rewrite catches any post-transfer read.
func foreignExactlyOnce(t *testing.T, mk func() glt.Policy) {
	const nthreads, producers, perProducer = 4, 3, 192
	const total = producers * perProducer
	p := mk()
	p.Setup(nthreads, false)
	st, _ := p.(glt.Stealer)
	seen := make([]atomic.Int32, total)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var surfaced atomic.Int32
	account := func(rank int, u *glt.Unit) {
		u.SetHome(rank) // post-transfer write: races with a non-conforming policy
		seen[u.Tag()].Add(1)
		if surfaced.Add(1) == total {
			stop.Store(true)
		}
	}
	for rank := 0; rank < nthreads; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if u := p.Pop(rank); u != nil {
					account(rank, u)
					continue
				}
				if st != nil && rank >= 2 {
					if u := st.StealHalf(rank); u != nil {
						account(rank, u)
					}
				}
			}
		}()
	}
	for prod := 0; prod < producers; prod++ {
		prod := prod
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := prod * perProducer
			to := prod % 2 // both destinations are foreign to the producer goroutine
			for pushed := 0; pushed < perProducer; {
				if pushed%3 == 0 {
					// Odd burst size so runs straddle the ws inbox's 64-slot
					// segment boundaries at shifting offsets.
					burst := 13
					if rem := perProducer - pushed; burst > rem {
						burst = rem
					}
					units := make([]*glt.Unit, burst)
					for i := range units {
						units[i] = glt.NewPolicyUnit(tag, to)
						tag++
					}
					p.PushBatch(-1, units)
					pushed += burst
				} else {
					p.Push(-1, to, glt.NewPolicyUnit(tag, to))
					tag++
					pushed++
				}
			}
		}()
	}
	wg.Wait()
	for tag := range seen {
		if got := seen[tag].Load(); got != 1 {
			t.Fatalf("unit %d surfaced %d times, want exactly once", tag, got)
		}
	}
}

// ownershipTransfer emulates the engine's hottest race: workers pop, mutate
// and conceptually recycle units while the producer's PushBatch is still in
// flight. Every unit must surface exactly once, and — under the race
// detector — the policy must not touch a unit after enqueueing it: the
// consumers rewrite each popped unit's Home immediately (as the engine's
// redispatch does), so any post-enqueue read in PushBatch is a data race.
func ownershipTransfer(t *testing.T, mk func() glt.Policy) {
	const nthreads, n, rounds = 4, 256, 4
	p := mk()
	p.Setup(nthreads, false)
	for round := 0; round < rounds; round++ {
		seen := make([]atomic.Int32, n)
		units := mkUnits(batchShapes(nthreads, n)[2].homes) // interleaved
		var stop atomic.Bool
		var wg sync.WaitGroup
		var popped atomic.Int32
		for rank := 0; rank < nthreads; rank++ {
			rank := rank
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					u := p.Pop(rank)
					if u == nil {
						continue
					}
					u.SetHome(rank) // post-enqueue write: races with a non-conforming PushBatch
					seen[u.Tag()].Add(1)
					if popped.Add(1) == n {
						stop.Store(true)
					}
				}
			}()
		}
		p.PushBatch(-1, units)
		wg.Wait()
		for tag := range seen {
			if got := seen[tag].Load(); got != 1 {
				t.Fatalf("round %d: unit %d surfaced %d times, want exactly once", round, tag, got)
			}
		}
	}
}
