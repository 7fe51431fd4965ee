package glt

import (
	"fmt"
	"sync"
)

// Policy is the pluggable scheduling policy of a runtime: it owns the pools
// that hold runnable units and decides which unit an execution stream runs
// next. The engine guarantees that Push, PushBatch and Pop may be called
// concurrently from any stream; policies must provide their own
// synchronization (whose cost is precisely one of the things the paper
// measures).
type Policy interface {
	// Name identifies the backend ("abt", "qth", "mth", ...).
	Name() string
	// Setup is called once, before any Push/Pop, with the number of
	// execution streams and the GLT_SHARED_QUEUES setting.
	Setup(nthreads int, shared bool)
	// Push makes u runnable. from is the rank of the pushing stream, or -1
	// when the push originates outside any stream (e.g. the application's
	// main goroutine). to is the requested destination rank; policies may
	// reinterpret it (a shared pool ignores it).
	Push(from, to int, u *Unit)
	// PushBatch makes every unit in units runnable, amortizing
	// synchronization across the batch where the pool topology allows it
	// (one lock acquisition per destination pool rather than one per unit).
	// Each unit carries its requested destination in Unit.Home, set by the
	// engine before the call; from is as in Push. The engine only batches
	// fresh spawns, so every unit satisfies Started() == false, and groups
	// batches by Home where it can, so contiguous equal-Home runs cover the
	// common case.
	//
	// Ownership of a unit transfers the instant it is enqueued: a worker
	// may pop, run, requeue and even recycle it while PushBatch is still
	// working through the rest of the slice. Implementations must therefore
	// never read a unit (including Home) after pushing it — pushing
	// contiguous runs front to back respects this naturally.
	//
	// Implementations must be observably equivalent to
	// PushEach(p, from, units) — same pools, same order within each pool.
	// PushEach is also the honest single-push fallback for policies with
	// nothing to amortize.
	PushBatch(from int, units []*Unit)
	// Pop returns the next unit for stream self, or nil if none is
	// available. Stealing policies may return units pushed to other ranks.
	Pop(self int) *Unit
	// Steals reports whether Pop may take units from other ranks' pools.
	Steals() bool
	// PinMain reports whether the primary unit is pinned: it is never
	// stolen and its Yield is a no-op (MassiveThreads, paper §IV-G).
	PinMain() bool
}

// Stealer is an optional capability a Policy may implement: bulk work
// transfer between pools. StealHalf moves up to half of one victim pool's
// pending units into the pool owned by stream self and returns one of the
// stolen units for immediate execution, or nil when no victim had stealable
// work.
//
// The engine detects the capability once, at startup, with a type assertion
// and uses it on the idle path: a stream whose Pop came up empty raids a
// loaded peer for half its run as the alternative to parking (Stats
// IdleSteals counts these rescues). Backends without the capability are
// untouched — their idle streams park exactly as before. StealHalf is always
// invoked from stream self's scheduler loop, so for a given self the calls
// are serial and may perform owner-side operations on self's own pool;
// victim-side accesses must be safe against the victim's concurrent owner,
// which is the point of the capability.
//
// Beyond the idle path, the capability is the designated hook for
// consumer-visible overflow of producer-side buffers (a ROADMAP item): a
// consumer that can see a producer's backlog steals half of it in one
// episode instead of waiting for the producer's next scheduling point.
type Stealer interface {
	StealHalf(self int) *Unit
}

// PushEach is the reference implementation of Policy.PushBatch: one Push per
// unit, in slice order, each to its own Home rank. Policies that cannot
// amortize synchronization across a batch may use it verbatim; it also
// defines the semantics every native PushBatch must preserve.
func PushEach(p Policy, from int, units []*Unit) {
	for _, u := range units {
		p.Push(from, u.Home(), u)
	}
}

// ForEachHomeRun invokes fn once per contiguous equal-Home run of units,
// front to back, preserving slice order. It is the scanning idiom the
// PushBatch ownership rule requires: every Home is read before fn has been
// handed any later unit, so a policy that enqueues (and thereby gives up)
// each run inside fn never touches a pushed unit again.
func ForEachHomeRun(units []*Unit, fn func(to int, run []*Unit)) {
	for i := 0; i < len(units); {
		to := units[i].Home()
		j := i + 1
		for j < len(units) && units[j].Home() == to {
			j++
		}
		fn(to, units[i:j])
		i = j
	}
}

// NewPolicyUnit returns a bare unit descriptor for driving a Policy directly
// (NewPolicy), outside any running engine: it has a tag and a Home but no
// runtime or body, and must never be executed by a real
// stream. The conformance suite in glt/policytest pushes and pops these
// through a policy to certify its batch contract; anything that would run
// the unit (a Runtime's Thread) will not accept it.
func NewPolicyUnit(tag, home int) *Unit {
	u := &Unit{tag: tag, home: home}
	u.migrate.Store(-1)
	u.join.init()
	return u
}

// SetHome re-targets a unit before its next Push, emulating what the engine
// does on every dispatch (Unit.Home is engine-owned state). It exists for
// Policy drivers and conformance harnesses; application code never calls it
// — and a harness writing it concurrently with a PushBatch that still holds
// the unit is exactly the ownership-transfer violation the race detector
// should catch.
func (u *Unit) SetHome(home int) { u.home = home }

var (
	policyMu sync.Mutex
	policies = map[string]func() Policy{}
)

// Register makes a backend available to New under the given name. It is
// typically called from a backend package's init function; importing
// repro/glt/backends registers the standard three.
func Register(name string, mk func() Policy) {
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policies[name]; dup {
		panic("glt: duplicate backend registration: " + name)
	}
	policies[name] = mk
}

// NewPolicy instantiates a registered backend's policy without starting a
// runtime. It serves tests and tooling that drive a Policy directly (the
// caller must invoke Setup before any Push/Pop); New remains the way to
// obtain a running engine.
func NewPolicy(name string) (Policy, error) {
	mk, ok := lookupPolicy(name)
	if !ok {
		return nil, fmt.Errorf("glt: unknown backend %q (registered: %v)", name, RegisteredBackends())
	}
	return mk(), nil
}

func lookupPolicy(name string) (func() Policy, bool) {
	policyMu.Lock()
	defer policyMu.Unlock()
	mk, ok := policies[name]
	return mk, ok
}
