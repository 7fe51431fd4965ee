// Package glt implements a Generic Lightweight Threads (GLT) runtime in Go,
// reproducing the programming model of the GLT API from
//
//	Castelló et al., "GLT: A unified API for lightweight thread libraries",
//	Euro-Par 2017,
//
// which is the substrate of the GLTO OpenMP runtime studied in
//
//	Castelló et al., "GLTO: On the Adequacy of Lightweight Thread Approaches
//	for OpenMP Implementations", ICPP 2017.
//
// # Model
//
// The GLT model has two threading levels:
//
//   - A GLT_thread (here: Thread) is an execution stream: one scheduler
//     loop. Threads are created once, when the runtime is initialized, and
//     are the only entities that consume CPUs. (See Thread.loop for why they
//     are not LockOSThread-pinned kernel threads in this environment.)
//   - A GLT_ult (here: a ULT Unit) is a user-level thread: a schedulable work
//     unit with a private stack that can yield, block, migrate between
//     Threads, and be joined. ULTs are created, scheduled and destroyed
//     entirely in user space.
//   - A GLT_tasklet (here: a tasklet Unit) is an even lighter work unit with
//     no private stack: it runs to completion on the Thread that picks it up
//     and can never yield or migrate once started.
//
// In this Go implementation a stream is a pool plus one execution token, and
// whichever goroutine holds the token runs the stream's scheduling step.
// Every unit starts run-to-completion: the token holder calls the body
// inline, so a unit that never yields costs no goroutine and no switch. A
// ULT acquires its private stack lazily: at its first yield the goroutine it
// started on *becomes* its stack. A yielding ULT requeues itself and pops the
// stream's next unit itself — itself: no switch; a suspended ULT: one direct
// handoff; a fresh unit (never run nested on a waiter's stack) or nothing: a
// pooled goroutine takes the stream over — then parks until popped again. A
// ULT whose body returns goes on scheduling the stream it ended on. This
// preserves the essential execution-stream invariant of Argobots, Qthreads
// and MassiveThreads — one running unit per stream — while reusing goroutine
// stacks as ULT stacks. A tasklet is the same inline unit with yielding
// forbidden, mirroring the stackless work units of Argobots.
//
// # Backends
//
// Scheduling policy (pool topology, stealing, synchronization cost) is
// pluggable through the Policy interface. Three backends reproduce the three
// native libraries evaluated in the papers:
//
//   - "abt" (Argobots): one private FIFO pool per Thread, no stealing.
//   - "qth" (Qthreads): shepherd pools shared by pairs of workers, with every
//     queue operation routed through a striped full/empty-bit (FEB) word-lock
//     table, reproducing Qthreads' per-word synchronization cost.
//   - "mth" (MassiveThreads): per-worker deques with random work stealing;
//     the primary ULT is pinned and cannot yield (the paper's §IV-G
//     modification).
//
// A fourth backend goes beyond the paper's trio:
//
//   - "ws" (package glt/ws): a lock-free Chase-Lev work-stealing backend —
//     owner-side pushes and pops are plain atomics, thieves CAS the deque
//     top, and idle streams steal half a victim's run in one episode. It
//     also implements the optional Stealer capability, which the engine's
//     idle path uses to rescue remote bursts instead of parking.
//
// Backends register themselves via Register, typically from an init function;
// import package glt/backends for the full set.
package glt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBackend is the backend used when none is specified. Argobots is the
// paper's best-behaved library (flat scaling, no inter-stream interaction),
// so it is the natural default.
const DefaultBackend = "abt"

// AnyThread may be passed as the target rank of Spawn and SpawnTasklet to let
// the runtime pick a destination (round-robin over the execution streams).
const AnyThread = -1

// Config describes a GLT runtime instance.
type Config struct {
	// Backend names the scheduling policy: "abt", "qth", "mth" or "ws".
	// Empty means DefaultBackend.
	Backend string
	// NumThreads is the number of execution streams (GLT_threads).
	// Zero means runtime.NumCPU().
	NumThreads int
	// SharedQueues collapses every pool into one shared queue, enforcing
	// work-sharing behaviour under load imbalance at the price of a
	// contended queue (paper §IV-F; omp.Config.SharedQueues sets it from
	// GLT_SHARED_QUEUES).
	SharedQueues bool
	// PerUnitDispatch restores the paper-faithful per-unit hot path: every
	// spawn allocates a fresh descriptor and performs its own Policy.Push —
	// one synchronization episode per unit — and Release becomes a no-op. By
	// default the engine batches team spawns through Policy.PushBatch and
	// recycles descriptors through a free list; the deliberate per-unit
	// work-assignment cost of Fig. 7 is only measurable with this set
	// (omp.Config.PerUnitDispatch sets it from GLTO_PER_UNIT_DISPATCH).
	PerUnitDispatch bool
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = DefaultBackend
	}
	if c.NumThreads <= 0 {
		c.NumThreads = runtime.NumCPU()
	}
	return c
}

// Runtime is an instantiated GLT runtime: a fixed set of execution streams
// plus a scheduling policy. It is safe for concurrent use by multiple
// goroutines and ULTs.
type Runtime struct {
	cfg     Config
	policy  Policy
	threads []*Thread
	// stealer is the policy's optional Stealer capability, resolved once at
	// construction; nil for backends without it (see Thread.loop's idle
	// path).
	stealer Stealer
	// drain is the engine-registered idle drain hook (SetIdleDrain): the
	// last work source a stream consults before parking, after Pop and the
	// Stealer capability both came up empty. GLTO registers a hook that
	// raids the OpenMP layer's producer-side overflow rings, so buffered
	// tasks become runnable on idle streams without waiting for their
	// producer's next scheduling point.
	drain atomic.Pointer[func(rank int) bool]

	rr       counter // round-robin dispatch cursor for AnyThread
	wg       sync.WaitGroup
	shutdown flag
	shells   shellPool
	units    unitPool
	// detachedBufs recycles the scratch unit slices of SpawnDetachedBatch:
	// detached units return no handles, so the batch slice is internal and
	// reusable the moment dispatch completes.
	detachedBufs sync.Pool
	// batchPushes counts batch dispatch episodes (Policy.PushBatch calls).
	batchPushes counter
	// panicsRecovered counts unit bodies (ULT or tasklet) that panicked and
	// were contained by the worker's recover boundary instead of killing the
	// execution stream (see Thread.runInline).
	panicsRecovered counter
	// refUnderflows counts unit reference counts observed below zero — an
	// accounting bug (double Release, use after recycle). Under the gltdebug
	// build tag the underflow panics instead (see debugChecks).
	refUnderflows counter
}

// New creates a runtime with the given configuration and starts its
// execution streams. It returns an error if the backend is unknown.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	mk, ok := lookupPolicy(cfg.Backend)
	if !ok {
		return nil, fmt.Errorf("glt: unknown backend %q (registered: %v)", cfg.Backend, RegisteredBackends())
	}
	rt := &Runtime{cfg: cfg, policy: mk()}
	rt.stealer, _ = rt.policy.(Stealer)
	// Idle stream-driving goroutines kept for reuse; the rest exit.
	rt.shells.idle, rt.shells.cap = make(chan shellJob), int32(8*cfg.NumThreads)
	// Descriptor free list: per-stream caches over a global pool sized for a
	// healthy task backlog per stream.
	rt.units.init(cfg.NumThreads, 64*cfg.NumThreads, cfg.PerUnitDispatch)
	rt.policy.Setup(cfg.NumThreads, cfg.SharedQueues)
	rt.threads = make([]*Thread, cfg.NumThreads)
	for i := range rt.threads {
		rt.threads[i] = newThread(rt, i)
	}
	rt.wg.Add(len(rt.threads))
	for _, t := range rt.threads {
		go rt.drive(t, nil)
	}
	return rt, nil
}

// MustNew is New but panics on error; convenient for tests and examples where
// the backend name is a compile-time constant.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Backend reports the name of the active scheduling policy.
func (rt *Runtime) Backend() string { return rt.policy.Name() }

// Policy exposes the active scheduling policy. Backend-idiomatic application
// code uses it to reach library-specific facilities — e.g. the Qthreads
// backend's FEB word-lock table, which the native UTS driver of Fig. 5
// synchronizes through, as a real Qthreads port would.
func (rt *Runtime) Policy() Policy { return rt.policy }

// NumThreads reports the number of execution streams.
func (rt *Runtime) NumThreads() int { return len(rt.threads) }

// SharedQueues reports whether GLT_SHARED_QUEUES mode is active.
func (rt *Runtime) SharedQueues() bool { return rt.cfg.SharedQueues }

// Spawn creates a ULT running fn and makes it runnable on the execution
// stream with the given rank (or a round-robin one for AnyThread). It never
// blocks. The returned Unit can be joined, from plain goroutines with
// Unit.Join or cooperatively from other ULTs with Ctx.Join, and its
// descriptor can be recycled with Release once the caller is done with it.
func (rt *Runtime) Spawn(target int, fn Func) *Unit {
	u := rt.newUnit(-1, fn, false)
	rt.dispatchFrom(-1, target, u)
	return u
}

// SpawnMain is Spawn for the primary work unit of an application (the OpenMP
// master in GLTO). Backends that pin the main execution (MassiveThreads,
// paper §IV-G) treat this unit specially: it cannot yield and cannot be
// stolen.
func (rt *Runtime) SpawnMain(target int, fn Func) *Unit {
	u := rt.newUnit(-1, fn, false)
	u.main = true
	rt.dispatchFrom(-1, target, u)
	return u
}

// SpawnTasklet creates a stackless tasklet running fn. Tasklets run to
// completion on the Thread that dequeues them; fn must not yield.
func (rt *Runtime) SpawnTasklet(target int, fn func()) *Unit {
	u := rt.newUnit(-1, func(*Ctx) { fn() }, true)
	rt.dispatchFrom(-1, target, u)
	return u
}

// SpawnTaskletCtx is SpawnTasklet for bodies that need their execution
// context (stream rank, spawning): the Ctx is valid except that Yield
// panics, since tasklets run to completion.
func (rt *Runtime) SpawnTaskletCtx(target int, fn Func) *Unit {
	u := rt.newUnit(-1, fn, true)
	rt.dispatchFrom(-1, target, u)
	return u
}

// SpawnDetached is Spawn for fire-and-forget work: no handle is returned,
// the unit cannot be joined, and its descriptor is recycled by the executing
// worker the moment it completes. Completion must be observed out of band
// (GLTO's team task counters do), and detached units must finish before
// Shutdown like any other.
func (rt *Runtime) SpawnDetached(target int, fn Func) {
	rt.spawnDetached(-1, target, fn, false)
}

// SpawnDetachedArg is SpawnDetached with a payload (recovered in the body via
// Ctx.Arg) and no originating stream: the descriptor comes from the shared
// free list, so it is safe to call from any goroutine, including ones that
// are not executing on a GLT stream at all (GLTO's dependence release fires
// from whichever thread drops a task's last reference). tasklet selects the
// stackless kind.
func (rt *Runtime) SpawnDetachedArg(target int, fn Func, arg any, tasklet bool) {
	rt.spawnDetachedArg(-1, target, fn, arg, tasklet)
}

func (rt *Runtime) spawnDetached(from, target int, fn Func, tasklet bool) {
	rt.spawnDetachedArg(from, target, fn, nil, tasklet)
}

func (rt *Runtime) spawnDetachedArg(from, target int, fn Func, arg any, tasklet bool) {
	u := rt.newUnit(from, fn, tasklet)
	u.arg = arg
	u.detached = true
	u.refs.Store(1) // only the executing worker may touch the descriptor
	rt.dispatchFrom(from, target, u)
}

// SetIdleDrain registers f as the engine-level drain hook: an idle stream
// calls it (with its own rank) as the very last alternative to parking, after
// its Pop returned nothing and the policy's Stealer capability (if any) found
// no victim. f reports whether it recovered work — made something runnable on
// the stream, or ran it — in which case the stream re-enters its scheduling
// loop instead of sleeping and Stats.BufferSteals counts the rescue. f runs
// on the stream's scheduler goroutine, outside any unit, so it may perform
// owner-side operations for that rank (e.g. SpawnDetachedFrom targeting
// itself) but must not block or yield. Passing nil removes the hook.
func (rt *Runtime) SetIdleDrain(f func(rank int) bool) {
	if f == nil {
		rt.drain.Store(nil)
		return
	}
	rt.drain.Store(&f)
}

// SpawnDetachedFrom is the drain-hook spawn primitive: one fire-and-forget
// unit carrying arg (recovered via Ctx.Arg), originating from stream from —
// the caller must be executing on that stream's scheduler goroutine, as
// idle-drain hooks are — and dispatched to target. tasklet selects the
// stackless kind. The unit descriptor comes from from's unlocked free-list
// cache, so rescuing a buffered task costs no allocation and no shared lock.
func (rt *Runtime) SpawnDetachedFrom(from, target int, fn Func, arg any, tasklet bool) {
	rt.spawnDetachedArg(from, target, fn, arg, tasklet)
}

// SpawnDetachedOn is the rank-targeted hot spawn: one fire-and-forget unit
// carrying arg, created from stream from's unlocked descriptor cache and
// dispatched to target. from == target places released work on the stream
// whose caches its inputs are hot in; a different target spreads a release's
// fan-out over the streams while the descriptor still comes from the
// releaser's own cache, with no shared lock. The caller must be
// executing ON stream from: inside one of its units or on its scheduler
// goroutine. That contract holds for GLTO's dependence releases because the
// token model gives a ULT running on stream from exclusive use of from's
// owner-side structures until it yields, and the release fires inside the
// finishing task's body extent. Counted in Stats.LocalSpawns.
func (rt *Runtime) SpawnDetachedOn(from, target int, fn Func, arg any, tasklet bool) {
	from %= len(rt.threads)
	rt.threads[from].stats.localSpawns.Add(1)
	rt.spawnDetachedArg(from, target, fn, arg, tasklet)
}

// SpawnDetachedBatch creates len(targets) fire-and-forget units sharing one
// body under a single scheduling synchronization episode: descriptors leave
// the free list in one batch and the policy receives one PushBatch. Unit i
// goes to targets[i] (AnyThread resolves round-robin) and carries args[i] as
// its payload (recovered in the body via Ctx.Arg; args may be nil). tasklet
// selects the stackless kind for the whole batch. This is the engine-side
// half of GLTO's batched task submission: a producer's buffered OpenMP tasks
// become runnable in one episode instead of one locked push each. Both args
// and targets are free for reuse when the call returns.
func (rt *Runtime) SpawnDetachedBatch(fn Func, targets []int, args []any, tasklet bool) {
	rt.spawnDetachedBatch(-1, fn, targets, args, tasklet)
}

func (rt *Runtime) spawnDetachedBatch(from int, fn Func, targets []int, args []any, tasklet bool) {
	n := len(targets)
	if n == 0 {
		return
	}
	if args != nil && len(args) != n {
		panic("glt: SpawnDetachedBatch args/targets length mismatch")
	}
	bp, _ := rt.detachedBufs.Get().(*[]*Unit)
	if bp == nil {
		s := make([]*Unit, 0, n)
		bp = &s
	}
	units := unitSlice(*bp, n)
	rt.units.getBatch(rt, units, from)
	for i, u := range units {
		u.fn = fn
		u.tasklet = tasklet
		u.detached = true
		if args != nil {
			u.arg = args[i]
		}
		u.home = rt.resolveTarget(targets[i])
		u.refs.Store(1) // only the executing worker may touch the descriptor
	}
	rt.dispatchBatch(from, units)
	// Ownership of every unit transferred on enqueue; only our slice of
	// pointers remains, which must not retain recycled descriptors.
	for i := range units {
		units[i] = nil
	}
	*bp = units[:0]
	rt.detachedBufs.Put(bp)
}

// SpawnTeam creates an n-member team of ULTs sharing one body: unit i is
// tagged i (recovered inside the body via Ctx.Tag), lands on stream
// i mod NumThreads, and unit 0 is the primary (SpawnMain) unit. All n units
// are made runnable in one batch — descriptors leave the free list under a
// single lock acquisition and the policy receives a single PushBatch — which
// turns GLTO's one-ULT-per-OpenMP-thread region spawn (§IV-C) from n
// synchronization episodes into one. Under Config.PerUnitDispatch it
// degrades to n ordinary spawns.
//
// out, when it has capacity for n units, is used as the backing store;
// passing the previous region's slice back makes respawn allocation-free.
func (rt *Runtime) SpawnTeam(n int, fn Func, out []*Unit) []*Unit {
	if n < 1 {
		n = 1
	}
	units := unitSlice(out, n)
	rt.units.getBatch(rt, units, -1)
	// Build the batch grouped by destination stream (tags stay ascending
	// within each group), so every pool's share of the team is one
	// contiguous run and the policy takes exactly one lock per pool.
	streams := len(rt.threads)
	k := 0
	for h := 0; h < streams && h < n; h++ {
		for tag := h; tag < n; tag += streams {
			u := units[k]
			k++
			u.fn = fn
			u.tag = tag
			u.home = h
			u.refs.Store(2)
		}
	}
	units[0].main = true // tag 0: grouping keeps it first
	rt.dispatchBatch(-1, units)
	return units
}

// SpawnBatch creates len(targets) ULTs sharing one body: unit i is tagged i
// and dispatched to targets[i] (AnyThread resolves round-robin), all under
// one policy synchronization episode. out is as in SpawnTeam.
func (rt *Runtime) SpawnBatch(fn Func, targets []int, out []*Unit) []*Unit {
	units := unitSlice(out, len(targets))
	rt.units.getBatch(rt, units, -1)
	for i, u := range units {
		u.fn = fn
		u.tag = i
		u.home = rt.resolveTarget(targets[i])
		u.refs.Store(2)
	}
	rt.dispatchBatch(-1, units)
	return units
}

// ReleaseAll releases every non-nil unit in units (see Unit.Release),
// returning the batch to the free list under one lock acquisition, and nils
// the slice entries so the caller's scratch buffer does not retain recycled
// descriptors.
func (rt *Runtime) ReleaseAll(units []*Unit) {
	// Compact the descriptors whose last reference we hold into the front of
	// the slice, then recycle them wholesale. Units whose worker has not yet
	// dropped its reference recycle themselves when it does.
	k := 0
	for _, u := range units {
		if u == nil {
			continue
		}
		if !u.finished.Load() {
			panic("glt: ReleaseAll of unfinished unit")
		}
		if u.refs.Add(-1) == 0 {
			units[k] = u
			k++
		}
	}
	rt.units.putAll(units[:k])
	for i := range units {
		units[i] = nil
	}
}

// unitSlice returns out resized to n when it has the capacity, or a fresh
// slice otherwise.
func unitSlice(out []*Unit, n int) []*Unit {
	if cap(out) >= n {
		return out[:n]
	}
	return make([]*Unit, n)
}

// resolveTarget maps AnyThread to the next round-robin rank and validates
// explicit ranks.
func (rt *Runtime) resolveTarget(target int) int {
	if target == AnyThread {
		return int(rt.rr.inc()-1) % len(rt.threads)
	}
	if target < 0 || target >= len(rt.threads) {
		panic(fmt.Sprintf("glt: spawn target %d out of range [0,%d)", target, len(rt.threads)))
	}
	return target
}

// dispatchBatch makes a batch of freshly built units (homes already
// resolved) runnable: one PushBatch, then one wake sweep over the streams.
// Under Config.PerUnitDispatch it falls back to one dispatch per unit.
func (rt *Runtime) dispatchBatch(from int, units []*Unit) {
	if len(units) == 0 {
		return
	}
	if rt.cfg.PerUnitDispatch {
		for _, u := range units {
			rt.dispatchFrom(from, u.home, u)
		}
		return
	}
	// Record the destination ranks before the push: ownership of a unit
	// transfers the instant it is enqueued, so homes must not be read
	// afterwards. Under stealing or shared-queue policies any stream can
	// serve the batch, so a full sweep is the correct wake; with private
	// pools, waking a stream that cannot pop the new units would only pull
	// it out of park to spin on an empty pool (the nested-region path puts
	// a whole batch on one stream).
	wakeAll := rt.cfg.SharedQueues || rt.policy.Steals() || len(rt.threads) > len(wakeMask{})*64
	var mask wakeMask
	if !wakeAll {
		for _, u := range units {
			mask[u.home>>6] |= 1 << (u.home & 63)
		}
	}
	rt.batchPushes.inc()
	rt.policy.PushBatch(from, units)
	for r, t := range rt.threads {
		if wakeAll || mask[r>>6]&(1<<(r&63)) != 0 {
			t.park.wake()
		}
	}
}

// wakeMask is a stack-allocated bitmap of destination ranks, sized for any
// realistic stream count (dispatchBatch falls back to waking every stream
// beyond it).
type wakeMask [4]uint64

// Shutdown stops all execution streams and waits for them to exit. Pending
// units are not executed. Shutdown must not be called from inside a ULT.
func (rt *Runtime) Shutdown() {
	if !rt.shutdown.set() {
		return
	}
	for _, t := range rt.threads {
		t.park.wake()
	}
	rt.wg.Wait()
	// Every stream's last token holder is gone, so nothing hands off any
	// more: release the parked shells. Goroutines hosting still-suspended
	// units are not waited for; units must be joined before Shutdown.
	close(rt.shells.idle)
}

// Stats returns an aggregate snapshot of scheduling counters across all
// execution streams.
func (rt *Runtime) Stats() Stats {
	var s Stats
	for _, t := range rt.threads {
		s.add(t.stats.snapshot())
	}
	s.Threads = len(rt.threads)
	s.BatchPushes = int64(rt.batchPushes.load())
	s.UnitsReused = rt.units.reused.Load()
	s.PanicsRecovered = int64(rt.panicsRecovered.load())
	s.RefUnderflows = int64(rt.refUnderflows.load())
	return s
}

// ResetStats zeroes all scheduling counters.
func (rt *Runtime) ResetStats() {
	for _, t := range rt.threads {
		t.stats.reset()
	}
	rt.batchPushes.reset()
	rt.units.reused.Store(0)
	rt.panicsRecovered.reset()
	rt.refUnderflows.reset()
}

// RegisteredBackends lists the names of all registered scheduling policies in
// sorted order.
func RegisteredBackends() []string {
	policyMu.Lock()
	defer policyMu.Unlock()
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
