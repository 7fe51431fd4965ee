// Package ws implements a lock-free work-stealing scheduling backend for the
// GLT runtime.
//
// The paper's three libraries serialize every pool operation through a lock:
// abt and qth take a mutex (or FEB word round-trip) per push and pop, and
// even mth — the work-stealing library of the trio — guards its deques with
// mutexes, so backend diversity in this repository stopped at lock
// *placement*. This backend opens the other axis: a Chase-Lev deque per
// execution stream, where the owner pushes and pops at the bottom with plain
// atomics and thieves compete for the top with a single CAS. The hot path —
// a stream spawning onto and consuming from its own pool — performs no
// synchronization beyond sequentially-consistent loads and stores, which is
// what keeps per-region scheduling latency bounded as streams are added
// (no lock-holder to wait out, no convoy).
//
// Three design points beyond the textbook deque:
//
//   - Foreign submissions. Chase-Lev admits exactly one bottom-side owner,
//     but the glt engine pushes from anywhere: the application's main
//     goroutine dispatches regions (from = -1) and GLTO's round-robin task
//     placement targets remote ranks. Those land in the destination's
//     *inbox*, a lock-free MPMC FIFO (the same segment-chain design as the
//     shared pool, plus a resident count that gates the empty fast path at
//     one atomic load) the owner drains into its deque when its local work
//     runs out — and that thieves may raid when the victim's deque is
//     empty, so work cannot be stranded behind an owner whose current ULT
//     never yields. Pushes from a stream to its own rank — the work-first
//     common case — go straight to the deque bottom. With the inbox's old
//     mutex gone, no submit, steal or yield steady-state path in this
//     backend acquires a lock at all.
//   - Bulk loading. PushBatch writes a whole equal-Home run into the
//     destination deque (or inbox) and publishes it with a single bottom
//     store, so a region's team becomes runnable in one episode and is never
//     observed half-enqueued; the engine wakes stealers only after PushBatch
//     returns.
//   - Steal-half. An empty stream does not trickle units out of a victim
//     one at a time: through the engine-level glt.Stealer capability (the
//     idle path's alternative to parking) it transfers up to half of the
//     victim's pending run into its own deque (one CAS per unit —
//     multi-unit CAS over a Chase-Lev top is unsound against a non-CASing
//     owner pop) and runs the oldest. Bursty producers (UTS-style tree
//     search, single-producer task loops) therefore shed load in O(log)
//     steal episodes instead of one-at-a-time trickle. Pop itself never
//     raids for an empty stream — division of labour with the engine keeps
//     the rescue at exactly one point; only the loaded-stream progress
//     probe (one unit every few pops, as in mth) steals from inside Pop.
//     The probe leaves a victim that is making progress (its pop count
//     moved since the last probe) all but a fresh unit at its deque top,
//     so it never moves a working stream's polling waiters; a victim whose
//     count stood still may be stuck under a ULT that never yields, and
//     the probe takes its oldest unit, deque or inbox, whatever it is.
//
// Yielded continuations are requeued through the inbox rather than the deque
// bottom: a polling ULT (a barrier waiter, a joining parent) goes to the
// back of the line and the stream drains real work — fresh tasks, stolen
// runs — before re-running it. Without this, LIFO bottom-popping would
// starve a parent's children behind the parent's own yield loop.
//
// Unlike mth, the main unit is not pinned: a stolen primary simply resumes
// on the thief's stream, which the engine supports natively. Started units
// (suspended continuations) are stealable too — this is what lets untied
// OpenMP tasks migrate between streams under GLTO(WS).
//
// With GLT_SHARED_QUEUES all streams share one FIFO pool and stealing is
// moot; the deques are not used. The shared pool keeps the backend's
// no-lock story: it is a lock-free MPMC segment queue (see sharedPool), so
// the one mode that funnels every stream through a single structure still
// performs no mutex acquisition on push or pop.
package ws

import (
	"sync/atomic"

	"repro/glt"
	"repro/glt/trace"
	"repro/internal/tour"
)

func init() {
	glt.Register("ws", func() glt.Policy { return &policy{} })
}

// initialRing is the starting capacity of each deque's circular buffer. It
// is deliberately small so the growth and wraparound paths are exercised by
// ordinary workloads (and by the conformance tests), not just adversarial
// ones; a steady-state region or task burst grows the ring once and reuses
// it forever after.
const initialRing = 64

// ring is one immutable-capacity circular buffer of a Chase-Lev deque. Slots
// are atomic because a thief may read an index the owner is concurrently
// publishing; the top/bottom protocol guarantees a successful CAS only ever
// claims a slot whose store happened-before. Old rings are never freed
// eagerly — the garbage collector reclaims them once no thief can still hold
// a reference, which is the GC-runtime simplification of the classic
// algorithm's memory-reclamation problem.
type ring struct {
	mask uint64
	slot []atomic.Pointer[glt.Unit]
}

func newRing(n int) *ring {
	return &ring{mask: uint64(n - 1), slot: make([]atomic.Pointer[glt.Unit], n)}
}

func (r *ring) size() int64 { return int64(r.mask + 1) }

func (r *ring) get(i int64) *glt.Unit { return r.slot[uint64(i)&r.mask].Load() }

func (r *ring) put(i int64, u *glt.Unit) { r.slot[uint64(i)&r.mask].Store(u) }

// deque is a Chase-Lev work-stealing deque. The owning stream pushes and
// pops at bottom; thieves CAS top. Indices grow monotonically and wrap
// modulo the ring size, so (bottom - top) is always the population.
type deque struct {
	top    atomic.Int64
	_      [56]byte // keep the thief-contended top off the owner's line
	bottom atomic.Int64
	buf    atomic.Pointer[ring]
}

func (d *deque) init() { d.buf.Store(newRing(initialRing)) }

// grow replaces the ring with one of twice the capacity, copying the live
// window [top, bottom). Only the owner grows, and top can only advance while
// it does, which is harmless: a thief that claims an index from the old ring
// read its slot before the CAS, and the owner republishes every still-live
// index into the new ring before making it visible.
func (d *deque) grow(r *ring, top, bottom int64) *ring {
	bigger := newRing(2 * len(r.slot))
	for i := top; i < bottom; i++ {
		bigger.put(i, r.get(i))
	}
	d.buf.Store(bigger)
	return bigger
}

// pushBottom makes u runnable at the hot end. Owner-only.
func (d *deque) pushBottom(u *glt.Unit) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.buf.Load()
	if b-t >= r.size() {
		r = d.grow(r, t, b)
	}
	r.put(b, u)
	d.bottom.Store(b + 1)
}

// pushBottomAll bulk-loads a run at the hot end under a single publication:
// slots are written first, then one bottom store makes the whole run visible
// to the owner's pops and to thieves at once. Owner-only. Slice order is
// preserved, so the owner pops the run LIFO (work-first) and thieves steal
// it FIFO from the cold end, exactly as len(run) pushBottom calls would
// arrange.
func (d *deque) pushBottomAll(run []*glt.Unit) {
	if len(run) == 0 {
		return
	}
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.buf.Load()
	for b-t+int64(len(run)) > r.size() {
		r = d.grow(r, t, b)
	}
	for i, u := range run {
		r.put(b+int64(i), u)
	}
	d.bottom.Store(b + int64(len(run)))
}

// popBottom takes the newest unit. Owner-only; the only synchronization with
// thieves is the CAS duel over the final element.
func (d *deque) popBottom() *glt.Unit {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom and leave.
		d.bottom.Store(b + 1)
		return nil
	}
	u := d.buf.Load().get(b)
	if t == b {
		// Last element: win it from any concurrent thief or concede it.
		if !d.top.CompareAndSwap(t, t+1) {
			u = nil
		}
		d.bottom.Store(b + 1)
	}
	return u
}

// stealTop claims the oldest unit for a thief, or returns nil when the deque
// is empty or the CAS was lost to a competitor. Reading the slot before the
// CAS is safe: the owner never overwrites an index below its observed top
// (it grows instead), so a successful CAS certifies the read.
func (d *deque) stealTop() *glt.Unit { return d.stealTopIf(false) }

// stealTopIf is stealTop that, with freshOnly set, leaves a started oldest
// unit in place. The peek happens before the claim, so it reads a unit the
// thief does not own and the answer may be stale; a successful CAS
// certifies it, since a unit cannot run while it sits in the deque. A nil
// slot is one a grow did not copy because the top has already passed it,
// so the CAS would fail anyway.
func (d *deque) stealTopIf(freshOnly bool) *glt.Unit {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	u := d.buf.Load().get(t)
	if freshOnly && (u == nil || u.Started()) {
		return nil
	}
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return u
}

// population reports a racy size estimate for victim selection.
func (d *deque) population() int64 {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return b - t
}

// inbox is the lock-free MPMC FIFO receiving submissions from parties other
// than the owning stream: external dispatch (the application goroutine),
// remote-targeted pushes, and the owner's own yielded continuations (which
// must go to the back of the line, see the package comment). It embeds the
// shared pool's segment-chain queue — producers reserve slot ranges with a
// fetch-add, consumers claim slots with a CAS, no mutex anywhere — and adds
// a resident count so the owner's empty check and a thief's raid gate cost
// one atomic load instead of a queue traversal.
//
// resident is adjusted *after* the queue operation it describes, so it is an
// estimate, not an invariant: it can read low while a producer is between
// publish and Add, and transiently negative when a concurrent pop claims
// such a not-yet-counted unit first. Both skews resolve within the two
// racing calls and neither strands work — the engine wakes streams only
// after the producer's push call has returned, at which point the count
// covers the published unit (the same spurious-empty contract sharedPool
// itself relies on).
type inbox struct {
	resident atomic.Int64
	_        [56]byte // keep the hot count off the segment cursors' lines
	q        sharedPool
}

func (b *inbox) init() { b.q.init() }

func (b *inbox) put(u *glt.Unit) {
	b.q.push(u)
	b.resident.Add(1)
}

// putAll publishes a run in submission order — one reservation fetch-add per
// segment touched, not one synchronization episode per unit.
func (b *inbox) putAll(run []*glt.Unit) {
	if len(run) == 0 {
		return
	}
	b.q.pushAll(run)
	b.resident.Add(int64(len(run)))
}

// pop claims the oldest published unit, or returns nil when the inbox is
// empty (or mid-publish, which the wake contract makes indistinguishable
// from empty on purpose).
func (b *inbox) pop() *glt.Unit {
	u := b.q.pop()
	if u != nil {
		b.resident.Add(-1)
	}
	return u
}

// size reports the racy resident estimate, clamped at zero, for empty gates
// and steal-half sizing.
func (b *inbox) size() int64 {
	n := b.resident.Load()
	if n < 0 {
		return 0
	}
	return n
}

// stream is the per-rank scheduling state. Padded so one rank's owner
// traffic does not false-share with its neighbour's.
type stream struct {
	d       deque
	box     inbox
	scratch []*glt.Unit // drainBox staging; retained so steady-state drains allocate nothing
	rank    int         // own rank, for trace emission (set once in Setup)
	rng     tour.Rand   // steal-tour starts; owner-only
	// pops counts the owner's Pop calls. It paces the owner's progress probe
	// and tells a prober whether this stream is making progress: stored by
	// the owner only, loaded by the other streams' probes.
	pops atomic.Uint64
	// seen holds, per victim rank, the victim's pop count as of this
	// stream's last probe of it. Owner-only.
	seen  []uint64
	stole atomic.Uint64 // units stolen by this rank (read by StealsObserved)
	_     [64]byte
}

// drainBox moves the inbox backlog into the owner's deque in FIFO order and
// reports whether anything moved. Owner-only: pushBottomAll is an owner
// operation. Units are popped in claim order into a retained scratch slice
// and republished under a single bottom store, so a concurrent thief either
// claims a unit out of the inbox before the owner does or observes the whole
// drained run at once — never a half-moved backlog.
func (s *stream) drainBox() bool {
	if s.box.size() == 0 {
		return false
	}
	for {
		u := s.box.pop()
		if u == nil {
			break
		}
		s.scratch = append(s.scratch, u)
	}
	if len(s.scratch) == 0 {
		return false
	}
	s.d.pushBottomAll(s.scratch)
	trace.Emit(s.rank, trace.KindInboxDrain, uint64(len(s.scratch)))
	clear(s.scratch)
	s.scratch = s.scratch[:0]
	return true
}

// sharedSegSize is the slot count of one shared-pool segment. Small enough
// that ordinary workloads (and the conformance tests) cross segment
// boundaries routinely, large enough that the amortized cost of opening a
// segment — one allocation plus two CASes per sharedSegSize units — is
// noise.
const sharedSegSize = 64

// sharedSeg is one fixed-size segment of the shared pool's queue. Indices
// are used exactly once — a segment never wraps — which is what makes the
// algorithm immune to ABA without tags or hazard pointers: a slot can only
// ever transition nil → unit → nil (claimed), and a stale consumer's CAS on
// claim simply fails. Retired segments are reclaimed by the garbage
// collector once no producer or consumer can still reach them, the same
// GC-runtime simplification of memory reclamation the deques use for their
// old rings.
type sharedSeg struct {
	// reserve is the producer reservation cursor. A fetch-add claims a range
	// of indices; values at or beyond sharedSegSize mean the segment is
	// closed and the producer must move to (or install) the next one.
	reserve atomic.Int64
	_       [56]byte // producers' reserve and consumers' claim on separate lines
	// claim is the consumer cursor: a CAS from h to h+1 certifies ownership
	// of slot h.
	claim atomic.Int64
	_     [56]byte
	next  atomic.Pointer[sharedSeg]
	slot  [sharedSegSize]atomic.Pointer[glt.Unit]
}

// sharedPool is the GLT_SHARED_QUEUES degradation: one FIFO pool shared by
// every stream. The seed implementation was a single mutex-guarded slice —
// the one place where this backend's no-lock story broke down, and exactly
// the mode the paper turns on to neutralize load imbalance (§IV-F), i.e.
// the mode in which every stream hammers the pool at once. It is now a
// lock-free MPMC queue: a chain of fixed-size segments, producers reserving
// slot ranges with one fetch-add on the tail segment's cursor (so a
// PushBatch publishes a whole run under O(1) synchronization episodes, one
// per segment touched, not one per unit) and consumers claiming slots with
// one CAS each on the head segment's cursor. No path through push, pushAll
// or pop acquires a mutex.
//
// Ordering: each producer's units appear in its submission order, and
// concurrent producers interleave at reservation granularity (one whole
// PushBatch run, or the sub-run that fit the tail segment, per fetch-add).
// Consumers drain each segment strictly in slot order. A consumer that
// reaches a slot whose producer has reserved but not yet stored it observes
// the pool as empty rather than waiting — safe, because the engine wakes
// the streams only after the producer's push call has returned.
type sharedPool struct {
	head atomic.Pointer[sharedSeg] // consumers claim here
	_    [56]byte
	tail atomic.Pointer[sharedSeg] // producers reserve here
}

// init installs the first segment. Must run before any push or pop; the
// inbox embeds sharedPool by value and initializes it here.
func (p *sharedPool) init() {
	s := new(sharedSeg)
	p.head.Store(s)
	p.tail.Store(s)
}

func newSharedPool() *sharedPool {
	p := new(sharedPool)
	p.init()
	return p
}

// advance moves the pool's tail past the closed segment s, installing a
// fresh successor if no producer has yet. Both CASes may lose to a
// competitor; either way the tail has moved and the caller retries there.
func (p *sharedPool) advance(s *sharedSeg) {
	next := s.next.Load()
	if next == nil {
		n := new(sharedSeg)
		if s.next.CompareAndSwap(nil, n) {
			next = n
		} else {
			next = s.next.Load()
		}
	}
	p.tail.CompareAndSwap(s, next)
}

func (p *sharedPool) push(u *glt.Unit) {
	for {
		s := p.tail.Load()
		t := s.reserve.Add(1) - 1
		if t < sharedSegSize {
			s.slot[t].Store(u)
			return
		}
		p.advance(s)
	}
}

// pushAll publishes a run in submission order: one reservation fetch-add
// per segment touched, then plain releasing stores into the reserved slots.
// Indices a reservation pushes past the segment end are simply dead — the
// ranges still tile the segment exactly, so every live slot has exactly one
// writer and the claim cursor can always reach the end.
func (p *sharedPool) pushAll(run []*glt.Unit) {
	for len(run) > 0 {
		s := p.tail.Load()
		n := int64(len(run))
		t := s.reserve.Add(n) - n
		if t < sharedSegSize {
			k := sharedSegSize - t
			if k > n {
				k = n
			}
			for i := int64(0); i < k; i++ {
				s.slot[t+i].Store(run[i])
			}
			run = run[k:]
			if len(run) == 0 {
				return
			}
		}
		p.advance(s)
	}
}

// pop claims the oldest published unit, or returns nil when the pool is
// empty (or the head slot's producer is mid-publish, which the caller
// cannot distinguish and need not: the producer's own wake follows). The
// winning CAS on claim certifies the slot read; the claimed slot is nilled
// so a drained segment retains no descriptor.
func (p *sharedPool) pop() *glt.Unit {
	for {
		s := p.head.Load()
		h := s.claim.Load()
		if h >= sharedSegSize {
			next := s.next.Load()
			if next == nil {
				return nil
			}
			p.head.CompareAndSwap(s, next)
			continue
		}
		u := s.slot[h].Load()
		if u == nil {
			if s.claim.Load() != h {
				// A competing claimer took slot h and nilled it between our
				// cursor and slot loads; the nil says nothing about the rest
				// of the pool. Retry at the advanced cursor.
				continue
			}
			return nil // genuinely unpublished: empty or mid-publish
		}
		if s.claim.CompareAndSwap(h, h+1) {
			s.slot[h].Store(nil)
			return u
		}
	}
}

type policy struct {
	streams []stream
	shared  *sharedPool
}

func (*policy) Name() string  { return "ws" }
func (*policy) Steals() bool  { return true }
func (*policy) PinMain() bool { return false }

func (p *policy) Setup(nthreads int, shared bool) {
	if shared {
		p.shared = newSharedPool()
		return
	}
	p.streams = make([]stream, nthreads)
	for i := range p.streams {
		p.streams[i].rank = i
		p.streams[i].d.init()
		p.streams[i].box.init()
		p.streams[i].seen = make([]uint64, nthreads)
		// Distinct tour streams per rank: the seeds differ by a constant
		// unrelated to the splitmix gamma, and the mixer decorrelates.
		p.streams[i].rng = tour.Rand(uint64(i) * 0x6C62272E07BB0142)
	}
}

// Push makes u runnable. Routing is what keeps the deque's single-owner
// invariant: only a fresh spawn from the stream that owns the destination
// goes to the deque bottom; everything else — external pushes, remote
// targets, yielded continuations — goes through the destination's inbox.
func (p *policy) Push(from, to int, u *glt.Unit) {
	if p.shared != nil {
		p.shared.push(u)
		return
	}
	if from == to && !u.Started() {
		p.streams[to].d.pushBottom(u)
		return
	}
	p.streams[to].box.put(u)
}

// PushBatch bulk-loads each contiguous equal-Home run into its destination —
// the spawner's own deque bottom under one publication when the run is
// home-targeted, the destination inbox in one reservation episode per
// segment touched otherwise.
// Batched units are fresh spawns, and a unit is never read again once its
// run has been enqueued (ownership transfers on enqueue).
func (p *policy) PushBatch(from int, units []*glt.Unit) {
	if p.shared != nil {
		p.shared.pushAll(units)
		return
	}
	glt.ForEachHomeRun(units, func(to int, run []*glt.Unit) {
		if to == from {
			p.streams[to].d.pushBottomAll(run)
			return
		}
		p.streams[to].box.putAll(run)
	})
}

// Pop returns the next unit for stream self: newest local work first
// (work-first), then the inbox backlog. Pop itself never raids an empty
// stream's neighbours — it returns nil and lets the engine's idle path do
// the stealing through the Stealer capability (StealHalf), so bulk rescue
// happens exactly once, at the point the stream would otherwise park.
//
// The one exception is the periodic single-unit probe (as in the mth
// backend): every few pops a *loaded* stream takes one unit from a victim,
// so a stream cycling on polling continuations cannot starve a neighbour
// whose current ULT never yields. It deliberately takes one unit, not half —
// the probing stream has work of its own, and bulk transfer between two
// loaded streams would just ping-pong units. What it may take depends on
// whether the victim is making progress (see steal): from a stream whose
// pop count moved since the last probe it takes only a fresh unit, so it
// never moves a working stream's polling waiters; from a stream whose count
// stood still it takes whatever is oldest, as the starvation rescue.
func (p *policy) Pop(self int) *glt.Unit {
	if p.shared != nil {
		return p.shared.pop()
	}
	s := &p.streams[self]
	pops := s.pops.Load() + 1
	s.pops.Store(pops)
	u := s.d.popBottom()
	if u == nil {
		if !s.drainBox() {
			return nil // genuinely empty: the engine's idle path steals
		}
		u = s.d.popBottom()
		if u == nil {
			return nil
		}
	}
	// The probe runs only once we hold a local unit — that unit may be a
	// polling continuation cycling through the inbox, which is exactly the
	// state that must not starve loaded neighbours. The stolen oldest runs
	// first; our own unit goes back to the bottom and is popped next.
	if pops%4 == 0 {
		if v := p.steal(self, false); v != nil {
			s.d.pushBottom(u)
			return v
		}
	}
	return u
}

// StealHalf implements glt.Stealer: it transfers up to half of one victim's
// pending run into self's deque and returns the oldest stolen unit for
// immediate execution, or nil when no victim had stealable work. The engine
// calls it from self's scheduler loop as the alternative to parking — this
// is the backend's only empty-stream steal path (Pop returns nil instead of
// raiding).
func (p *policy) StealHalf(self int) *glt.Unit {
	if p.shared != nil {
		return nil
	}
	return p.steal(self, true)
}

// steal makes one convoy-aware tour of the other streams and raids the
// first victim with stealable work — its deque first, its inbox when the
// deque is empty (work can be stranded in the inbox of a stream whose
// current ULT never yields; the inbox's per-unit claim CAS makes the raid
// safe without a lock). The tour (internal/tour) starts at a pseudo-random
// rank in a pseudo-random direction, drawn from the stream's own tour
// stream, so N idle thieves fan out over victims instead of stampeding the
// same one, and alternates outward from the start, visiting near ranks
// before far ones. The victim's oldest unit is returned for immediate
// execution and, when half is set, the ceiling half of the observed run
// moves into self's deque with it. With half unset this is the single-unit
// progress probe of Pop, cheap enough to run while the prober still has
// local work. The probe reads each victim's pop count first. If it moved since self last probed that victim,
// the victim is making progress and will reach its own work: the probe
// takes its oldest deque unit only if that unit is fresh, and leaves its
// inbox alone, because a started unit there is a polling waiter and moving
// it gains no work. If the count stood still, the victim's current ULT may
// never yield, and the probe raids it as StealHalf would, one unit only.
func (p *policy) steal(self int, half bool) *glt.Unit {
	n := len(p.streams)
	if n == 1 {
		return nil
	}
	s := &p.streams[self]
	start, dir := s.rng.Start(n)
	for k := 0; k < n; k++ {
		at := tour.At(start, dir, k, n)
		if at == self {
			continue
		}
		v := &p.streams[at]
		var u *glt.Unit
		if !half && s.progressed(at, v) {
			u = p.raidFresh(s, v)
		} else if u = p.raidDeque(s, v, half); u == nil {
			u = p.raidInbox(s, v, half)
		}
		if u != nil {
			trace.Emit(self, trace.KindRaid, uint64(at))
			return u
		}
	}
	return nil
}

// progressed reports whether victim v, of rank at, has popped since s last
// asked, and remembers v's pop count for the next probe.
func (s *stream) progressed(at int, v *stream) bool {
	n := v.pops.Load()
	moved := n != s.seen[at]
	s.seen[at] = n
	return moved
}

// raidFresh is the probe's raid on a victim that is making progress: its
// oldest deque unit, and only if that unit has not started.
func (p *policy) raidFresh(s, v *stream) *glt.Unit {
	u := v.d.stealTopIf(true)
	if u != nil {
		s.stole.Add(1)
	}
	return u
}

// raidDeque steals from v's deque top. Each unit moves under its own top
// CAS (see the package comment for why a multi-unit CAS is unsound), so
// thieves and the victim's owner stay wait-free relative to each other; the
// loop stops early if the victim drains (or competing thieves win)
// underneath us.
func (p *policy) raidDeque(s, v *stream, half bool) *glt.Unit {
	want := int64(1)
	if half {
		want = (v.d.population() + 1) / 2
	}
	first := v.d.stealTop()
	if first == nil {
		return nil
	}
	taken := int64(1)
	for taken < want {
		u := v.d.stealTop()
		if u == nil {
			break
		}
		// Later steals are newer than earlier ones; bottom-pushing them in
		// steal order keeps self's LIFO pop consistent with the victim's
		// age order.
		s.d.pushBottom(u)
		taken++
	}
	s.stole.Add(uint64(taken))
	return first
}

// raidInbox takes the oldest inbox units of a victim whose deque came up
// empty: the front of the FIFO is returned for immediate execution and, with
// half set, the rest of the ceiling half of the observed backlog
// bottom-pushes into self's deque in age order. Each unit moves under its
// own claim CAS, competing fairly with the victim owner's drainBox and with
// other raiders — whoever wins a claim owns that unit, so nothing is lost or
// doubled. The resident estimate bounds the take, so a raider cannot strip
// units published after it sized the backlog.
func (p *policy) raidInbox(s, v *stream, half bool) *glt.Unit {
	n := v.box.size()
	if n == 0 {
		return nil
	}
	take := int64(1)
	if half {
		take = (n + 1) / 2
	}
	first := v.box.pop()
	if first == nil {
		return nil
	}
	taken := int64(1)
	for taken < take {
		u := v.box.pop()
		if u == nil {
			break
		}
		s.d.pushBottom(u)
		taken++
	}
	s.stole.Add(uint64(taken))
	return first
}

// StealsObserved reports the total number of units this policy has moved
// between streams — StealHalf raids and single-unit Pop probes combined —
// for tests and tooling (Table II reports it as StolenUnits).
func (p *policy) StealsObserved() uint64 {
	var total uint64
	for i := range p.streams {
		total += p.streams[i].stole.Load()
	}
	return total
}
