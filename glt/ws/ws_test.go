package ws

// White-box tests for the Chase-Lev deque: single-owner/multi-thief
// exactly-once delivery across ring wraparound and growth, the properties
// the policy-level conformance suite (glt/policytest, run from
// glt/policytest's test package against the registered "ws" backend) checks
// from the outside. Run under -race, as this repository's CI does.

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/glt"
	"repro/internal/glttest"
)

func TestDequeLIFOFIFO(t *testing.T) {
	var d deque
	d.init()
	units := make([]*glt.Unit, 6)
	for i := range units {
		units[i] = glt.NewPolicyUnit(i, 0)
		d.pushBottom(units[i])
	}
	if u := d.stealTop(); u.Tag() != 0 {
		t.Errorf("stealTop returned tag %d, want 0 (oldest)", u.Tag())
	}
	if u := d.popBottom(); u.Tag() != 5 {
		t.Errorf("popBottom returned tag %d, want 5 (newest)", u.Tag())
	}
	d.pushBottomAll([]*glt.Unit{glt.NewPolicyUnit(6, 0), glt.NewPolicyUnit(7, 0)})
	if u := d.popBottom(); u.Tag() != 7 {
		t.Errorf("popBottom after bulk load returned tag %d, want 7", u.Tag())
	}
	want := []int{1, 2, 3, 4, 6}
	for _, w := range want {
		u := d.stealTop()
		if u == nil || u.Tag() != w {
			t.Fatalf("stealTop = %v, want tag %d", u, w)
		}
	}
	if u := d.stealTop(); u != nil {
		t.Errorf("stealTop on empty deque returned tag %d", u.Tag())
	}
	if u := d.popBottom(); u != nil {
		t.Errorf("popBottom on empty deque returned tag %d", u.Tag())
	}
}

// TestDequeWraparoundSingleOwner cycles far more units through the deque
// than the initial ring holds, keeping the population small so the indices
// wrap in place rather than growing the ring.
func TestDequeWraparoundSingleOwner(t *testing.T) {
	var d deque
	d.init()
	const rounds = 10 * initialRing
	next := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < 3; i++ {
			d.pushBottom(glt.NewPolicyUnit(next, 0))
			next++
		}
		for i := 0; i < 3; i++ {
			if u := d.popBottom(); u == nil {
				t.Fatalf("round %d: deque lost a unit", r)
			}
		}
	}
	if got := d.population(); got != 0 {
		t.Fatalf("population %d after balanced churn, want 0", got)
	}
}

// TestDequeGrowthKeepsUnits forces ring growth mid-stream and checks
// nothing is lost or duplicated.
func TestDequeGrowthKeepsUnits(t *testing.T) {
	var d deque
	d.init()
	const n = 5 * initialRing
	for i := 0; i < n; i++ {
		d.pushBottom(glt.NewPolicyUnit(i, 0))
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		u := d.popBottom()
		if u == nil {
			t.Fatalf("lost units: only %d of %d popped", i, n)
		}
		if seen[u.Tag()] {
			t.Fatalf("unit %d delivered twice", u.Tag())
		}
		seen[u.Tag()] = true
	}
}

// TestDequeOwnerVsThieves is the core Chase-Lev race: one owner pushing and
// popping at the bottom (with wraparound and growth) against concurrent
// thieves CASing the top. Every unit must surface exactly once.
func TestDequeOwnerVsThieves(t *testing.T) {
	var d deque
	d.init()
	const thieves = 3
	const total = 4096
	seen := make([]atomic.Int32, total)
	var surfaced atomic.Int32
	var stop atomic.Bool
	var wg sync.WaitGroup
	account := func(u *glt.Unit) {
		seen[u.Tag()].Add(1)
		if surfaced.Add(1) == total {
			stop.Store(true)
		}
	}
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if u := d.stealTop(); u != nil {
					account(u)
				}
			}
		}()
	}
	next := 0
	for next < total {
		burst := 7
		if next%601 == 0 {
			burst = 2 * initialRing // force growth under contention
		}
		for i := 0; i < burst && next < total; i++ {
			d.pushBottom(glt.NewPolicyUnit(next, 0))
			next++
		}
		for i := 0; i < burst/2; i++ {
			if u := d.popBottom(); u != nil {
				account(u)
			}
		}
	}
	for !stop.Load() {
		if u := d.popBottom(); u != nil {
			account(u)
		}
	}
	wg.Wait()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("unit %d surfaced %d times, want exactly once", i, got)
		}
	}
}

// TestStealHalfMovesHalf checks the steal-half accounting directly on the
// policy: a thief raiding a victim with 2k pending units takes k (one
// returned, k-1 into its own deque).
func TestStealHalfMovesHalf(t *testing.T) {
	p := &policy{}
	p.Setup(2, false)
	units := make([]*glt.Unit, 16)
	for i := range units {
		units[i] = glt.NewPolicyUnit(i, 0)
	}
	p.PushBatch(0, units) // owner bulk load onto rank 0's deque
	u := p.StealHalf(1)
	if u == nil {
		t.Fatal("StealHalf found nothing on a loaded victim")
	}
	if u.Tag() != 0 {
		t.Errorf("StealHalf returned tag %d, want 0 (victim's oldest)", u.Tag())
	}
	if got := p.streams[1].d.population(); got != 7 {
		t.Errorf("thief deque holds %d units, want 7 (half of 16 minus the returned one)", got)
	}
	if got := p.streams[0].d.population(); got != 8 {
		t.Errorf("victim deque holds %d units, want 8", got)
	}
	if got := p.StealsObserved(); got != 8 {
		t.Errorf("StealsObserved = %d, want 8", got)
	}
}

// TestStealRescuesInboxBehindBusyOwner pins the inbox raid: units targeted
// at a stream whose current ULT never yields sit in that stream's inbox,
// and idle streams must be able to steal them rather than wait for the
// owner (which here only finishes once the stranded units have run).
func TestStealRescuesInboxBehindBusyOwner(t *testing.T) {
	rt := glt.MustNew(glt.Config{Backend: "ws", NumThreads: 4})
	defer rt.Shutdown()
	const n = 8
	var ran atomic.Int64
	var blockRank atomic.Int64
	blockRank.Store(-1)
	blocker := rt.Spawn(0, func(c *glt.Ctx) {
		blockRank.Store(int64(c.Rank()))
		for ran.Load() < n {
			runtime.Gosched() // occupy the stream without yielding the token
		}
	})
	for blockRank.Load() < 0 {
		runtime.Gosched()
	}
	target := int(blockRank.Load())
	units := make([]*glt.Unit, n)
	for i := range units {
		units[i] = rt.Spawn(target, func(*glt.Ctx) { ran.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d units escaped the busy stream's inbox", ran.Load(), n)
		}
		runtime.Gosched()
	}
	for _, u := range units {
		u.Join()
	}
	blocker.Join()
}

// probeLayout builds the two-stream state both probe tests start from, as
// the policy sees it while a nested inner team runs: stream 0's deque holds
// the given units (oldest, i.e. the steal end, first) and stream 1's only
// work is a started waiter that the caller holds, as if running it. Stream 0
// has popped twice, so its pop count is not the zero a fresh prober
// remembers.
func probeLayout(deque ...*glt.Unit) (p *policy, waiter *glt.Unit) {
	p = &policy{}
	p.Setup(2, false)
	for i := 0; i < 2; i++ {
		p.Push(0, 0, glt.NewPolicyUnit(-1, 0))
		p.Pop(0)
	}
	for _, u := range deque {
		p.streams[0].d.pushBottom(u)
	}
	return p, glt.NewPolicyContinuation(100, 1)
}

// TestProbeRescuesBehindStuckOwner pins the starvation case the Pop probe
// exists for. Stream 0's owner runs a ULT that never yields, so its pop
// count is frozen; its deque holds a started continuation at the steal end
// with a fresh unit behind it. Stream 1 never idles — its pops return only
// its own yielding waiter — so the engine's idle-path StealHalf never runs
// for it, and the probe is the only way the fresh unit can leave stream 0.
// It must come over within a bounded number of pops, even though the
// continuation in front of it is a waiter.
func TestProbeRescuesBehindStuckOwner(t *testing.T) {
	cont := glt.NewPolicyContinuation(10, 0)
	fresh := glt.NewPolicyUnit(11, 0)
	p, waiter := probeLayout(cont, fresh)
	p.Push(1, 1, waiter) // yield: requeue through the inbox
	for i := 0; i < 64; i++ {
		u := p.Pop(1)
		switch {
		case u == nil:
			t.Fatalf("pop %d: stream 1 came up empty", i)
		case u == fresh:
			return
		case u.Started():
			p.Push(1, 1, u) // the popped waiter polls once and yields again
		default:
			t.Fatalf("pop %d: unexpected unit tag %d", i, u.Tag())
		}
	}
	t.Fatal("the fresh unit behind a stuck owner's continuation never reached the busy peer")
}

// TestProbeLeavesProgressingVictimsWaiters is the other half of the probe
// rule: a victim whose owner keeps popping is not starving, so the probe
// takes only a fresh unit from it. Stream 0's deque holds a fresh unit at
// the steal end, then a started continuation (an inner master polling at
// its join), then another fresh unit; between any two of stream 1's pops,
// stream 0's owner spawns and runs a child. The fresh unit at the steal end
// must still come over, and the continuation must never be moved: moving a
// waiter gains no work and strands its team across two streams.
func TestProbeLeavesProgressingVictimsWaiters(t *testing.T) {
	head := glt.NewPolicyUnit(10, 0)
	cont := glt.NewPolicyContinuation(11, 0)
	p, waiter := probeLayout(head, cont, glt.NewPolicyUnit(12, 0))
	p.Push(1, 1, waiter)
	freshCame := false
	for i := 0; i < 64; i++ {
		u := p.Pop(1)
		switch {
		case u == cont:
			t.Fatalf("pop %d: the progressing victim's continuation was stolen", i)
		case u == head:
			freshCame = true
		}
		// Stream 0's owner makes progress while stream 1 runs u.
		p.Push(0, 0, glt.NewPolicyUnit(-1, 0))
		if v := p.Pop(0); v != nil && v.Started() {
			p.Push(0, 0, v)
		}
		if u != nil && u.Started() {
			p.Push(1, 1, u)
		}
	}
	if !freshCame {
		t.Error("the fresh unit at a progressing victim's steal end never came over")
	}
}

// TestEngineIdleStealRescuesBurst runs the real engine: a burst spawned onto
// one stream while the others are idle must spread across streams, and the
// spreading must go through the engine's idle-path Stealer hook — ws's Pop
// never raids for an empty stream, so Stats.IdleSteals is the mechanism,
// not a vestige.
func TestEngineIdleStealRescuesBurst(t *testing.T) {
	rt, err := glt.New(glt.Config{Backend: "ws", NumThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	w := glttest.NewSpread()
	busy := rt.Spawn(0, func(c *glt.Ctx) {
		w.Mark(c.Rank())
		kids := make([]*glt.Unit, 256)
		for i := range kids {
			kids[i] = c.Spawn(func(c2 *glt.Ctx) { w.Ran(c2.Rank()) })
		}
		c.JoinAll(kids)
	})
	busy.Join()
	if w.Streams() < 2 {
		t.Error("no work was stolen from the loaded stream under ws")
	}
	if s := rt.Stats(); s.IdleSteals == 0 {
		t.Error("IdleSteals = 0: the rescue did not go through the engine's Stealer idle path")
	}
}

// TestSharedPoolFIFOAcrossSegments drives the lock-free shared pool
// single-threaded through several segment boundaries: a burst larger than
// one segment, singles that land mid-segment, and full drains in between.
// Sequential FIFO order must hold exactly — that is the ordering the
// BatchEquivalence/shared conformance subtest relies on.
func TestSharedPoolFIFOAcrossSegments(t *testing.T) {
	p := newSharedPool()
	next := 0
	expect := 0
	pushN := func(n int) {
		units := make([]*glt.Unit, n)
		for i := range units {
			units[i] = glt.NewPolicyUnit(next, 0)
			next++
		}
		p.pushAll(units)
	}
	drain := func(n int) {
		for i := 0; i < n; i++ {
			u := p.pop()
			if u == nil {
				t.Fatalf("pool empty at unit %d of a %d-unit drain", i, n)
			}
			if u.Tag() != expect {
				t.Fatalf("popped tag %d, want %d (FIFO violated)", u.Tag(), expect)
			}
			expect++
		}
	}
	pushN(3 * sharedSegSize) // one burst spanning several segments
	drain(sharedSegSize / 2)
	for i := 0; i < sharedSegSize; i++ { // singles crossing a boundary
		p.push(glt.NewPolicyUnit(next, 0))
		next++
	}
	pushN(sharedSegSize + 7) // a burst that straddles a partial segment
	drain(next - expect)
	if u := p.pop(); u != nil {
		t.Fatalf("drained pool popped tag %d", u.Tag())
	}
	// The pool must be reusable after a full drain (head caught up to tail
	// through the whole chain).
	pushN(5)
	drain(5)
}

// TestSharedPoolConcurrentExactlyOnce hammers the shared pool with every
// rank producing and consuming at once — the §IV-F all-streams-one-pool
// shape — and checks exactly-once delivery across the segment chain. The
// claimed-slot CAS protocol and the no-wraparound segment design are what
// make this hold without a mutex; under -race (CI) the detector also sees
// the producers' stores against the consumers' claims.
func TestSharedPoolConcurrentExactlyOnce(t *testing.T) {
	const workers, perWorker = 4, 512
	const total = workers * perWorker
	p := newSharedPool()
	seen := make([]atomic.Int32, total)
	var surfaced atomic.Int32
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := w * perWorker
			pushed := 0
			for pushed < perWorker || !stop.Load() {
				if pushed < perWorker {
					if pushed%3 == 0 {
						burst := 17
						if rem := perWorker - pushed; burst > rem {
							burst = rem
						}
						units := make([]*glt.Unit, burst)
						for i := range units {
							units[i] = glt.NewPolicyUnit(tag, 0)
							tag++
						}
						p.pushAll(units)
						pushed += burst
					} else {
						p.push(glt.NewPolicyUnit(tag, 0))
						tag++
						pushed++
					}
				}
				if u := p.pop(); u != nil {
					seen[u.Tag()].Add(1)
					if surfaced.Add(1) == total {
						stop.Store(true)
					}
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

// TestInboxFIFOPerProducer drives the lock-free inbox directly: several
// producers publish disjoint ascending tag ranges through a mix of put and
// putAll, and a single consumer popping the drained queue must observe each
// producer's tags in submission order (concurrent producers may interleave
// at reservation granularity, so only the per-producer order is asserted),
// with every tag surfacing exactly once.
func TestInboxFIFOPerProducer(t *testing.T) {
	const producers, perProducer = 4, 300
	var box inbox
	box.init()
	var wg sync.WaitGroup
	for prod := 0; prod < producers; prod++ {
		prod := prod
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := prod * perProducer
			for pushed := 0; pushed < perProducer; {
				if pushed%2 == 0 {
					burst := 7 // odd: runs straddle segment boundaries at shifting offsets
					if rem := perProducer - pushed; burst > rem {
						burst = rem
					}
					run := make([]*glt.Unit, burst)
					for i := range run {
						run[i] = glt.NewPolicyUnit(tag, 0)
						tag++
					}
					box.putAll(run)
					pushed += burst
				} else {
					box.put(glt.NewPolicyUnit(tag, 0))
					tag++
					pushed++
				}
			}
		}()
	}
	wg.Wait()
	if got := box.size(); got != producers*perProducer {
		t.Fatalf("resident estimate %d after all publications, want %d", got, producers*perProducer)
	}
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	seen := 0
	for {
		u := box.pop()
		if u == nil {
			break
		}
		prod := u.Tag() / perProducer
		if u.Tag() <= last[prod] {
			t.Fatalf("producer %d: tag %d surfaced after tag %d", prod, u.Tag(), last[prod])
		}
		last[prod] = u.Tag()
		seen++
	}
	if seen != producers*perProducer {
		t.Fatalf("popped %d units, want %d", seen, producers*perProducer)
	}
	if got := box.size(); got != 0 {
		t.Fatalf("resident estimate %d after full drain, want 0", got)
	}
}

// TestInboxConcurrentExactlyOnce races put, putAll and pop on one inbox —
// the owner's drain and a thief's raid are both just concurrent pop callers,
// so this is the full interleaving the old mutex used to serialize. Every
// unit must surface exactly once; a pop overlapping an in-flight publication
// may observe the inbox empty (the consumers retry), which is the same
// spurious-empty contract the shared pool documents.
func TestInboxConcurrentExactlyOnce(t *testing.T) {
	const producers, consumers, perProducer = 3, 3, 400
	const total = producers * perProducer
	var box inbox
	box.init()
	seen := make([]atomic.Int32, total)
	var surfaced atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for surfaced.Load() < total {
				u := box.pop()
				if u == nil {
					runtime.Gosched()
					continue
				}
				seen[u.Tag()].Add(1)
				surfaced.Add(1)
			}
		}()
	}
	for prod := 0; prod < producers; prod++ {
		prod := prod
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := prod * perProducer
			for pushed := 0; pushed < perProducer; {
				if pushed%2 == 0 {
					burst := 11
					if rem := perProducer - pushed; burst > rem {
						burst = rem
					}
					run := make([]*glt.Unit, burst)
					for i := range run {
						run[i] = glt.NewPolicyUnit(tag, 0)
						tag++
					}
					box.putAll(run)
					pushed += burst
				} else {
					box.put(glt.NewPolicyUnit(tag, 0))
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

// TestNoMutexOnStreamPaths is the white-box half of the "no lock on the
// submit/steal/yield path" claim: the scheduling state reachable from a
// stream — deque, inbox, shared pool — must contain no sync.Mutex (or any
// sync.Locker) field at any nesting depth. The dynamic half is the -race
// conformance suite; this guard keeps a future edit from quietly
// reintroducing a lock under a refactored name.
func TestNoMutexOnStreamPaths(t *testing.T) {
	pkg := reflect.TypeOf(stream{}).PkgPath()
	mutexes := []reflect.Type{
		reflect.TypeOf(sync.Mutex{}),
		reflect.TypeOf(sync.RWMutex{}),
	}
	var walk func(typ reflect.Type, path string, visited map[reflect.Type]bool)
	walk = func(typ reflect.Type, path string, visited map[reflect.Type]bool) {
		for typ.Kind() == reflect.Ptr || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || visited[typ] {
			return
		}
		for _, m := range mutexes {
			if typ == m {
				t.Errorf("%s is a %v", path, m)
				return
			}
		}
		// Descend only into this package's structs: glt.Unit is payload, not
		// scheduling state, and the sync/atomic wrappers are the primitives
		// the claim permits.
		if typ.PkgPath() != pkg {
			return
		}
		visited[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			walk(f.Type, path+"."+f.Name, visited)
		}
	}
	walk(reflect.TypeOf(stream{}), "stream", map[reflect.Type]bool{})
	walk(reflect.TypeOf(sharedPool{}), "sharedPool", map[reflect.Type]bool{})
}
