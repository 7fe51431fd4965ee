package omp

// White-box tests for the pooled explicit-task lifecycle: descriptor
// recycling must never alias a node that any party still references — the
// parent a running child will dereference, the node a body is executing
// under, the entries of a producer-side overflow ring. Generations stamp
// every recycle, so the tests can assert "this node was not recycled while I
// held it" directly; run under -race (CI does) they also give the detector
// real concurrent recycling traffic to chew on.

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// recycleEngine is a minimal EngineOps: a shared LIFO task queue plus the
// team's overflow-ring raid, enough to drive buffering, stealing, waiting
// and recycling without importing a real runtime package.
type recycleEngine struct {
	mu sync.Mutex
	q  []*TaskNode
}

func (e *recycleEngine) Inline(*TC, *TaskNode) bool { return false }

func (e *recycleEngine) Enqueue(_ *Team, nodes []*TaskNode, _ int, _ any) {
	e.mu.Lock()
	e.q = append(e.q, nodes...)
	e.mu.Unlock()
}

func (e *recycleEngine) TryRunTask(tc *TC) bool {
	e.mu.Lock()
	var node *TaskNode
	if n := len(e.q); n > 0 {
		node = e.q[n-1]
		e.q[n-1] = nil
		e.q = e.q[:n-1]
	}
	e.mu.Unlock()
	if node == nil {
		// Queue dry: raid the overflow rings, as the real engines' hunt does.
		if node, _ = tc.raid(); node == nil {
			return false
		}
	}
	execTask(tc, node)
	return true
}

func (e *recycleEngine) Taskyield(tc *TC) {}

func (e *recycleEngine) Nested(tc *TC, t *Team) { t.Run(0, e, nil) }

func (e *recycleEngine) Idle(tc *TC) { runtime.Gosched() }

// TestTaskDescriptorRecycling spawns task trees (children and grandchildren,
// buffered, stolen and recycled) across repeatedly recycled team descriptors
// and asserts that no node's generation ever advances while a live reference
// holds it:
//
//   - a running child observes its parent's generation unchanged (the parent
//     may have *finished*, but a child reference pins the descriptor);
//   - a task observes its own generation unchanged across a taskwait for its
//     children (the execution reference pins it);
//
// while the recycled generations — the same slots re-serving new tasks with
// bumped stamps — prove the pool is actually cycling rather than leaking.
func TestTaskDescriptorRecycling(t *testing.T) {
	const (
		regions = 25
		ranks   = 4
		perRank = 12
	)
	e := &recycleEngine{}
	var violations atomic.Int64
	body := func(tc *TC) {
		for i := 0; i < perRank; i++ {
			parent := tc.CurTask()
			pgen := parent.Generation()
			tc.Task(func(ttc *TC) {
				self := ttc.CurTask()
				sgen := self.Generation()
				if parent.Generation() != pgen {
					violations.Add(1) // parent recycled under a live child
				}
				ttc.Task(func(*TC) {
					if self.Generation() != sgen {
						violations.Add(1) // node recycled under a live grandchild's parent ref
					}
				})
				ttc.Taskwait()
				if self.Generation() != sgen {
					violations.Add(1) // node recycled while still executing
				}
			})
		}
		tc.Taskwait()
	}
	team := NewTeam(ranks, 0, Config{NumThreads: ranks, TaskBuffer: 8}.WithDefaults(), body)
	for r := 0; r < regions; r++ {
		if r > 0 {
			team.prepare(ranks, 0, team.Cfg, body)
		}
		var wg sync.WaitGroup
		for rank := 0; rank < ranks; rank++ {
			rank := rank
			wg.Add(1)
			go func() {
				defer wg.Done()
				team.Run(rank, e, nil)
			}()
		}
		wg.Wait()
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d generation violations: recycled task descriptors aliased live references", n)
	}
	// The pool must really be recycling: after 25 regions x 4 ranks x 36
	// tasks, the shards hold warmed slots whose generations have advanced,
	// on their free lists or still on their returned stacks.
	var pooled, recycled int
	for i := range team.taskPools {
		sh := &team.taskPools[i]
		sh.mu.Lock()
		for _, head := range []*taskSlot{sh.free, sh.returned.Load()} {
			for s := head; s != nil; s = s.next {
				pooled++
				if s.node.Generation() > 0 {
					recycled++
				}
			}
		}
		sh.mu.Unlock()
	}
	if pooled == 0 {
		t.Fatal("no pooled task descriptors after a task storm: the free lists never filled")
	}
	if recycled == 0 {
		t.Fatal("no pooled descriptor carries an advanced generation: recycling never happened")
	}
	t.Logf("%d pooled slots, %d with recycled generations", pooled, recycled)
}

// TestTaskRingClaimExactlyOnce drives the overflow ring directly: one
// producer, several CAS-claiming consumers, every pushed node claimed
// exactly once, across enough traffic to wrap the ring many times.
func TestTaskRingClaimExactlyOnce(t *testing.T) {
	const (
		capacity  = 64
		total     = 20000
		consumers = 4
	)
	var resident atomic.Int64
	r := newTaskRing(capacity, &resident)
	nodes := make([]TaskNode, total)
	claimed := make([]atomic.Int32, total)
	var got atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < total {
				n := r.claim()
				if n == nil {
					runtime.Gosched()
					continue
				}
				claimed[n.CreatedBy].Add(1)
				got.Add(1)
			}
		}()
	}
	for i := range nodes {
		nodes[i].CreatedBy = i
		for r.size() >= capacity {
			runtime.Gosched() // ring full: wait for consumers
		}
		r.push(&nodes[i])
	}
	wg.Wait()
	for i := range claimed {
		if n := claimed[i].Load(); n != 1 {
			t.Fatalf("node %d claimed %d times", i, n)
		}
	}
	if n := resident.Load(); n != 0 {
		t.Fatalf("resident gate reads %d after full drain, want 0", n)
	}
}

// TestTaskSlotDrawReturnExactlyOnce drives one rank's descriptor pool
// directly: two goroutines draw for the same rank at once (GLTO over ws or
// mth can migrate a member, so two drawers can share a rank) while several
// others return the drawn slots. No slot may be handed out twice while live,
// every redraw must carry the generation its last return advanced to, and
// the census must come back to its baseline once every slot is returned.
func TestTaskSlotDrawReturnExactlyOnce(t *testing.T) {
	const (
		drawers   = 2
		releasers = 4
		perDrawer = 5000
	)
	EnableTaskSlotCensus(true)
	defer EnableTaskSlotCensus(false)
	base := LiveTaskSlots()
	team := NewTeam(2, 0, Config{NumThreads: 2}.WithDefaults(), func(*TC) {})

	// Per-slot witness: live while drawn, and the generation the slot's last
	// return advanced it to.
	type witness struct {
		live atomic.Bool
		gen  atomic.Uint32
	}
	var seen sync.Map // *TaskNode -> *witness
	var twice, staleGen, recycledDraws atomic.Int64
	ch := make(chan *TaskNode, 64)

	var rel sync.WaitGroup
	for r := 0; r < releasers; r++ {
		rel.Add(1)
		go func() {
			defer rel.Done()
			for n := range ch {
				w, _ := seen.Load(n)
				w.(*witness).gen.Store(n.Generation() + 1)
				w.(*witness).live.Store(false)
				n.Release()
			}
		}()
	}
	var draw sync.WaitGroup
	for d := 0; d < drawers; d++ {
		draw.Add(1)
		go func() {
			defer draw.Done()
			for i := 0; i < perDrawer; i++ {
				n := team.getTaskSlot(0)
				v, _ := seen.LoadOrStore(n, new(witness))
				w := v.(*witness)
				if !w.live.CompareAndSwap(false, true) {
					twice.Add(1) // drawn again before its return
				}
				if g := n.Generation(); g != w.gen.Load() {
					staleGen.Add(1)
				} else if g > 0 {
					recycledDraws.Add(1)
				}
				n.reset(0)
				ch <- n
			}
		}()
	}
	draw.Wait()
	close(ch)
	rel.Wait()

	if n := twice.Load(); n != 0 {
		t.Fatalf("%d draws handed out a slot that was still live", n)
	}
	if n := staleGen.Load(); n != 0 {
		t.Fatalf("%d draws returned a slot whose generation is not the one its last return set", n)
	}
	if recycledDraws.Load() == 0 {
		t.Fatal("no draw carried an advanced generation: returned slots were never redrawn")
	}
	if live := LiveTaskSlots(); live != base {
		t.Fatalf("census reads %d live slots after every return, want %d", live, base)
	}
	t.Logf("%d draws, %d of recycled slots", drawers*perDrawer, recycledDraws.Load())
}

// TestParentRefsAcrossChildrenAndRetain pins the parent's half of the
// reference protocol: a parent with N children, whose own execution
// reference and children drop in random order while a tracer-style Retain
// outlives them all. Children() must count down exactly as children finish,
// the parent's generation must hold while any reference does, and the parent
// must recycle exactly once, when the Retain drops last. A second phase
// finishes the children concurrently.
func TestParentRefsAcrossChildrenAndRetain(t *testing.T) {
	const (
		kids   = 16
		rounds = 40
	)
	EnableTaskSlotCensus(true)
	defer EnableTaskSlotCensus(false)
	team := NewTeam(1, 0, Config{NumThreads: 1}.WithDefaults(), func(*TC) {})
	top := NewTC(team, 0, nil, nil, nil)
	rng := rand.New(rand.NewPCG(1, 2))

	// spawn prepares a parent and its children, then takes the Retain.
	spawn := func() (parent *TaskNode, children []*TaskNode) {
		parent = PrepareTask(top, func(*TC) {})
		ptc := &TC{team: team, num: 0, cur: parent}
		for i := 0; i < kids; i++ {
			children = append(children, PrepareTask(ptc, func(*TC) {}))
			if got := parent.Children(); got != int64(i+1) {
				t.Fatalf("Children() = %d after %d creations", got, i+1)
			}
		}
		parent.Retain()
		return parent, children
	}
	// settle drops the Retain and checks the parent recycled exactly once.
	settle := func(parent *TaskNode, gen uint32, base int64) {
		if got := parent.Generation(); got != gen {
			t.Fatalf("parent generation moved %d -> %d under a Retain", gen, got)
		}
		parent.Release()
		if got := parent.Generation(); got != gen+1 {
			t.Fatalf("parent generation %d -> %d after the last reference, want one recycle", gen, got)
		}
		if live := LiveTaskSlots(); live != base {
			t.Fatalf("census reads %d live slots after the last drop, want %d", live, base)
		}
	}

	for round := 0; round < rounds; round++ {
		base := LiveTaskSlots()
		parent, children := spawn()
		gen := parent.Generation()
		left := kids
		for _, k := range rng.Perm(kids + 1) {
			if k == kids {
				FinishTask(team, parent) // the parent's execution reference
			} else {
				FinishTask(team, children[k])
				left--
			}
			if got := parent.Children(); got != int64(left) {
				t.Fatalf("round %d: Children() = %d, want %d", round, got, left)
			}
			if got := parent.Generation(); got != gen {
				t.Fatalf("round %d: parent recycled (generation %d -> %d) while referenced", round, gen, got)
			}
			if live := LiveTaskSlots() - base; live != int64(left+1) {
				t.Fatalf("round %d: %d live slots with %d children left, want %d", round, live, left, left+1)
			}
		}
		settle(parent, gen, base)
	}

	for round := 0; round < rounds; round++ {
		base := LiveTaskSlots()
		parent, children := spawn()
		gen := parent.Generation()
		var wg sync.WaitGroup
		for _, c := range children {
			wg.Add(1)
			go func() {
				defer wg.Done()
				FinishTask(team, c)
			}()
		}
		FinishTask(team, parent)
		wg.Wait()
		if got := parent.Children(); got != 0 {
			t.Fatalf("round %d: Children() = %d after every child finished", round, got)
		}
		settle(parent, gen, base)
	}
}
