package omp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChainDepthBound pins the stack discipline of release-to-self chaining:
// a 1-wide InOut chain of N tasks is the worst case — every completion
// releases exactly one ready successor, so an unbounded implementation would
// recurse N deep. With the depth cap (Config.EffectiveDepChain), inline
// chains must stop at the cap and hand the next link back to the engine, so
// the deepest call stack observed inside any task body stays a small
// constant regardless of N. The chain's creation-order execution and the
// exact task count double as the correctness assertions, and the tracer
// counters prove both chain links (DepChained) and chain boundaries
// (DepLocal: the budget-exhausted hand-off carries the hot rank) fired.
func TestChainDepthBound(t *testing.T) {
	const n = 512
	ct := &CountingTracer{}
	prev := SetTracer(ct)
	defer SetTracer(prev)

	e := &recycleEngine{}
	var tok int
	var next atomic.Int64
	var violations atomic.Int64
	var maxFrames atomic.Int64
	pcs := make([]uintptr, 8192)
	body := func(tc *TC) {
		if tc.ThreadNum() != 0 {
			return
		}
		for i := 0; i < n; i++ {
			i := i
			tc.Task(func(*TC) {
				if !next.CompareAndSwap(int64(i), int64(i+1)) {
					violations.Add(1)
				}
				frames := int64(runtime.Callers(0, pcs))
				for {
					m := maxFrames.Load()
					if frames <= m || maxFrames.CompareAndSwap(m, frames) {
						break
					}
				}
			}, InOut(&tok))
		}
		tc.Taskwait()
	}
	team := NewTeam(1, 0, Config{NumThreads: 1, TaskBuffer: 4}.WithDefaults(), body)
	team.Run(0, e, nil)

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d chain-order violations (chained successor ran out of creation order)", v)
	}
	if got := next.Load(); got != n {
		t.Fatalf("ran %d chain links, want %d", got, n)
	}
	// An unbounded chain would stack ~n release frames (thousands of PCs); a
	// capped one stays at base + EffectiveDepChain recursion levels. The
	// bound is deliberately loose — it discriminates constant from linear.
	if m := maxFrames.Load(); m > 300 {
		t.Fatalf("deepest task-body stack has %d frames — chaining recursion is not depth-bounded", m)
	}
	if ct.DepChained.Load() == 0 {
		t.Fatal("no release was chained: the 1-wide chain should run inline up to the depth cap")
	}
	if ct.DepLocal.Load() == 0 {
		t.Fatal("no chain boundary dispatched hot: budget exhaustion should fall back to Enqueue with the releaser's rank")
	}
	if ct.DepReleases.Load() != n-1 {
		t.Fatalf("DepReleases = %d, want %d (every link but the head parked once)", ct.DepReleases.Load(), n-1)
	}
}

// TestChainDepthConfigurable pins the OMP_DEP_CHAIN escape hatch at the
// Config level: with DepChain negative, EffectiveDepChain is zero and no
// release may run inline — the pre-chaining dispatch path, byte for byte.
func TestChainDepthConfigurable(t *testing.T) {
	ct := &CountingTracer{}
	prev := SetTracer(ct)
	defer SetTracer(prev)

	e := &recycleEngine{}
	var tok int
	var ran atomic.Int64
	body := func(tc *TC) {
		if tc.ThreadNum() != 0 {
			return
		}
		for i := 0; i < 64; i++ {
			tc.Task(func(*TC) { ran.Add(1) }, InOut(&tok))
		}
		tc.Taskwait()
	}
	cfg := Config{NumThreads: 1, TaskBuffer: 4, DepChain: -1}.WithDefaults()
	if got := cfg.EffectiveDepChain(); got != 0 {
		t.Fatalf("EffectiveDepChain() = %d with DepChain=-1, want 0", got)
	}
	team := NewTeam(1, 0, cfg, body)
	team.Run(0, e, nil)
	if got := ran.Load(); got != 64 {
		t.Fatalf("ran %d tasks, want 64", got)
	}
	if ct.DepChained.Load() != 0 {
		t.Fatalf("%d releases chained with chaining disabled", ct.DepChained.Load())
	}
	if ct.DepLocal.Load() == 0 {
		t.Fatal("disabled chaining must still dispatch hot (local), not silently lose the rank hint")
	}
}

// TestChainedRunVsRecycling is the -race white-box stress for inline
// execution: dependence chains whose successors run INLINE on whichever rank
// dropped the predecessor's last reference, racing descriptor recycling
// across repeated team generations — the same discipline
// TestDependReleaseVsRecycling certifies for the queued release path, now
// with the releasing thread re-entering execTask machinery mid-release.
// Fillers keep the descriptor pool churning so a chained node's slot is
// reissued while other chains are still releasing into it.
func TestChainedRunVsRecycling(t *testing.T) {
	const (
		regions = 40
		ranks   = 4
		chains  = 6
		depth   = 12
	)
	ct := &CountingTracer{}
	prev := SetTracer(ct)
	defer SetTracer(prev)

	e := &recycleEngine{}
	var violations, ran atomic.Int64
	var toks [chains]int
	body := func(tc *TC) {
		if tc.ThreadNum() == 0 {
			prog := make([]atomic.Int64, chains)
			for d := 0; d < depth; d++ {
				d := d
				for c := 0; c < chains; c++ {
					c := c
					// Alternating priorities exercise the best-successor
					// selection in the release walk alongside the chaining.
					tc.Task(func(*TC) {
						ran.Add(1)
						if !prog[c].CompareAndSwap(int64(d), int64(d+1)) {
							violations.Add(1)
						}
					}, InOut(&toks[c]), Priority(c%4))
					tc.Task(func(*TC) { ran.Add(1) }) // depend-free recycler churn
				}
			}
			tc.Taskwait()
			for c := 0; c < chains; c++ {
				if prog[c].Load() != depth {
					violations.Add(1)
				}
			}
		} else {
			// Consumers execute released/stolen tasks, so chains ignite on
			// foreign ranks and run inline there while rank 0 registers new
			// edges against recycled slots.
			for i := 0; i < 200; i++ {
				if !e.TryRunTask(tc) {
					runtime.Gosched()
				}
			}
		}
	}
	const perRegion = chains * depth * 2
	team := NewTeam(ranks, 0, Config{NumThreads: ranks, TaskBuffer: 4}.WithDefaults(), body)
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
		t.Fatalf("%d dependence-order violations with inline chaining across recycled generations", n)
	}
	if got, want := ran.Load(), int64(regions*perRegion); got != want {
		t.Fatalf("ran %d tasks, want %d (parked task leaked or double-ran)", got, want)
	}
	if ct.DepChained.Load() == 0 {
		t.Fatal("stress never chained a release — the inline path went untested")
	}
}

// TestPriorityDrainOrder pins the ring-drain half of omp.Priority: a
// takeBuffered drain hands the engine the burst highest-priority-first
// (stable within a level), while an all-default burst keeps pure FIFO order
// and never pays the sort.
func TestPriorityDrainOrder(t *testing.T) {
	e := &recycleEngine{}
	team := NewTeam(1, 0, Config{NumThreads: 1, TaskBuffer: 16}.WithDefaults(), nil)
	tc := NewTC(team, 0, e, nil, nil)
	mk := func(pri int) *TaskNode {
		return PrepareTask(tc, func(*TC) {}, Priority(pri))
	}
	for _, pri := range []int{0, 2, 7, 1, 2, 0} {
		tc.bufferTask(mk(pri), 16)
	}
	got := tc.takeBuffered()
	want := []int{7, 2, 2, 1, 0, 0}
	for i, n := range got {
		if n.Priority() != want[i] {
			t.Fatalf("drain position %d has priority %d, want %d", i, n.Priority(), want[i])
		}
	}
	// Clamping: out-of-range hints saturate instead of wrapping.
	if p := PrepareTask(tc, func(*TC) {}, Priority(99)).Priority(); p != MaxTaskPriority {
		t.Fatalf("Priority(99) = %d, want clamp to %d", p, MaxTaskPriority)
	}
	if p := PrepareTask(tc, func(*TC) {}, Priority(-3)).Priority(); p != 0 {
		t.Fatalf("Priority(-3) = %d, want clamp to 0", p)
	}
}
