// Package gomp implements a GNU-libgomp-like OpenMP runtime over the shared
// pthread engine (internal/ptpool), registered with the omp front end as
// "gomp". It owns the two mechanisms that set GNU apart in the paper:
//
//   - Explicit tasks go to a single queue shared by the whole team, GNU's
//     documented design (§III-A); a foreign pop from it is the runtime's
//     whole work distribution.
//   - Nested parallel regions create a *fresh* team of pthreads for every
//     inner region and destroy it afterwards — "this approach does not reuse
//     idle threads" (§VI-D) — which, at 36 outer threads and 100 inner
//     regions, creates the 3,536 OS threads of Table II and the order-of-
//     magnitude slowdown of Figs. 8 and 9.
package gomp

import (
	"sync"
	"sync/atomic"

	"repro/internal/pthread"
	"repro/internal/ptpool"
	"repro/omp"
)

func init() {
	omp.RegisterRuntime("gomp", func(cfg omp.Config) (omp.Runtime, error) {
		return New(cfg)
	})
}

// Runtime is the GNU-like OpenMP runtime.
type Runtime struct {
	*ptpool.Engine
}

// New builds a runtime with the given configuration.
func New(cfg omp.Config) (*Runtime, error) {
	rt := &Runtime{}
	rt.Engine = ptpool.NewEngine(cfg, rt, Queue{})
	return rt, nil
}

// Name reports "gomp".
func (rt *Runtime) Name() string { return "gomp" }

// Nested creates a brand-new pthread team for the inner region and destroys
// it afterwards. The encountering thread is rank 0 of the inner team; ranks
// 1..n-1 are fresh OS threads, created and thrown away per region — the
// deliberate Table II cost. The team descriptor itself arrives pooled from
// the front end.
func (rt *Runtime) Nested(tc *omp.TC, team *omp.Team) {
	threads := make([]*pthread.Thread, team.Size-1)
	for i := range threads {
		rank := i + 1
		rt.Counters.ThreadsCreated.Add(1)
		threads[i] = pthread.Create(func() {
			team.Run(rank, rt, nil)
		})
	}
	team.Run(0, rt, nil)
	for _, th := range threads {
		th.Join()
	}
}

// Queue is GNU's task queue: one FIFO shared by the whole team (§III-A: "the
// GNU version implements a single shared task queue for all the threads").
// A task claimed by a thread other than its creator counts as a steal, a
// degenerate one-stop tour, which is exactly how Fig. 7 accounts the
// centralized-queue runtime's work distribution.
type Queue struct{}

// teamTasks is a team's shared queue. It survives team-descriptor recycling
// (the queue is drained at every region's end barrier), so steady-state
// tasking reuses its backing array.
//
// The per-rank release slots bolt a locality fast path onto the centralized
// design: a dependence release with a hot rank parks the successor in that
// rank's mailbox, raided before the shared queue, so the releasing thread
// picks its successor back up without touching the queue lock at all.
type teamTasks struct {
	mu sync.Mutex
	q  []*omp.TaskNode
	// rel is the per-rank release-slot directory, allocated on the first hot
	// release and sized to the team at that moment; a later, larger team
	// wraps (hot % len), which only blurs the locality hint — any member may
	// claim any slot, own slot first. relCount gates the claim sweeps so
	// dependence-free phases pay one atomic load.
	rel      atomic.Pointer[[]relSlot]
	relCount atomic.Int64
}

// relSlot is one rank's release mailbox, padded to a cache line so a
// releaser's CAS does not false-share with its neighbours.
type relSlot struct {
	p atomic.Pointer[omp.TaskNode]
	_ [56]byte
}

func newTeamTasks() any { return &teamTasks{} }

func tasksOf(team *omp.Team) *teamTasks {
	return team.EngineData(newTeamTasks).(*teamTasks)
}

// slotsFor returns the release-slot directory, allocating it (sized to the
// current team) on first use.
func (ts *teamTasks) slotsFor(size int) []relSlot {
	if p := ts.rel.Load(); p != nil {
		return *p
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if p := ts.rel.Load(); p != nil {
		return *p
	}
	s := make([]relSlot, size)
	ts.rel.Store(&s)
	return s
}

// claimRelease claims one parked-then-released task from the slot directory,
// starting at rank num's own slot; with sweep false only that slot is
// probed (the hot fast path), with sweep true the whole directory is toured
// (the idle/barrier drain that keeps slotted work from stranding).
func (ts *teamTasks) claimRelease(num int, sweep bool) *omp.TaskNode {
	if ts.relCount.Load() == 0 {
		return nil // nonzero only once Push has allocated the directory
	}
	slots := *ts.rel.Load()
	n := len(slots)
	limit := 1
	if sweep {
		limit = n
	}
	for i := 0; i < limit; i++ {
		s := &slots[(num+i)%n]
		if node := s.p.Load(); node != nil && s.p.CompareAndSwap(node, nil) {
			ts.relCount.Add(-1)
			return node
		}
	}
	return nil
}

func (ts *teamTasks) append(nodes ...*omp.TaskNode) {
	ts.mu.Lock()
	ts.q = append(ts.q, nodes...)
	ts.mu.Unlock()
}

// oneStop is the queue's steal accounting: a claim of another thread's task
// is a one-stop tour.
func oneStop(tc *omp.TC, node *omp.TaskNode) (*omp.TaskNode, int) {
	if node == nil || node.CreatedBy == tc.ThreadNum() {
		return node, 0
	}
	return node, 1
}

// Push appends the nodes to the shared queue, which every rank pushes to —
// except a task released on a hot rank, parked in that rank's release slot:
// claimed by the releasing thread ahead of the shared queue, no lock. It
// falls back to the shared queue when the slot is still occupied (the
// releaser is running ahead of its own consumption). Every member's hunt
// sweeps the slots once the queue runs dry, so a slotted task is no less
// visible than a queued one.
func (Queue) Push(team *omp.Team, nodes []*omp.TaskNode, hot int) {
	ts := tasksOf(team)
	if hot >= 0 {
		slots := ts.slotsFor(team.Size)
		if s := &slots[hot%len(slots)]; s.p.CompareAndSwap(nil, nodes[0]) {
			ts.relCount.Add(1)
			return
		}
	}
	ts.append(nodes...)
}

// Pop claims the caller's own release slot — a successor the thread itself
// just released is the hottest work available, one CAS and no lock — and
// then the head of the shared queue.
func (Queue) Pop(tc *omp.TC) (*omp.TaskNode, int) {
	ts := tasksOf(tc.Team())
	if node := ts.claimRelease(tc.ThreadNum(), false); node != nil {
		return oneStop(tc, node)
	}
	ts.mu.Lock()
	if len(ts.q) == 0 {
		ts.mu.Unlock()
		return nil, 0
	}
	node := ts.q[0]
	copy(ts.q, ts.q[1:])
	ts.q[len(ts.q)-1] = nil
	ts.q = ts.q[:len(ts.q)-1]
	ts.mu.Unlock()
	return oneStop(tc, node)
}

// Steal tours the other ranks' release slots, so hot-parked work cannot
// strand behind an already-busy releaser.
func (Queue) Steal(tc *omp.TC, _ *omp.Counters) (*omp.TaskNode, int) {
	return oneStop(tc, tasksOf(tc.Team()).claimRelease(tc.ThreadNum(), true))
}

// Backlog is -1: GNU's queue applies no cut-off.
func (Queue) Backlog(*omp.Team, int) int { return -1 }
