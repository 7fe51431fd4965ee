package ptpool_test

// The TaskQueue conformance table: both pthread queue variants — gomp's
// shared FIFO with per-rank release slots and iomp's per-rank deques — run
// the same scripted cases on a hand-built team, outside any region, so each
// case decides exactly which rank flushes, spawns, releases, pops and steals. A case's
// observations are written as label/visited ("-" when nothing was claimed)
// and backlog counts, and each variant states what it must observe.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gomp"
	"repro/internal/iomp"
	"repro/internal/ptpool"
	"repro/omp"
)

var queueVariants = []struct {
	name string
	q    ptpool.TaskQueue
}{
	{"gomp", gomp.Queue{}},
	{"iomp", iomp.Queue{}},
}

// qteam is a hand-built team of n ranks, one TC each, over queue q.
type qteam struct {
	q     ptpool.TaskQueue
	team  *omp.Team
	tcs   []*omp.TC
	c     omp.Counters
	names map[*omp.TaskNode]string
	obs   []string
}

func newQTeam(q ptpool.TaskQueue, n int) *qteam {
	h := &qteam{q: q, team: omp.NewTeam(n, 0, omp.Config{NumThreads: n}, nil), names: map[*omp.TaskNode]string{}}
	for r := 0; r < n; r++ {
		h.tcs = append(h.tcs, omp.NewTC(h.team, r, nil, nil, nil))
	}
	return h
}

func (h *qteam) node(label string, createdBy int) *omp.TaskNode {
	n := &omp.TaskNode{CreatedBy: createdBy}
	h.names[n] = label
	return n
}

// push flushes a burst of tasks created by rank.
func (h *qteam) push(rank int, labels ...string) {
	var nodes []*omp.TaskNode
	for _, l := range labels {
		nodes = append(nodes, h.node(l, rank))
	}
	h.q.Push(h.team, nodes, -1)
}

// place queues one task: an unbuffered spawn (hot -1) or a release on hot.
func (h *qteam) place(label string, createdBy, hot int) {
	h.q.Push(h.team, []*omp.TaskNode{h.node(label, createdBy)}, hot)
}

func (h *qteam) claimed(op string, rank int, n *omp.TaskNode, visited int) {
	label := "-"
	if n != nil {
		label = h.names[n]
	}
	h.obs = append(h.obs, fmt.Sprintf("%s%d=%s/%d", op, rank, label, visited))
}

func (h *qteam) pop(rank int) {
	n, v := h.q.Pop(h.tcs[rank])
	h.claimed("pop", rank, n, v)
}

func (h *qteam) steal(rank int) {
	n, v := h.q.Steal(h.tcs[rank], &h.c)
	h.claimed("steal", rank, n, v)
}

func (h *qteam) backlog(rank int) {
	h.obs = append(h.obs, fmt.Sprintf("b%d=%d", rank, h.q.Backlog(h.team, rank)))
}

var queueCases = []struct {
	name string
	size int
	run  func(h *qteam)
	// want maps each variant to its observations, and attempts to the
	// StealAttempts its steals credit.
	want     map[string]string
	attempts map[string]int64
}{
	{
		// Own pop: FIFO on the shared queue, LIFO on the own deque. An
		// unbuffered spawn (no hot rank) lands where a flush would.
		name: "own-pop-order", size: 3,
		run: func(h *qteam) {
			h.push(0, "A", "B", "C")
			h.place("D", 0, -1)
			for i := 0; i < 5; i++ {
				h.pop(0)
			}
		},
		want: map[string]string{
			"gomp": "pop0=A/0 pop0=B/0 pop0=C/0 pop0=D/0 pop0=-/0",
			"iomp": "pop0=D/0 pop0=C/0 pop0=B/0 pop0=A/0 pop0=-/0",
		},
	},
	{
		// A release on hot rank 1 goes to rank 1's release slot, claimed
		// ahead of the shared queue (a foreign task: a one-stop tour), or to
		// rank 1's own deque.
		name: "release-hot", size: 3,
		run: func(h *qteam) {
			h.push(0, "A")
			h.place("R", 0, 1)
			h.pop(1)
			h.pop(1)
		},
		want: map[string]string{
			"gomp": "pop1=R/1 pop1=A/1",
			"iomp": "pop1=R/0 pop1=-/0",
		},
	},
	{
		// A second release on the same hot rank finds gomp's slot occupied
		// and falls back to the shared queue; iomp stacks both on the deque.
		name: "release-slot-occupied", size: 3,
		run: func(h *qteam) {
			h.place("R1", 2, 1)
			h.place("R2", 2, 1)
			h.pop(0)
			h.pop(1)
			h.pop(1)
		},
		want: map[string]string{
			"gomp": "pop0=R2/1 pop1=R1/1 pop1=-/0",
			"iomp": "pop0=-/0 pop1=R2/0 pop1=R1/0",
		},
	},
	{
		// With no hot rank a release goes to the shared queue, or to the
		// creator's deque.
		name: "release-cold", size: 3,
		run: func(h *qteam) {
			h.place("C", 2, -1)
			h.pop(0)
			h.pop(2)
		},
		want: map[string]string{
			"gomp": "pop0=C/1 pop2=-/0",
			"iomp": "pop0=-/0 pop2=C/0",
		},
	},
	{
		// Rank 2 steals from ranks 3, 1, 4, 0. gomp sweeps the other release
		// slots upward from its own (3, 4, 0, 1), each claim a one-stop tour;
		// iomp tours the deques in signed alternation (+1, -1, +2, -2), one
		// StealAttempt per probe, and a dry tour reports its size-1 probes.
		name: "steal-order", size: 5,
		run: func(h *qteam) {
			for _, r := range []int{3, 1, 4, 0} {
				h.place(fmt.Sprint("S", r), 0, r)
			}
			for i := 0; i < 5; i++ {
				h.steal(2)
			}
		},
		want: map[string]string{
			"gomp": "steal2=S3/1 steal2=S4/1 steal2=S0/1 steal2=S1/1 steal2=-/0",
			"iomp": "steal2=S3/1 steal2=S1/2 steal2=S4/3 steal2=S0/4 steal2=-/4",
		},
		attempts: map[string]int64{"iomp": 1 + 2 + 3 + 4 + 4},
	},
	{
		// Thieves take a deque's oldest task; gomp's shared queue is Pop's,
		// so its Steal finds nothing there.
		name: "steal-oldest", size: 2,
		run: func(h *qteam) {
			h.push(1, "A", "B")
			h.steal(0)
			h.steal(0)
			h.steal(0)
		},
		want: map[string]string{
			"gomp": "steal0=-/0 steal0=-/0 steal0=-/0",
			"iomp": "steal0=A/1 steal0=B/1 steal0=-/1",
		},
		attempts: map[string]int64{"iomp": 3},
	},
	{
		// The backlog the cut-off reads: iomp's deque length through push,
		// own pop, steal and a hot release; gomp applies no cut-off.
		name: "backlog", size: 2,
		run: func(h *qteam) {
			h.push(0, "A", "B", "C")
			h.backlog(0)
			h.pop(0)
			h.backlog(0)
			h.steal(1)
			h.backlog(0)
			h.place("R", 1, 0)
			h.backlog(0)
			h.backlog(1)
		},
		want: map[string]string{
			"gomp": "b0=-1 pop0=A/0 b0=-1 steal1=-/0 b0=-1 b0=-1 b1=-1",
			"iomp": "b0=3 pop0=C/0 b0=2 steal1=A/1 b0=1 b0=2 b1=0",
		},
		attempts: map[string]int64{"iomp": 1},
	},
}

func TestTaskQueueConformance(t *testing.T) {
	for _, qc := range queueCases {
		for _, v := range queueVariants {
			qc, v := qc, v
			t.Run(qc.name+"/"+v.name, func(t *testing.T) {
				h := newQTeam(v.q, qc.size)
				qc.run(h)
				if got := strings.Join(h.obs, " "); got != qc.want[v.name] {
					t.Errorf("observed %q\nwant     %q", got, qc.want[v.name])
				}
				if got := h.c.StealAttempts.Load(); got != qc.attempts[v.name] {
					t.Errorf("StealAttempts = %d, want %d", got, qc.attempts[v.name])
				}
			})
		}
	}
}

// TestTaskQueueExactlyOnce races every queue operation on every rank: each
// rank flushes bursts, spawns unbuffered, releases to itself and to its
// neighbour, and pops and steals in between, then drains. Every task must be
// claimed exactly once. Run under -race in CI.
func TestTaskQueueExactlyOnce(t *testing.T) {
	const ranks, perRank = 4, 300
	for _, v := range queueVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			h := newQTeam(v.q, ranks)
			ids := map[*omp.TaskNode]int{}
			nodes := make([][]*omp.TaskNode, ranks)
			for r := range nodes {
				for i := 0; i < perRank; i++ {
					n := &omp.TaskNode{CreatedBy: r}
					ids[n] = len(ids)
					nodes[r] = append(nodes[r], n)
				}
			}
			var seen [ranks * perRank]atomic.Int32
			var claimed atomic.Int64
			claim := func(n *omp.TaskNode) {
				if n != nil {
					seen[ids[n]].Add(1)
					claimed.Add(1)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					tc, mine := h.tcs[r], nodes[r]
					for i := 0; i < len(mine); {
						switch i % 4 {
						case 0:
							end := min(i+3, len(mine))
							h.q.Push(h.team, mine[i:end], -1)
							i = end
						case 1:
							h.q.Push(h.team, mine[i:i+1], -1)
							i++
						case 2:
							h.q.Push(h.team, mine[i:i+1], r)
							i++
						case 3:
							h.q.Push(h.team, mine[i:i+1], (r+1)%ranks)
							i++
						}
						if i%2 == 0 {
							claim(first(h.q.Pop(tc)))
						} else {
							claim(first(h.q.Steal(tc, new(omp.Counters))))
						}
					}
					for claimed.Load() < ranks*perRank && time.Now().Before(deadline) {
						n, _ := h.q.Pop(tc)
						if n == nil {
							n, _ = h.q.Steal(tc, new(omp.Counters))
						}
						claim(n)
					}
				}(r)
			}
			wg.Wait()
			for id := range seen {
				if got := seen[id].Load(); got != 1 {
					t.Fatalf("task %d claimed %d times, want exactly once", id, got)
				}
			}
		})
	}
}

func first(n *omp.TaskNode, _ int) *omp.TaskNode { return n }
