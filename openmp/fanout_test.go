package openmp_test

// The release-placement test: where a dependence release puts the successors
// it readies. The releaser keeps one successor — it runs inline as a chain
// link, or is dispatched last once the chain budget is spent — and hands the
// rest to the engine as fan-out. On GLTO over abt and qth, whose streams
// never steal, the kept successor must stay on the releasing stream, while
// fan-out created inside single is placed round-robin over the streams like
// any task created there (§IV-D); a pure chain, which has no fan-out, must
// run every link on the releaser's stream however often its budget runs out.
// The other runtimes rebalance by stealing, so on them the test asserts only
// that every task runs exactly once.
//
// A team of two. Rank 0 creates a predecessor and its successors inside a
// single construct; the predecessor spins until every successor is
// registered, so each successor is readied by the predecessor's release, not
// spawned ready. Rank 1 spins in plain Go code until rank 0 has flushed the
// single's tasks, so no member raids the predecessor from its producer's
// ring first. Event-driven: the deadline in spinUntil is the only timed wait.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/glt"
	"repro/omp"
	"repro/openmp"
)

// releasePlacement records, per task, how often it ran and the stream it
// last ran on.
type releasePlacement struct {
	hits   []atomic.Int32
	stream []atomic.Int32
}

func newReleasePlacement(tasks int) *releasePlacement {
	return &releasePlacement{hits: make([]atomic.Int32, tasks), stream: make([]atomic.Int32, tasks)}
}

// body returns task i's body: it records the GLT stream running it (the team
// rank on the pthread runtimes) and, for a gated task, spins until open.
func (p *releasePlacement) body(i int, gate *atomic.Bool) func(*omp.TC) {
	return func(tc *omp.TC) {
		if gate != nil {
			for !gate.Load() {
				runtime.Gosched()
			}
		}
		s := tc.ThreadNum()
		if c, ok := tc.Ectx().(*glt.Ctx); ok && c != nil {
			s = c.Rank()
		}
		p.stream[i].Store(int32(s))
		p.hits[i].Add(1)
	}
}

// exactlyOnce reports every task that did not run exactly once.
func (p *releasePlacement) exactlyOnce(t *testing.T, what string) {
	t.Helper()
	for i := range p.hits {
		if got := p.hits[i].Load(); got != 1 {
			t.Errorf("%s: task %d ran %d times, want 1", what, i, got)
		}
	}
}

// releaseInSingle runs one region of two in which rank 0 calls create inside
// a single construct. create gates its predecessor on registered, which opens
// once create has returned.
func releaseInSingle(t *testing.T, rt omp.Runtime, create func(tc *omp.TC, registered *atomic.Bool)) {
	var registered, flushed atomic.Bool
	rt.ParallelN(2, func(tc *omp.TC) {
		if tc.ThreadNum() != 0 {
			if !spinUntil(flushed.Load, 10*time.Second) {
				t.Errorf("rank 0 did not flush the single's tasks")
			}
		}
		tc.Single(func() {
			create(tc, &registered)
			registered.Store(true)
			tc.Taskyield()
			flushed.Store(true)
		})
	})
}

func TestReleaseFanOutPlacement(t *testing.T) {
	const (
		succs = 6 // successors of one release: one kept, succs-1 fan-out
		chain = 3 // the runtimes' chain budget (Config.DepChain)
		links = 3*chain + 1
	)
	for _, v := range []struct {
		label, rt, backend string
		placed             bool // streams never steal: placement is observable
	}{
		{"gomp", "gomp", "", false},
		{"iomp", "iomp", "", false},
		{"glto-abt", "glto", "abt", true},
		{"glto-qth", "glto", "qth", true},
		{"glto-ws", "glto", "ws", false},
		{"glto-mth", "glto", "mth", false},
	} {
		t.Run(v.label, func(t *testing.T) {
			rt, err := openmp.New(v.rt, omp.Config{NumThreads: 2, Backend: v.backend, DepChain: chain})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()

			// Fan-out: task 0 writes x, tasks 1..succs read it. With equal
			// priorities the release keeps the first successor it readies.
			var x int
			fan := newReleasePlacement(1 + succs)
			releaseInSingle(t, rt, func(tc *omp.TC, registered *atomic.Bool) {
				tc.Task(fan.body(0, registered), omp.Out(&x))
				for i := 1; i <= succs; i++ {
					tc.Task(fan.body(i, nil), omp.In(&x))
				}
			})
			fan.exactlyOnce(t, "fan-out")

			// A pure chain: every link keeps its only successor.
			var y int
			line := newReleasePlacement(1 + links)
			releaseInSingle(t, rt, func(tc *omp.TC, registered *atomic.Bool) {
				tc.Task(line.body(0, registered), omp.Out(&y))
				for i := 1; i <= links; i++ {
					tc.Task(line.body(i, nil), omp.InOut(&y))
				}
			})
			line.exactlyOnce(t, "chain")

			if !v.placed || t.Failed() {
				return
			}
			releaser := fan.stream[0].Load()
			if got := fan.stream[1].Load(); got != releaser {
				t.Errorf("kept successor ran on stream %d, releaser on %d", got, releaser)
			}
			var per [2]int
			for i := 2; i <= succs; i++ {
				per[fan.stream[i].Load()]++
			}
			lo, hi := (succs-1)/2, succs/2
			if min(per[0], per[1]) != lo || max(per[0], per[1]) != hi {
				t.Errorf("fan-out of %d split %d/%d over the streams, want %d/%d", succs-1, per[0], per[1], lo, hi)
			}
			for i := 1; i <= links; i++ {
				if got, want := line.stream[i].Load(), line.stream[0].Load(); got != want {
					t.Errorf("chain link %d ran on stream %d, releaser on %d", i, got, want)
				}
			}
		})
	}
}
