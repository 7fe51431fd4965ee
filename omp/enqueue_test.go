package omp

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// recordOps is an EngineOps that records every Enqueue it receives — the
// creators of the nodes, hot and ectx — and queues the nodes for the test to
// run. Inline refuses the cutoff-th task asked about (1-based; 0 never).
type recordOps struct {
	barrierOps
	cutoff, asked int
	log           []string
	queued        []*TaskNode
}

func (r *recordOps) Inline(*TC, *TaskNode) bool {
	r.asked++
	return r.asked == r.cutoff
}

func (r *recordOps) Enqueue(_ *Team, nodes []*TaskNode, hot int, ectx any) {
	by := make([]string, len(nodes))
	for i, n := range nodes {
		by[i] = fmt.Sprint(n.CreatedBy)
	}
	r.log = append(r.log, fmt.Sprintf("enqueue[%s] hot=%d ectx=%v", strings.Join(by, " "), hot, ectx))
	r.queued = append(r.queued, nodes...)
}

// pop takes the oldest queued node.
func (r *recordOps) pop() *TaskNode {
	n := r.queued[0]
	r.queued = r.queued[1:]
	return n
}

// TestEnqueueShapes pins the arguments EngineOps.Enqueue receives, one row
// per call shape: an unbuffered spawn, the flushes of a full and of a
// partly filled ring, a dependence release by a team member (hot) and by no
// thread (cold), and a cut-off refusal, which enqueues nothing for the
// refused task and runs it inline after flushing the ring. Chaining is off,
// so every release reaches Enqueue. Each row runs on a two-member team whose
// TCs carry the engine contexts e0 and e1.
func TestEnqueueShapes(t *testing.T) {
	noop := func(*TC) {}
	for _, row := range []struct {
		name           string
		buffer, cutoff int
		run            func(team *Team, tcs []*TC, r *recordOps)
		want           []string
	}{
		{
			name: "unbuffered-spawn", buffer: -1,
			run:  func(_ *Team, tcs []*TC, _ *recordOps) { tcs[0].Task(noop) },
			want: []string{"enqueue[0] hot=-1 ectx=e0"},
		},
		{
			// Every node of a flushed burst was created by the flushing rank.
			name: "flush", buffer: 4,
			run: func(_ *Team, tcs []*TC, _ *recordOps) {
				for i := 0; i < 5; i++ {
					tcs[1].Task(noop)
				}
				tcs[1].Taskyield()
			},
			want: []string{"enqueue[1 1 1 1] hot=-1 ectx=e1", "enqueue[1] hot=-1 ectx=e1"},
		},
		{
			name: "hot-release", buffer: -1,
			run: func(_ *Team, tcs []*TC, r *recordOps) {
				var x int
				tcs[0].Task(noop, Out(&x))
				tcs[0].Task(noop, In(&x))
				execTask(tcs[1], r.pop())
			},
			want: []string{"enqueue[0] hot=-1 ectx=e0", "enqueue[0] hot=1 ectx=e1"},
		},
		{
			name: "cold-release", buffer: -1,
			run: func(team *Team, tcs []*TC, r *recordOps) {
				var x int
				tcs[0].Task(noop, Out(&x))
				tcs[0].Task(noop, In(&x))
				FinishTask(team, r.pop())
			},
			want: []string{"enqueue[0] hot=-1 ectx=e0", "enqueue[0] hot=-1 ectx=<nil>"},
		},
		{
			name: "cutoff", buffer: 4, cutoff: 3,
			run: func(_ *Team, tcs []*TC, r *recordOps) {
				tcs[0].Task(noop)
				tcs[0].Task(noop)
				tcs[0].Task(func(*TC) { r.log = append(r.log, "ran") })
			},
			want: []string{"enqueue[0 0] hot=-1 ectx=e0", "ran"},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := &recordOps{cutoff: row.cutoff}
			team := NewTeam(2, 0, Config{NumThreads: 2, TaskBuffer: row.buffer, DepChain: -1}.WithDefaults(), nil)
			tcs := []*TC{NewTC(team, 0, r, "e0", nil), NewTC(team, 1, r, "e1", nil)}
			row.run(team, tcs, r)
			if !slices.Equal(r.log, row.want) {
				t.Errorf("calls:\n got  %q\n want %q", r.log, row.want)
			}
			for len(r.queued) > 0 {
				execTask(tcs[0], r.pop())
			}
			if n := team.Tasks.Load(); n != 0 {
				t.Errorf("%d tasks outstanding after the drain", n)
			}
		})
	}
}

// TestEngineOpsMethodSet pins the engine SPI's method set, so EngineOps
// cannot grow without this test changing with it.
func TestEngineOpsMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*EngineOps)(nil)).Elem()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	want := []string{"Enqueue", "Idle", "Inline", "Nested", "Taskyield", "TryRunTask"}
	if !slices.Equal(got, want) {
		t.Errorf("EngineOps methods = %v, want %v", got, want)
	}
}
