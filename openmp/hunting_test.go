package openmp_test

// The hunting-order test: on each runtime it pins the order in which one
// task-scheduling wait step (TC.WaitStep, which asks the engine's TryRunTask
// for one task) visits the places a runnable task can sit, and the steal
// accounting and StealTour trace events it emits. Every step ends in omp's
// TC.Hunt, so a step reports at most one tour: the engine queues it probed
// plus the ring directories it toured.
//
//   - gomp: own release slot → shared queue (FIFO) → the other ranks' release
//     slots, swept upward from the hunter → overflow-ring raid;
//   - iomp: own deque (LIFO) → steal tour in signed alternation (+1, -1, ...),
//     oldest task first, one StealAttempt per probe → ring raid; a hunt that
//     finds nothing with every ring empty reports a failed tour of size-1;
//   - GLTO: ring raid only — its queued tasks are ULTs its streams run between
//     yields.
//
// A team of three on three threads, with dependence chaining off so every
// release goes through the engine. On GLTO each member first moves to the
// stream of its own rank (an idle stream may have taken it before its own
// stream popped it, and an idle stream raids rings), so once every member is
// placed no stream is idle. The members then stage the tasks one phase at a
// time, each phase run by one rank while the others spin in plain Go code: a
// taskyield flushes a member's burst to the engine, a task created after it
// stays in the member's overflow ring, and on gomp each member runs its own
// predecessor with one wait step so that the successor is parked in that
// member's release slot. Then rank 1, the hunter, takes wait steps one at a
// time while ranks 0 and 2 spin, so the hunter is the only thread that can run
// a task: each step must run exactly the task its row names and credit exactly
// the counters and tours named with it. Event-driven throughout: the deadline
// in spinUntil is the only timed wait.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/glt"
	"repro/omp"
	"repro/openmp"
)

// huntTour is one StealTour trace event.
type huntTour struct {
	visited int
	found   bool
}

// huntStep is what one wait step of the hunter did: the task it ran ("" for
// none), the steal counters it credited, and the tours it reported.
type huntStep struct {
	ran                          string
	stolen, fromBuffer, attempts int64
	tours                        []huntTour
}

// tourTracer records every StealTour event in order.
type tourTracer struct {
	omp.CountingTracer
	mu    sync.Mutex
	tours []huntTour
}

func (tr *tourTracer) StealTour(_ *omp.Team, visited int, found bool) {
	tr.mu.Lock()
	tr.tours = append(tr.tours, huntTour{visited, found})
	tr.mu.Unlock()
}

func (tr *tourTracer) since(n int) []huntTour {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]huntTour(nil), tr.tours[n:]...)
}

func (tr *tourTracer) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.tours)
}

// huntLog records the labels of the tasks that ran, in order.
type huntLog struct {
	mu  sync.Mutex
	ran []string
}

func (l *huntLog) task(tc *omp.TC, label string, opts ...omp.TaskOpt) {
	tc.Task(func(*omp.TC) {
		l.mu.Lock()
		l.ran = append(l.ran, label)
		l.mu.Unlock()
	}, opts...)
}

func (l *huntLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ran)
}

func (l *huntLog) since(n int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.ran[n:], ",")
}

// huntPhase is one staging phase, run by one rank.
type huntPhase struct {
	rank int
	do   func(t *testing.T, tc *omp.TC, l *huntLog)
}

// flushed creates the labelled tasks and flushes them to the engine.
func flushed(labels ...string) func(*testing.T, *omp.TC, *huntLog) {
	return func(_ *testing.T, tc *omp.TC, l *huntLog) {
		for _, label := range labels {
			l.task(tc, label)
		}
		tc.Taskyield()
	}
}

// buffered creates the labelled tasks and leaves them in the overflow ring.
func buffered(labels ...string) func(*testing.T, *omp.TC, *huntLog) {
	return func(_ *testing.T, tc *omp.TC, l *huntLog) {
		for _, label := range labels {
			l.task(tc, label)
		}
	}
}

// slotted parks a successor in the calling rank's gomp release slot: the rank
// flushes a predecessor to the shared queue, creates the successor, and runs
// the predecessor itself with one wait step; its completion releases the
// successor with the rank as the hot rank.
func slotted(pred, succ string) func(*testing.T, *omp.TC, *huntLog) {
	return func(t *testing.T, tc *omp.TC, l *huntLog) {
		x := new(int)
		l.task(tc, pred, omp.Out(x))
		tc.Taskyield()
		l.task(tc, succ, omp.In(x))
		n := l.len()
		tc.WaitStep()
		if got := l.since(n); got != pred {
			t.Errorf("rank %d's staging step ran %q, want %q", tc.ThreadNum(), got, pred)
		}
	}
}

// placeOnOwnStream moves a GLTO member to the stream of its own rank and holds
// it, without yielding, until every member of the team is placed. It is a
// no-op on the pthread runtimes.
func placeOnOwnStream(tc *omp.TC, placed *atomic.Int64) {
	c, ok := tc.Ectx().(*glt.Ctx)
	if !ok {
		return
	}
	for c.Rank() != tc.ThreadNum() {
		c.MigrateTo(tc.ThreadNum())
	}
	placed.Add(1)
	for placed.Load() < int64(tc.NumThreads()) {
		runtime.Gosched()
	}
}

func tours(ts ...huntTour) []huntTour { return ts }

var (
	hit1 = huntTour{1, true}
	hit2 = huntTour{2, true}
	hit3 = huntTour{3, true}
)

var huntRows = []struct {
	label, rt, backend string
	stage              []huntPhase
	want               []huntStep
}{
	{
		label: "gomp", rt: "gomp",
		stage: []huntPhase{
			{2, slotted("P2", "S2")},
			{0, slotted("P0", "S0")},
			{1, slotted("P1", "S1")},
			{0, flushed("Q1", "Q2")},
			{0, buffered("R1")},
		},
		want: []huntStep{
			{ran: "S1"},
			{ran: "Q1", stolen: 1, tours: tours(hit1)},
			{ran: "Q2", stolen: 1, tours: tours(hit1)},
			{ran: "S2", stolen: 1, tours: tours(hit1)},
			{ran: "S0", stolen: 1, tours: tours(hit1)},
			{ran: "R1", stolen: 1, fromBuffer: 1, tours: tours(hit3)},
			{},
		},
	},
	{
		label: "iomp", rt: "iomp",
		stage: []huntPhase{
			{1, flushed("A1", "A2")},
			{2, flushed("B1", "B2")},
			{0, flushed("C1")},
			{0, buffered("R1")},
		},
		want: []huntStep{
			{ran: "A2"},
			{ran: "A1"},
			{ran: "B1", stolen: 1, attempts: 1, tours: tours(hit1)},
			{ran: "B2", stolen: 1, attempts: 1, tours: tours(hit1)},
			{ran: "C1", stolen: 1, attempts: 2, tours: tours(hit2)},
			{ran: "R1", stolen: 1, fromBuffer: 1, attempts: 2, tours: tours(huntTour{5, true})},
			{attempts: 2, tours: tours(huntTour{2, false})},
		},
	},
	{
		label: "glto-abt", rt: "glto", backend: "abt",
		stage: []huntPhase{{0, buffered("R1", "R2")}},
		want: []huntStep{
			{ran: "R1", stolen: 1, fromBuffer: 1, tours: tours(hit3)},
			{ran: "R2", stolen: 1, fromBuffer: 1, tours: tours(hit1)},
			{},
		},
	},
	{
		label: "glto-ws", rt: "glto", backend: "ws",
		stage: []huntPhase{{0, buffered("R1", "R2")}},
		want: []huntStep{
			{ran: "R1", stolen: 1, fromBuffer: 1, tours: tours(hit3)},
			{ran: "R2", stolen: 1, fromBuffer: 1, tours: tours(hit1)},
			{},
		},
	},
}

func TestHuntingOrder(t *testing.T) {
	const hunter = 1
	for _, row := range huntRows {
		row := row
		t.Run(row.label, func(t *testing.T) {
			rt, err := openmp.New(row.rt, omp.Config{
				NumThreads: 3,
				Backend:    row.backend,
				TaskBuffer: 256,
				DepChain:   -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			tr := &tourTracer{}
			prev := omp.SetTracer(tr)
			defer omp.SetTracer(prev)

			l := &huntLog{}
			var placed, phase atomic.Int64
			var hunted atomic.Bool
			var got []huntStep
			rt.ParallelN(3, func(tc *omp.TC) {
				me := tc.ThreadNum()
				placeOnOwnStream(tc, &placed)
				for i, p := range row.stage {
					if p.rank != me {
						continue
					}
					if !spinUntil(func() bool { return phase.Load() == int64(i) }, 10*time.Second) {
						t.Errorf("rank %d never reached staging phase %d", me, i)
					}
					p.do(t, tc, l)
					phase.Store(int64(i + 1))
				}
				if me != hunter {
					if !spinUntil(hunted.Load, 10*time.Second) {
						t.Errorf("rank %d: the hunt never finished", me)
					}
					return
				}
				if !spinUntil(func() bool { return phase.Load() == int64(len(row.stage)) }, 10*time.Second) {
					t.Error("staging never finished")
				}
				for range row.want {
					n, k, s0 := l.len(), tr.count(), rt.Stats()
					tc.WaitStep()
					s := rt.Stats()
					got = append(got, huntStep{
						ran:        l.since(n),
						stolen:     s.TasksStolen - s0.TasksStolen,
						fromBuffer: s.TasksStolenFromBuffer - s0.TasksStolenFromBuffer,
						attempts:   s.StealAttempts - s0.StealAttempts,
						tours:      tr.since(k),
					})
				}
				hunted.Store(true)
			})
			for i, w := range row.want {
				if i >= len(got) {
					t.Fatalf("the hunter took %d steps, want %d", len(got), len(row.want))
				}
				if g := got[i]; fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("step %d: got %+v, want %+v", i+1, g, w)
				}
			}
		})
	}
}
