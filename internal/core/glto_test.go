package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tour"
	"repro/omp"
)

func newGLTO(t testing.TB, backend string, n int) *Runtime {
	t.Helper()
	rt, err := New(omp.Config{NumThreads: n, Backend: backend, Nested: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// The dispatch tests below pin where §IV-D sends a task, so no consumer may
// claim it from its producer's overflow ring first. Ring raids start in two
// places only — a member waiting at a barrier (TryRunTask) and a stream gone
// idle (the drain hook) — and a member spinning in one of the helpers below
// is not at a barrier and keeps its stream busy. It spins at the Go level: a
// GLT yield would let the stream go idle.

// rendezvous holds the calling member until n members have arrived at c.
func rendezvous(c *atomic.Int64, n int64) {
	c.Add(1)
	for c.Load() < n {
		runtime.Gosched()
	}
}

// singleOnRank0 runs produce inside a single construct on rank 0, flushes its
// ring (taskyield is a scheduling point) and only then lets the other members
// through to the single's barrier.
func singleOnRank0(tc *omp.TC, flushed *atomic.Bool, produce func()) {
	for tc.ThreadNum() != 0 && !flushed.Load() {
		runtime.Gosched()
	}
	tc.Single(func() {
		produce()
		tc.Taskyield()
		flushed.Store(true)
	})
}

func TestULTPerThreadWorkSharing(t *testing.T) {
	// §IV-C: a parallel region converts each OpenMP thread into one ULT.
	rt := newGLTO(t, "abt", 4)
	rt.ResetStats()
	rt.Parallel(func(tc *omp.TC) {})
	if s := rt.Stats(); s.ULTsCreated != 4 {
		t.Errorf("region of 4 created %d ULTs, want 4", s.ULTsCreated)
	}
}

func TestNestedRegionCreatesULTsNotThreads(t *testing.T) {
	// §IV-E / Table II: a nested region of n adds n-1 ULTs and no threads.
	rt := newGLTO(t, "abt", 4)
	rt.ResetStats()
	rt.ParallelN(2, func(tc *omp.TC) {
		tc.Master(func() {})
	})
	rt.ResetStats()
	var inner atomic.Int64
	rt.ParallelN(2, func(tc *omp.TC) {
		if tc.ThreadNum() == 0 {
			tc.Parallel(4, func(itc *omp.TC) { inner.Add(1) })
		}
	})
	s := rt.Stats()
	if inner.Load() != 4 {
		t.Fatalf("inner bodies = %d", inner.Load())
	}
	// 2 top-level ULTs + 3 nested ULTs.
	if got := s.ULTsCreated; got != 5 {
		t.Errorf("ULTs created = %d, want 5 (2 outer + 3 nested)", got)
	}
	if s.ThreadsCreated != 0 {
		t.Errorf("nested region created %d OS threads", s.ThreadsCreated)
	}
	if s.NestedRegions != 1 {
		t.Errorf("NestedRegions = %d", s.NestedRegions)
	}
}

func TestTaskBecomesULT(t *testing.T) {
	// §IV-D: every OMP task is converted to a GLT_ult.
	rt := newGLTO(t, "abt", 2)
	rt.ResetStats()
	var ran atomic.Int64
	var flushed atomic.Bool
	rt.ParallelN(2, func(tc *omp.TC) {
		singleOnRank0(tc, &flushed, func() {
			for i := 0; i < 10; i++ {
				tc.Task(func(*omp.TC) { ran.Add(1) })
			}
		})
	})
	if ran.Load() != 10 {
		t.Fatalf("tasks ran %d", ran.Load())
	}
	s := rt.Stats()
	// 2 team ULTs + 10 task ULTs.
	if s.ULTsCreated != 12 {
		t.Errorf("ULTs created = %d, want 12", s.ULTsCreated)
	}
	if s.TasksQueued != 10 {
		t.Errorf("TasksQueued = %d, want 10", s.TasksQueued)
	}
}

func TestRoundRobinDispatchFromSingle(t *testing.T) {
	// Tasks created inside single are distributed round-robin over the
	// streams: with 4 streams and enough tasks, several streams must
	// execute some, even under the non-stealing abt backend. The burst is
	// flushed before any member reaches a barrier: a waiter there raids the
	// producer's ring, and one or two early waiters can take the whole burst
	// before it is dispatched.
	rt := newGLTO(t, "abt", 4)
	var perThread [4]atomic.Int64
	var flushed atomic.Bool
	rt.Parallel(func(tc *omp.TC) {
		singleOnRank0(tc, &flushed, func() {
			for i := 0; i < 64; i++ {
				tc.Task(func(ttc *omp.TC) {
					perThread[ttc.ThreadNum()].Add(1)
					for k := 0; k < 500; k++ {
						_ = k
					}
				})
			}
		})
	})
	streams := 0
	for i := range perThread {
		if perThread[i].Load() > 0 {
			streams++
		}
	}
	if streams < 3 {
		t.Errorf("round-robin dispatch used only %d streams", streams)
	}
}

func TestThreadLocalDispatchOutsideSingle(t *testing.T) {
	// Outside single/master each stream keeps its own tasks under abt:
	// every task must execute on its creator.
	rt := newGLTO(t, "abt", 4)
	var crossed, started, flushed atomic.Int64
	rt.Parallel(func(tc *omp.TC) {
		me := tc.ThreadNum()
		rendezvous(&started, 4) // no stream is idle while rings fill
		for i := 0; i < 16; i++ {
			tc.Task(func(ttc *omp.TC) {
				if ttc.ThreadNum() != me {
					crossed.Add(1)
				}
			})
		}
		tc.Taskwait()
		rendezvous(&flushed, 4) // no member waits at the barrier before then
	})
	if crossed.Load() != 0 {
		t.Errorf("%d thread-local tasks executed on a different stream", crossed.Load())
	}
}

func TestBackendAccessors(t *testing.T) {
	rt := newGLTO(t, "qth", 2)
	if rt.Backend() != "qth" {
		t.Errorf("Backend() = %q", rt.Backend())
	}
	if rt.GLT() == nil || rt.GLT().NumThreads() != 2 {
		t.Error("GLT() accessor broken")
	}
	if rt.Name() != "glto" {
		t.Errorf("Name() = %q", rt.Name())
	}
}

func TestTeamLargerThanStreams(t *testing.T) {
	// Requesting more OpenMP threads than streams folds ranks onto the
	// existing streams round-robin; all bodies still run.
	rt := newGLTO(t, "abt", 2)
	var count atomic.Int64
	rt.ParallelN(6, func(tc *omp.TC) { count.Add(1) })
	if count.Load() != 6 {
		t.Errorf("oversized team ran %d bodies, want 6", count.Load())
	}
}

func TestSharedQueuesConfig(t *testing.T) {
	rt, err := New(omp.Config{NumThreads: 3, Backend: "abt", SharedQueues: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if !rt.GLT().SharedQueues() {
		t.Error("SharedQueues not propagated to the GLT runtime")
	}
	var count atomic.Int64
	rt.Parallel(func(tc *omp.TC) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("shared-queue region ran %d bodies", count.Load())
	}
}

func TestUnknownBackendError(t *testing.T) {
	if _, err := New(omp.Config{NumThreads: 2, Backend: "bogus"}); err == nil {
		t.Error("expected error for unknown backend")
	}
}

func TestSerializedRegionStillRunsTasks(t *testing.T) {
	// Nested disabled: the inner region serializes but its tasks must work.
	rt, err := New(omp.Config{NumThreads: 2, Backend: "abt", Nested: false})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	rt.ParallelN(2, func(tc *omp.TC) {
		tc.Parallel(2, func(itc *omp.TC) {
			itc.Task(func(*omp.TC) { ran.Add(1) })
			itc.Taskwait()
		})
	})
	if ran.Load() != 2 {
		t.Errorf("serialized-region tasks ran %d, want 2", ran.Load())
	}
}

// TestDrainTableSurplus puts more regions in flight on one stream's nesting
// chain than a directory has slots. A top-level team of one runs on stream 0
// and its rank 0 opens nested teams of two, level inside level; each nested
// team lists under its encountering stream (§IV-E), which the test records
// rather than assumes, and the top-level team lists under stream 0 from the
// master, racing the chain. Once every region has tried to list, the
// directories of all streams together hold one team per free slot and the
// surplus regions are listed nowhere. Every member of every level buffers
// tasks; each must run exactly once, the unlisted teams' tasks through
// their producers' flushes and their members' raids, and every directory
// must be empty once the regions are over.
func TestDrainTableSurplus(t *testing.T) {
	const (
		regions = tour.DirSlots + 2
		tasks   = 3 // per member per level
	)
	for _, backend := range []string{"abt", "qth"} {
		t.Run(backend, func(t *testing.T) {
			rt, err := New(omp.Config{NumThreads: 2, Backend: backend, Nested: true, TaskBuffer: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			var hits [regions][2][tasks]atomic.Int32
			var stream [regions]int // the stream region d lists under
			var listed, want int
			var level func(d int) func(*omp.TC)
			level = func(d int) func(*omp.TC) {
				return func(tc *omp.TC) {
					me := tc.ThreadNum()
					for i := range hits[d][me] {
						h := &hits[d][me][i]
						tc.Task(func(*omp.TC) { h.Add(1) })
					}
					switch {
					case me != 0:
					case d+1 < regions:
						stream[d+1] = ctxOf(tc).Rank()
						tc.Parallel(2, level(d+1))
					default:
						perStream := make([]int, len(rt.drainTab))
						for _, s := range stream {
							perStream[s]++
						}
						for _, n := range perStream {
							want += min(n, tour.DirSlots)
						}
						deadline := time.Now().Add(10 * time.Second)
						for listed = drainListed(rt); listed != want && time.Now().Before(deadline); listed = drainListed(rt) {
							runtime.Gosched()
						}
					}
				}
			}
			rt.ParallelN(1, level(0))
			if listed != want {
				t.Errorf("%d regions listed with %d in flight, want %d", listed, regions, want)
			}
			if want == regions {
				t.Errorf("all %d regions found a slot; the chain left no surplus to test", regions)
			}
			for d := range hits {
				size := 2
				if d == 0 {
					size = 1
				}
				for me := range hits[d] {
					for i := range hits[d][me] {
						want := int32(0)
						if me < size {
							want = 1
						}
						if got := hits[d][me][i].Load(); got != want {
							t.Errorf("level %d rank %d task %d ran %d times, want %d", d, me, i, got, want)
						}
					}
				}
			}
			if n := drainListed(rt); n != 0 {
				t.Errorf("the drain directories list %d teams after the regions ended", n)
			}
		})
	}
}

// drainListed counts the teams listed in every stream's drain directory.
func drainListed(rt *Runtime) int {
	n := 0
	for s := range rt.drainTab {
		d := &rt.drainTab[s].dir
		for j := 0; j < d.Len(); j++ {
			if d.At(j) != nil {
				n++
			}
		}
	}
	return n
}
