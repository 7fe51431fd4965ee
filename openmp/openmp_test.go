package openmp_test

// Cross-runtime conformance tests: every directive of the omp front end is
// exercised on all three runtimes (gomp, iomp, glto) and, for glto, on all
// four GLT backends. The same application code must behave identically
// everywhere — the portability claim of the paper's Fig. 2.

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/omp"
	"repro/openmp"
)

// variant names one runtime/backend combination under test.
type variant struct {
	name    string
	runtime string
	backend string
}

var variants = []variant{
	{"gomp", "gomp", ""},
	{"iomp", "iomp", ""},
	{"glto-abt", "glto", "abt"},
	{"glto-qth", "glto", "qth"},
	{"glto-mth", "glto", "mth"},
	{"glto-ws", "glto", "ws"},
}

// forEachRuntime runs f once per variant with a 4-thread runtime.
func forEachRuntime(t *testing.T, f func(t *testing.T, rt omp.Runtime)) {
	t.Helper()
	forEachRuntimeN(t, 4, omp.Config{}, f)
}

func forEachRuntimeN(t *testing.T, n int, base omp.Config, f func(t *testing.T, rt omp.Runtime)) {
	t.Helper()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.NumThreads = n
			cfg.Backend = v.backend
			cfg.Nested = true
			rt, err := openmp.New(v.runtime, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			f(t, rt)
		})
	}
}

// TestSerializedRegionsCounted pins the serialized-region accounting: with
// nesting disabled, every inner tc.Parallel is serialized and must show up
// in Stats.SerializedRegions (the counter lives in the front end, where the
// serialization decision is made).
func TestSerializedRegionsCounted(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			rt, err := openmp.New(v.runtime, omp.Config{
				NumThreads: 2, Backend: v.backend, Nested: false,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			rt.Parallel(func(tc *omp.TC) {
				tc.Parallel(2, func(itc *omp.TC) {
					if itc.NumThreads() != 1 {
						t.Errorf("serialized region has %d threads, want 1", itc.NumThreads())
					}
				})
			})
			if got := rt.Stats().SerializedRegions; got != 2 {
				t.Errorf("SerializedRegions = %d, want 2 (one per team member)", got)
			}
			rt.ResetStats()
			if got := rt.Stats().SerializedRegions; got != 0 {
				t.Errorf("SerializedRegions = %d after ResetStats, want 0", got)
			}
		})
	}
}

func TestRuntimesRegistered(t *testing.T) {
	got := map[string]bool{}
	for _, n := range openmp.Runtimes() {
		got[n] = true
	}
	for _, want := range []string{"gomp", "iomp", "glto"} {
		if !got[want] {
			t.Errorf("runtime %q not registered (got %v)", want, openmp.Runtimes())
		}
	}
}

func TestParallelTeamShape(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var seen [4]atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			if tc.NumThreads() != 4 {
				t.Errorf("NumThreads = %d, want 4", tc.NumThreads())
			}
			if tc.Level() != 0 {
				t.Errorf("Level = %d, want 0", tc.Level())
			}
			seen[tc.ThreadNum()].Add(1)
		})
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Errorf("thread %d ran %d times, want 1", i, seen[i].Load())
			}
		}
	})
}

func TestParallelNOverridesDefault(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var count atomic.Int64
		rt.ParallelN(2, func(tc *omp.TC) {
			if tc.NumThreads() != 2 {
				t.Errorf("NumThreads = %d, want 2", tc.NumThreads())
			}
			count.Add(1)
		})
		if count.Load() != 2 {
			t.Errorf("body ran %d times, want 2", count.Load())
		}
	})
}

func TestSetNumThreads(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		rt.SetNumThreads(3)
		var count atomic.Int64
		rt.Parallel(func(tc *omp.TC) { count.Add(1) })
		if count.Load() != 3 {
			t.Errorf("after SetNumThreads(3) body ran %d times", count.Load())
		}
	})
}

func TestForStaticCoversExactlyOnce(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		const n = 1000
		hits := make([]int32, n)
		rt.Parallel(func(tc *omp.TC) {
			tc.For(0, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("iteration %d executed %d times", i, h)
			}
		}
	})
}

func TestForSchedules(t *testing.T) {
	specs := map[string]omp.ForOpts{
		"static":        {Sched: omp.Static},
		"static-chunk3": {Sched: omp.Static, Chunk: 3},
		"dynamic":       {Sched: omp.Dynamic},
		"dynamic-chunk": {Sched: omp.Dynamic, Chunk: 7},
		"guided":        {Sched: omp.Guided},
		"guided-chunk":  {Sched: omp.Guided, Chunk: 5},
	}
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		for name, spec := range specs {
			const n = 501 // deliberately not a multiple of the team size
			hits := make([]int32, n)
			rt.Parallel(func(tc *omp.TC) {
				tc.ForSpec(0, n, spec, func(i int) { atomic.AddInt32(&hits[i], 1) })
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%s: iteration %d executed %d times", name, i, h)
				}
			}
		}
	})
}

func TestForEmptyAndTinyRanges(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var hits atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			tc.For(5, 5, func(i int) { hits.Add(1) }) // empty
			tc.For(0, 1, func(i int) { hits.Add(1) }) // fewer iterations than threads
			tc.ForSpec(3, 6, omp.ForOpts{Sched: omp.Dynamic}, func(i int) { hits.Add(1) })
		})
		if hits.Load() != 1+3 {
			t.Errorf("hits = %d, want 4", hits.Load())
		}
	})
}

func TestForStaticDistribution(t *testing.T) {
	// With the default static schedule each thread gets one contiguous
	// block, and blocks tile [0,n).
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		const n = 103
		owner := make([]int32, n)
		rt.Parallel(func(tc *omp.TC) {
			tc.ForSpec(0, n, omp.ForOpts{Sched: omp.Static}, func(i int) {
				atomic.StoreInt32(&owner[i], int32(tc.ThreadNum()+1))
			})
		})
		changes := 0
		for i := 1; i < n; i++ {
			if owner[i] != owner[i-1] {
				changes++
			}
		}
		if changes > 3 { // 4 threads -> at most 3 boundaries
			t.Errorf("static blocks fragmented: %d boundaries", changes)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var phase1, bad atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			phase1.Add(1)
			tc.Barrier()
			if phase1.Load() != int64(tc.NumThreads()) {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Errorf("%d threads crossed the barrier before all arrived", bad.Load())
		}
	})
}

func TestRepeatedBarriers(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var counter atomic.Int64
		var bad atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			n := int64(tc.NumThreads())
			for round := int64(1); round <= 25; round++ {
				counter.Add(1)
				tc.Barrier()
				if counter.Load() != round*n {
					bad.Add(1)
				}
				tc.Barrier()
			}
		})
		if bad.Load() != 0 {
			t.Errorf("%d barrier-phase violations", bad.Load())
		}
	})
}

func TestSingleElectsExactlyOne(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		for round := 0; round < 5; round++ {
			var execs, elected atomic.Int64
			rt.Parallel(func(tc *omp.TC) {
				if tc.Single(func() { execs.Add(1) }) {
					elected.Add(1)
				}
			})
			if execs.Load() != 1 || elected.Load() != 1 {
				t.Fatalf("single executed %d times, %d elected", execs.Load(), elected.Load())
			}
		}
	})
}

func TestConsecutiveSinglesAreIndependent(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var a, b atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			tc.Single(func() { a.Add(1) })
			tc.Single(func() { b.Add(1) })
		})
		if a.Load() != 1 || b.Load() != 1 {
			t.Errorf("singles executed %d/%d times, want 1/1", a.Load(), b.Load())
		}
	})
}

func TestMasterRunsOnThreadZeroOnly(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var runs atomic.Int64
		var wrong atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			tc.Master(func() {
				runs.Add(1)
				if tc.ThreadNum() != 0 {
					wrong.Add(1)
				}
			})
		})
		if runs.Load() != 1 || wrong.Load() != 0 {
			t.Errorf("master ran %d times (%d off thread 0)", runs.Load(), wrong.Load())
		}
	})
}

func TestCriticalMutualExclusion(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var inside, maxInside, violations int64
		var x int64 // unsynchronized counter protected only by the critical
		rt.Parallel(func(tc *omp.TC) {
			for k := 0; k < 200; k++ {
				tc.Critical("c", func() {
					if atomic.AddInt64(&inside, 1) > 1 {
						atomic.AddInt64(&violations, 1)
					}
					x++
					if inside > maxInside {
						maxInside = inside
					}
					atomic.AddInt64(&inside, -1)
				})
			}
		})
		if violations != 0 {
			t.Errorf("%d mutual-exclusion violations", violations)
		}
		if x != 4*200 {
			t.Errorf("protected counter = %d, want %d", x, 4*200)
		}
	})
}

func TestNamedCriticalsAreDistinct(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		// Two threads hold different named criticals simultaneously at
		// least once: if the names shared a lock this would deadlock-free
		// serialize and the overlap flag could stay 0 — so we only check it
		// does not deadlock and both bodies run.
		var a, b atomic.Int64
		rt.ParallelN(2, func(tc *omp.TC) {
			if tc.ThreadNum() == 0 {
				tc.Critical("x", func() { a.Add(1) })
			} else {
				tc.Critical("y", func() { b.Add(1) })
			}
		})
		if a.Load() != 1 || b.Load() != 1 {
			t.Errorf("named criticals ran %d/%d", a.Load(), b.Load())
		}
	})
}

func TestSectionsDistribution(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var ran [6]atomic.Int64
		mk := func(i int) func() { return func() { ran[i].Add(1) } }
		rt.Parallel(func(tc *omp.TC) {
			tc.Sections(mk(0), mk(1), mk(2), mk(3), mk(4), mk(5))
		})
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Errorf("section %d ran %d times", i, ran[i].Load())
			}
		}
	})
}

func TestReduceFloat64Sum(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		const n = 5000
		want := float64(n) * float64(n-1) / 2
		results := make([]float64, 4)
		rt.Parallel(func(tc *omp.TC) {
			got := tc.ForReduceFloat64(0, n, omp.ForOpts{}, 0, omp.SumFloat64,
				func(i int, acc float64) float64 { return acc + float64(i) })
			results[tc.ThreadNum()] = got
		})
		for th, got := range results {
			if got != want {
				t.Errorf("thread %d reduction = %v, want %v", th, got, want)
			}
		}
	})
}

func TestReduceInt64MaxDynamic(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		const n = 1000
		var got int64
		rt.Parallel(func(tc *omp.TC) {
			v := tc.ForReduceInt64(0, n, omp.ForOpts{Sched: omp.Dynamic, Chunk: 13},
				-1<<62, omp.MaxInt64,
				func(i int, acc int64) int64 {
					x := int64((i * 2654435761) % 100000)
					return omp.MaxInt64(acc, x)
				})
			tc.Master(func() { got = v })
		})
		var want int64 = -1 << 62
		for i := 0; i < n; i++ {
			x := int64((i * 2654435761) % 100000)
			if x > want {
				want = x
			}
		}
		if got != want {
			t.Errorf("max reduction = %d, want %d", got, want)
		}
	})
}

func TestGenericReduce(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		type pair struct{ sum, cnt int64 }
		var got pair
		rt.Parallel(func(tc *omp.TC) {
			v := omp.ForReduce(tc, 0, 100, omp.ForOpts{}, pair{},
				func(a, b pair) pair { return pair{a.sum + b.sum, a.cnt + b.cnt} },
				func(i int, acc pair) pair { return pair{acc.sum + int64(i), acc.cnt + 1} })
			tc.Master(func() { got = v })
		})
		if got.sum != 4950 || got.cnt != 100 {
			t.Errorf("generic reduce = %+v, want {4950 100}", got)
		}
	})
}

func TestOrderedSequencing(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		const n = 64
		var order []int
		rt.Parallel(func(tc *omp.TC) {
			tc.ForSpec(0, n, omp.ForOpts{Sched: omp.Dynamic, Ordered: true}, func(i int) {
				tc.Ordered(i, func() { order = append(order, i) })
			})
		})
		if len(order) != n {
			t.Fatalf("ordered region ran %d times, want %d", len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("ordered sequence broken at %d: got %d", i, v)
			}
		}
	})
}

func TestTasksAllExecute(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		const n = 500
		var ran atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < n; i++ {
					tc.Task(func(*omp.TC) { ran.Add(1) })
				}
			})
			// implicit barrier of single drains the tasks
		})
		if ran.Load() != n {
			t.Errorf("tasks ran %d of %d", ran.Load(), n)
		}
	})
}

func TestTaskwaitWaitsForChildren(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var violations atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			var children atomic.Int64
			tc.Single(func() {
				for i := 0; i < 50; i++ {
					tc.Task(func(*omp.TC) { children.Add(1) })
				}
				tc.Taskwait()
				if children.Load() != 50 {
					violations.Add(1)
				}
			})
		})
		if violations.Load() != 0 {
			t.Error("taskwait returned before children completed")
		}
	})
}

func TestNestedTasks(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var leaves atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < 10; i++ {
					tc.Task(func(ttc *omp.TC) {
						for j := 0; j < 10; j++ {
							ttc.Task(func(*omp.TC) { leaves.Add(1) })
						}
						ttc.Taskwait()
					})
				}
			})
		})
		if leaves.Load() != 100 {
			t.Errorf("nested task leaves = %d, want 100", leaves.Load())
		}
	})
}

func TestTasksFromAllThreads(t *testing.T) {
	// Non-single/master task creation: each thread creates its own tasks
	// (the second GLTO dispatch mode of §IV-D).
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var ran atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			for i := 0; i < 50; i++ {
				tc.Task(func(*omp.TC) { ran.Add(1) })
			}
			tc.Taskwait()
		})
		if ran.Load() != 4*50 {
			t.Errorf("tasks ran %d, want %d", ran.Load(), 4*50)
		}
	})
}

func TestFinalTaskRunsUndeferred(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var ran atomic.Int64
		rt.Parallel(func(tc *omp.TC) {
			tc.Single(func() {
				done := false
				tc.Task(func(*omp.TC) { ran.Add(1); done = true }, omp.Final())
				// Undeferred execution means it completed synchronously.
				if !done {
					t.Error("final task was deferred")
				}
			})
		})
		if ran.Load() != 1 {
			t.Errorf("final task ran %d times", ran.Load())
		}
	})
}

func TestNestedParallelShape(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		var inner atomic.Int64
		var levels atomic.Int64
		rt.ParallelN(2, func(tc *omp.TC) {
			tc.Parallel(3, func(itc *omp.TC) {
				inner.Add(1)
				if itc.Level() == 1 && itc.NumThreads() == 3 {
					levels.Add(1)
				}
			})
		})
		if inner.Load() != 6 {
			t.Errorf("inner bodies = %d, want 6", inner.Load())
		}
		if levels.Load() != 6 {
			t.Errorf("level/size checks passed %d of 6", levels.Load())
		}
	})
}

func TestNestedDisabledSerializes(t *testing.T) {
	forEachRuntimeN(t, 4, omp.Config{}, func(t *testing.T, rt omp.Runtime) {
		// forEachRuntimeN sets Nested=true; build a non-nested one here.
		cfg := rt.Config()
		cfg.Nested = false
		rt2, err := openmp.New(rt.Name(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt2.Shutdown()
		var sizes sync.Map
		rt2.ParallelN(2, func(tc *omp.TC) {
			tc.Parallel(3, func(itc *omp.TC) {
				sizes.Store(itc.NumThreads(), true)
			})
		})
		if _, ok := sizes.Load(3); ok {
			t.Error("nested region was active despite OMP_NESTED=false")
		}
		if _, ok := sizes.Load(1); !ok {
			t.Error("serialized region did not run with team size 1")
		}
	})
}

func TestMaxActiveLevels(t *testing.T) {
	forEachRuntimeN(t, 2, omp.Config{MaxActiveLevels: 1}, func(t *testing.T, rt omp.Runtime) {
		var innerSize atomic.Int64
		rt.ParallelN(2, func(tc *omp.TC) {
			tc.Parallel(2, func(itc *omp.TC) {
				innerSize.Store(int64(itc.NumThreads()))
			})
		})
		if innerSize.Load() != 1 {
			t.Errorf("inner size = %d, want 1 (serialized at max active levels)", innerSize.Load())
		}
	})
}

func TestTripleNesting(t *testing.T) {
	forEachRuntimeN(t, 2, omp.Config{}, func(t *testing.T, rt omp.Runtime) {
		var deepest atomic.Int64
		rt.ParallelN(2, func(tc *omp.TC) {
			tc.Parallel(2, func(itc *omp.TC) {
				itc.Parallel(2, func(iitc *omp.TC) {
					if iitc.Level() == 2 {
						deepest.Add(1)
					}
				})
			})
		})
		if deepest.Load() != 8 {
			t.Errorf("level-2 bodies = %d, want 8", deepest.Load())
		}
	})
}

func TestTasksInsideNestedRegion(t *testing.T) {
	forEachRuntimeN(t, 2, omp.Config{}, func(t *testing.T, rt omp.Runtime) {
		var ran atomic.Int64
		rt.ParallelN(2, func(tc *omp.TC) {
			tc.Parallel(2, func(itc *omp.TC) {
				itc.Single(func() {
					for i := 0; i < 20; i++ {
						itc.Task(func(*omp.TC) { ran.Add(1) })
					}
				})
			})
		})
		if ran.Load() != 2*20 {
			t.Errorf("nested-region tasks ran %d, want 40", ran.Load())
		}
	})
}

func TestStatsRegionsCount(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		rt.ResetStats()
		for i := 0; i < 7; i++ {
			rt.Parallel(func(tc *omp.TC) {})
		}
		if s := rt.Stats(); s.Regions != 7 {
			t.Errorf("Regions = %d, want 7", s.Regions)
		}
	})
}

// TestConcurrentTopLevelRegions opens top-level regions from several
// goroutines at once on one GLTO runtime, so their masters contend for the
// same streams: every member must run exactly once, every region must count,
// and nothing may wedge.
func TestConcurrentTopLevelRegions(t *testing.T) {
	const openers, regions, size = 4, 200, 2
	for _, v := range variants {
		if v.runtime != "glto" {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			rt, err := openmp.New(v.runtime, omp.Config{NumThreads: 2, Backend: v.backend})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			rt.ResetStats()
			var hits [openers][regions][size]atomic.Int32
			var wg sync.WaitGroup
			for g := range openers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range regions {
						rt.ParallelN(size, func(tc *omp.TC) { hits[g][i][tc.ThreadNum()].Add(1) })
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("concurrent top-level regions wedged")
			}
			for g := range hits {
				for i := range hits[g] {
					for rank := range hits[g][i] {
						if n := hits[g][i][rank].Load(); n != 1 {
							t.Fatalf("opener %d, region %d: rank %d ran %d times, want 1", g, i, rank, n)
						}
					}
				}
			}
			if got := rt.Stats().Regions; got != openers*regions {
				t.Errorf("Regions = %d, want %d", got, openers*regions)
			}
		})
	}
}

// TestPropertyForCoverage: for arbitrary loop bounds and chunk sizes, every
// schedule covers each iteration exactly once on every runtime.
func TestPropertyForCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		prop := func(lo8 int8, span uint8, chunk8 uint8, kind uint8) bool {
			lo := int(lo8)
			hi := lo + int(span)
			chunk := int(chunk8 % 16)
			sched := omp.Schedule(kind % 3)
			hits := make(map[int]*int32)
			for i := lo; i < hi; i++ {
				v := int32(0)
				hits[i] = &v
			}
			rt.Parallel(func(tc *omp.TC) {
				tc.ForSpec(lo, hi, omp.ForOpts{Sched: sched, Chunk: chunk}, func(i int) {
					atomic.AddInt32(hits[i], 1)
				})
			})
			for _, v := range hits {
				if *v != 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

// TestPropertyReductionMatchesSerial: parallel reductions equal the serial
// fold for arbitrary inputs.
func TestPropertyReductionMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	forEachRuntime(t, func(t *testing.T, rt omp.Runtime) {
		prop := func(xs []int32) bool {
			var want int64
			for _, x := range xs {
				want += int64(x)
			}
			var got int64
			rt.Parallel(func(tc *omp.TC) {
				v := tc.ForReduceInt64(0, len(xs), omp.ForOpts{Sched: omp.Dynamic, Chunk: 3},
					0, omp.SumInt64,
					func(i int, acc int64) int64 { return acc + int64(xs[i]) })
				tc.Master(func() { got = v })
			})
			return got == want
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}
