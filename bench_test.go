// Package repro_test holds the top-level benchmark suite: one testing.B
// benchmark per table and figure of the paper's evaluation section (`go run
// ./cmd/glto-bench -list` indexes the experiments and runs the full sweeps;
// these benches are the fixed-size, go-test-runnable versions), plus
// ablation benches for the design decisions the README's "Scheduling
// architecture" section describes.
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/glt"
	_ "repro/glt/backends"
	"repro/glt/qth/feb"
	"repro/glt/trace"
	"repro/internal/cg"
	"repro/internal/cloverleaf"
	"repro/internal/dataflow"
	"repro/internal/harness"
	"repro/internal/pthread"
	"repro/internal/uts"
	"repro/internal/validation"
	"repro/omp"
	"repro/openmp"
)

// benchThreads is the team size used by the fixed-size benches.
const benchThreads = 4

// shortN trims a sweep parameter under -short, so CI can exercise every
// benchmark code path without paying for the full paper-scale runs.
func shortN(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func newRT(b *testing.B, v harness.Variant, mutate func(*omp.Config)) omp.Runtime {
	return newRTN(b, v, benchThreads, mutate)
}

func newRTN(b *testing.B, v harness.Variant, threads int, mutate func(*omp.Config)) omp.Runtime {
	b.Helper()
	rt, err := v.New(threads, mutate)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Shutdown)
	return rt
}

func perVariant(b *testing.B, vs []harness.Variant, run func(b *testing.B, v harness.Variant)) {
	for _, v := range vs {
		v := v
		b.Run(v.Label, func(b *testing.B) { run(b, v) })
	}
}

// BenchmarkFig4UTS: UTS in the environment-creator scenario, per runtime.
func BenchmarkFig4UTS(b *testing.B) {
	params := uts.Tiny // the harness runs T1XXLScaled; Tiny keeps `go test -bench` quick
	perVariant(b, harness.PaperVariants, func(b *testing.B, v harness.Variant) {
		rt := newRT(b, v, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			params.CountOpenMP(rt, benchThreads)
		}
	})
}

// BenchmarkFig5Native: UTS over raw pthreads and each native LWT backend.
func BenchmarkFig5Native(b *testing.B) {
	params := uts.Tiny
	b.Run("PTH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			params.CountPthreads(benchThreads)
		}
	})
	for _, backend := range []string{"abt", "qth", "mth"} {
		backend := backend
		b.Run(backend, func(b *testing.B) {
			g, err := glt.New(glt.Config{Backend: backend, NumThreads: benchThreads})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params.CountGLT(g)
			}
		})
	}
}

// BenchmarkFig6CloverLeaf: one hydro timestep per iteration, per runtime.
func BenchmarkFig6CloverLeaf(b *testing.B) {
	perVariant(b, harness.PaperVariants, func(b *testing.B, v harness.Variant) {
		rt := newRT(b, v, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
		sim := cloverleaf.NewSimulation(48, 48)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Step(rt, benchThreads)
		}
	})
}

// BenchmarkFig7Dispatch: the cost of an empty parallel region (the
// work-assignment step).
func BenchmarkFig7Dispatch(b *testing.B) {
	perVariant(b, harness.PaperVariants, func(b *testing.B, v harness.Variant) {
		rt := newRT(b, v, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
		rt.ParallelN(benchThreads, func(tc *omp.TC) {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.ParallelN(benchThreads, func(tc *omp.TC) {})
		}
	})
}

func nestedBench(b *testing.B, outer int) {
	outer = shortN(outer, 10)
	perVariant(b, harness.PaperVariants, func(b *testing.B, v harness.Variant) {
		rt := newRT(b, v, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.ParallelN(benchThreads, func(tc *omp.TC) {
				tc.For(0, outer, func(k int) {
					tc.Parallel(benchThreads, func(itc *omp.TC) {
						itc.For(0, outer, func(j int) {})
					})
				})
			})
		}
	})
}

// BenchmarkFig8Nested100: the Listing-1 nested microbenchmark, outer=100.
func BenchmarkFig8Nested100(b *testing.B) { nestedBench(b, 100) }

// BenchmarkFig9Nested1000: outer=1000. Dominated by OS-thread creation on
// the pthread runtimes, exactly as in the paper.
func BenchmarkFig9Nested1000(b *testing.B) {
	if testing.Short() {
		b.Skip("large nested bench skipped in -short")
	}
	nestedBench(b, 1000)
}

var (
	benchProblemOnce sync.Once
	benchProblemVal  *cg.Problem
)

// benchProblem builds the CG system lazily so its size can honour -short
// (testing.Short is only valid after flag parsing).
func benchProblem() *cg.Problem {
	benchProblemOnce.Do(func() {
		benchProblemVal = cg.NewProblem(shortN(1500, 240), 7)
	})
	return benchProblemVal
}

func cgBench(b *testing.B, granularity int) {
	perVariant(b, harness.TaskVariants, func(b *testing.B, v harness.Variant) {
		rt := newRT(b, v, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchProblem().SolveTasks(rt, benchThreads, cg.Opts{MaxIter: 5, Granularity: granularity})
		}
	})
}

// BenchmarkFig10CG .. BenchmarkFig13CG: the task-parallel CG at the paper's
// four granularities.
func BenchmarkFig10CG(b *testing.B) { cgBench(b, 10) }
func BenchmarkFig11CG(b *testing.B) { cgBench(b, 20) }
func BenchmarkFig12CG(b *testing.B) { cgBench(b, 50) }
func BenchmarkFig13CG(b *testing.B) { cgBench(b, 100) }

// BenchmarkFig14Cutoff: 4,000 single-producer tasks under the three cut-off
// values of Fig. 14.
func BenchmarkFig14Cutoff(b *testing.B) {
	cutoffs := []int{16, 256, 4096}
	if testing.Short() {
		cutoffs = []int{256} // the paper's default; one point covers the path
	}
	for _, cutoff := range cutoffs {
		cutoff := cutoff
		tasks := shortN(4000, 400)
		b.Run(fmt.Sprint(cutoff), func(b *testing.B) {
			rt, err := openmp.New("iomp", omp.Config{
				NumThreads: benchThreads, TaskCutoff: cutoff, Nested: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.ParallelN(benchThreads, func(tc *omp.TC) {
					tc.Single(func() {
						for k := 0; k < tasks; k++ {
							tc.Task(func(*omp.TC) {})
						}
					})
				})
			}
		})
	}
}

// BenchmarkTable1Validation: one full validation-suite pass per runtime.
func BenchmarkTable1Validation(b *testing.B) {
	perVariant(b, harness.PaperVariants, func(b *testing.B, v harness.Variant) {
		rt := newRT(b, v, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := validation.RunSuite(rt, benchThreads)
			if rep.Passed() < 100 {
				b.Fatalf("suite collapsed: %d passed", rep.Passed())
			}
		}
	})
}

// BenchmarkTable2Nested: the Table II accounting run (nested constructs at
// the paper's 100 outer iterations), timed per full run.
func BenchmarkTable2Nested(b *testing.B) {
	for _, v := range []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO", Runtime: "glto", Backend: "abt"},
	} {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			rt := newRT(b, v, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.ParallelN(benchThreads, func(tc *omp.TC) {
					tc.For(0, 100, func(k int) {
						tc.Parallel(benchThreads, func(itc *omp.TC) {
							itc.For(0, 100, func(j int) {})
						})
					})
				})
			}
		})
	}
}

// BenchmarkTable3QueuedTasks: the CG run whose queue accounting produces
// Table III, timed per granularity on the Intel-like runtime.
func BenchmarkTable3QueuedTasks(b *testing.B) {
	granularities := cg.Granularities
	if testing.Short() {
		granularities = granularities[:1]
	}
	for _, g := range granularities {
		g := g
		b.Run(fmt.Sprint(g), func(b *testing.B) {
			rt, err := openmp.New("iomp", omp.Config{NumThreads: benchThreads, Nested: true})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchProblem().SolveTasks(rt, benchThreads, cg.Opts{MaxIter: 3, Granularity: g})
			}
			b.StopTimer()
			s := rt.Stats()
			b.ReportMetric(s.QueuedTaskPercent(), "%queued")
		})
	}
}

// --- Ablation benches (README.md, "Scheduling architecture") ---

// BenchmarkAblationULTvsGoroutine: a ULT (spawned onto a stream, run inline
// there, joined) against a bare goroutine-per-work-unit, isolating the cost
// of execution-stream discipline.
func BenchmarkAblationULTvsGoroutine(b *testing.B) {
	b.Run("ULT", func(b *testing.B) {
		g := glt.MustNew(glt.Config{Backend: "abt", NumThreads: benchThreads})
		defer g.Shutdown()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Spawn(i%benchThreads, func(*glt.Ctx) {}).Join()
		}
	})
	b.Run("goroutine", func(b *testing.B) {
		done := make(chan struct{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			go func() { done <- struct{}{} }()
			<-done
		}
	})
	b.Run("pthread", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pthread.Create(func() {}).Join()
		}
	})
}

// BenchmarkAblationTaskletVsULT: Argobots' stackless work units against
// full ULTs, per spawn+join. Every unit starts inline on its stream, so for
// a body that never yields the two are the same path and the gap between
// "tasklet" and "ult" is noise; what a ULT's stack costs shows in
// "ult_yield_once", whose single yield buys one promotion (stream handoff to
// a pooled goroutine), one resume through the token gates and the
// goroutine's return to the pool.
func BenchmarkAblationTaskletVsULT(b *testing.B) {
	g := glt.MustNew(glt.Config{Backend: "abt", NumThreads: benchThreads})
	defer g.Shutdown()
	b.Run("tasklet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.SpawnTasklet(i%benchThreads, func() {}).Join()
		}
	})
	b.Run("ult", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Spawn(i%benchThreads, func(*glt.Ctx) {}).Join()
		}
	})
	b.Run("ult_yield_once", func(b *testing.B) {
		body := func(c *glt.Ctx) { c.Yield() }
		for i := 0; i < b.N; i++ {
			g.Spawn(i%benchThreads, body).Join()
		}
	})
}

// BenchmarkAblationDispatch: GLTO's two task-dispatch modes — round-robin
// (producer inside single) versus thread-local (every thread produces).
func BenchmarkAblationDispatch(b *testing.B) {
	const tasks = 512
	b.Run("round-robin-single", func(b *testing.B) {
		rt := newRT(b, harness.Variant{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"}, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.ParallelN(benchThreads, func(tc *omp.TC) {
				tc.Single(func() {
					for k := 0; k < tasks; k++ {
						tc.Task(func(*omp.TC) {})
					}
				})
			})
		}
	})
	b.Run("thread-local", func(b *testing.B) {
		rt := newRT(b, harness.Variant{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"}, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.ParallelN(benchThreads, func(tc *omp.TC) {
				for k := 0; k < tasks/benchThreads; k++ {
					tc.Task(func(*omp.TC) {})
				}
				tc.Taskwait()
			})
		}
	})
}

// BenchmarkAblationSharedQueues: GLT_SHARED_QUEUES under an imbalanced task
// load (paper §IV-F): one stream receives every task unless the shared pool
// rebalances.
func BenchmarkAblationSharedQueues(b *testing.B) {
	for _, shared := range []bool{false, true} {
		shared := shared
		name := "private"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			g := glt.MustNew(glt.Config{Backend: "abt", NumThreads: benchThreads, SharedQueues: shared})
			defer g.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				units := make([]*glt.Unit, 64)
				for k := range units {
					// All units target stream 0: pure imbalance.
					units[k] = g.Spawn(0, func(*glt.Ctx) {
						var acc float64
						for s := 0; s < 5000; s++ {
							acc += float64(s)
						}
						_ = acc
					})
				}
				for _, u := range units {
					u.Join()
				}
			}
		})
	}
}

// BenchmarkAblationFEBStripes: Qthreads' word-lock table contention as a
// function of stripe count, the knob behind the qth backend's scaling.
func BenchmarkAblationFEBStripes(b *testing.B) {
	counts := []int{1, 8, 32, 256}
	if testing.Short() {
		counts = []int{feb.DefaultStripes}
	}
	for _, stripes := range counts {
		stripes := stripes
		b.Run(fmt.Sprint(stripes), func(b *testing.B) {
			tab := feb.NewTable(stripes)
			words := make([]feb.Word, 16)
			for i := range words {
				words[i].Init(tab, 0)
			}
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					words[i%len(words)].TouchFE()
					i++
				}
			})
		})
	}
}

// benchTaskBody is package-level so the task-spawn benches pay no per-task
// closure allocation; what remains is the runtime's own footprint.
var benchTaskBody = func(*omp.TC) {}

// BenchmarkTaskSpawn: the steady-state deferred-task hot path — one region,
// a single producer, tasks per op — on every runtime. Run with -benchmem:
// the allocation-free task lifecycle is accepted on ~0 allocs per task
// (tasks per op amortize the region and closure overhead; the CI guard is
// TestTaskSpawnAllocCeiling at ≤ 1 alloc/task). The per-op figure divides
// by the task count via the tasks/op metric.
func BenchmarkTaskSpawn(b *testing.B) {
	const tasks = 64
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, v := range variants {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			rt := newRT(b, v, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
			run := func() {
				rt.ParallelN(benchThreads, func(tc *omp.TC) {
					tc.Single(func() {
						for k := 0; k < tasks; k++ {
							tc.Task(benchTaskBody)
						}
					})
				})
			}
			for i := 0; i < 10; i++ {
				run() // warm descriptor pools, rings, unit caches
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(tasks, "tasks/op")
		})
	}
}

// BenchmarkDepWavefront: the dependence subsystem's end-to-end cost — one
// sparse triangular solve per op, scheduled purely by depend clauses: a
// single producer registers the chunk DAG (address-map lookups + lock-free
// edge adds), parked tasks release through EngineOps.Enqueue as
// predecessors drop their last reference, and released tasks flow through
// the ordinary queue/ring/steal fabric. The problem shape is fixed (4000
// rows, 50-row chunks) so the series tracks subsystem overhead, not kernel
// FLOPS; releases/op confirms the DAG actually parked (≈ chunks-1 when the
// producer outruns the consumers).
func BenchmarkDepWavefront(b *testing.B) {
	w := dataflow.NewWavefront(4000, 50, 7)
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, v := range variants {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			rt := newRT(b, v, nil)
			run := func() { w.SolveTasks(rt, benchThreads) }
			for i := 0; i < 3; i++ {
				run() // warm descriptor pools, trackers, unit caches
			}
			rt.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			b.ReportMetric(float64(rt.Stats().DepReleases)/float64(b.N), "releases/op")
		})
	}
}

// BenchmarkDepCholesky: the dependence subsystem under a real DAG — one
// tiled Cholesky factorization per op on a fixed 8×8 tile grid of 24×24
// tiles, expressed purely through depend clauses with the critical-path
// priorities (potrf > trsm > syrk/gemm). Unlike the wavefront's near-linear
// chain this DAG has wide fan-out (one POTRF releases a panel of TRSMs) and
// fan-in (each GEMM joins two inputs), so it exercises the best-successor
// selection and the hot/chained dispatch split rather than pure chain
// latency.
func BenchmarkDepCholesky(b *testing.B) {
	c := dataflow.NewCholesky(8, 24, 1)
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, v := range variants {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			rt := newRT(b, v, nil)
			run := func() { c.FactorTasks(rt, benchThreads) }
			for i := 0; i < 3; i++ {
				run() // warm descriptor pools, trackers, unit caches
			}
			rt.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			b.ReportMetric(float64(rt.Stats().DepReleases)/float64(b.N), "releases/op")
		})
	}
}

// BenchmarkCancelStorm: the cancellation drain path at scale — one region per
// op in which a single producer spawns a 4096-task dependence graph (InOut
// chains over 64 addresses, so most tasks park behind a predecessor) and
// cancels the taskgroup at the 50% mark. The first half executes; everything
// in flight at the cancel — queued, rung, parked on a dep edge — must drain
// through the bookkeeping-only path, and the second half degrades to
// spawn-time drains. ns/op is therefore the cost of unwinding ~2k tasks
// through rings, deques and dep cascades without running them; drained/op
// confirms the storm actually cancelled (≈ half the graph when the producer
// outruns the consumers).
func BenchmarkCancelStorm(b *testing.B) {
	tasks := shortN(4096, 512)
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, v := range variants {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			rt := newRT(b, v, nil)
			var dep [64]int64
			run := func() {
				rt.ParallelN(benchThreads, func(tc *omp.TC) {
					tc.Single(func() {
						tc.Taskgroup(func() {
							for i := 0; i < tasks; i++ {
								tc.Task(benchTaskBody, omp.InOut(&dep[i%len(dep)]))
								if i == tasks/2 {
									tc.CancelTaskgroup()
								}
							}
						})
					})
				})
			}
			for i := 0; i < 3; i++ {
				run() // warm descriptor pools, trackers, unit caches
			}
			rt.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			b.ReportMetric(float64(rt.Stats().TasksCancelled)/float64(b.N), "drained/op")
		})
	}
}

// contentionBurst is one round of BenchmarkConsumerContention's shape: the
// producer, inside a single construct, bursts tasks into its overflow ring
// and then spins below any scheduling point, so the burst can drain only
// through the other members raiding the ring from the single's implicit
// barrier (plus, on GLTO, idle streams through the engine drain hook).
// Every task therefore crosses the raid path, whose synchronization is what
// gets measured.
//
// On a raid-path regression the producer gives up after a generous deadline
// rather than wedging the caller: returning reaches the single's implicit
// barrier, whose flush drains the leftovers so the region still completes.
// The returned count is how many tasks the raiders claimed before the
// producer stopped spinning — tasks on success, fewer on the give-up path —
// so callers can report the shortfall from their own goroutine (a Fatalf
// inside the region body would run on a team member).
func contentionBurst(rt omp.Runtime, n, tasks int) int64 {
	var ran atomic.Int64
	body := func(*omp.TC) { ran.Add(1) }
	claimed := int64(tasks)
	rt.ParallelN(n, func(tc *omp.TC) {
		tc.Single(func() {
			for k := 0; k < tasks; k++ {
				tc.Task(body)
			}
			deadline := time.Now().Add(30 * time.Second)
			for ran.Load() != int64(tasks) {
				if time.Now().After(deadline) {
					claimed = ran.Load()
					return
				}
				runtime.Gosched()
			}
		})
	})
	return claimed
}

// BenchmarkConsumerContention: the consumer-side raid path under maximum
// contention — a wide team in which ONE producer bursts deferred tasks into
// its overflow ring and then spins below any scheduling point, so the burst
// can only drain through the other N-1 members raiding the ring concurrently
// from the single's implicit barrier (plus, on GLTO, idle execution streams
// through the engine drain hook). Every claimed task crosses the ring raid
// (TC.Hunt or Team.StealBufferedTaskFrom), which makes this the benchmark
// for the raid registry's synchronization: with the mutex ringSet all
// raiders serialized on one team lock; with the per-rank ring directories
// the steady-state raid performs no mutex acquisition at all. steals/op counts the tasks that
// moved through the raid path per region (== tasks/op when nothing leaked to
// a flush).
func BenchmarkConsumerContention(b *testing.B) {
	// Full size stays below the 256-slot ring, so no flush can rescue the
	// burst; the -short size keeps the same property while letting the CI
	// smoke finish in seconds.
	tasks := shortN(192, 48)
	ranks := shortN(8, 4)
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, v := range variants {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			rt := newRTN(b, v, ranks, func(c *omp.Config) { c.TaskBuffer = 256 })
			for i := 0; i < shortN(3, 1); i++ {
				contentionBurst(rt, ranks, tasks) // warm rings, pools, directories
			}
			rt.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if claimed := contentionBurst(rt, ranks, tasks); claimed != int64(tasks) {
					b.Fatalf("raiders claimed only %d of %d tasks", claimed, tasks)
				}
			}
			b.StopTimer()
			s := rt.Stats()
			b.ReportMetric(float64(s.TasksStolenFromBuffer)/float64(b.N), "steals/op")
			b.ReportMetric(float64(tasks), "tasks/op")
		})
	}
}

// BenchmarkRegionRespawn: the ParallelN respawn hot path on every runtime,
// under the default pooled front end (teams recycled, batched dispatch)
// against the paper-faithful per-unit mode (omp.Config.PerUnitDispatch).
// Run with -benchmem: the SPI redesign is accepted on ≤ 2 allocs/op for the
// pooled variant of each runtime (the ceiling TestRegionRespawnAllocCeiling
// enforces in CI).
func BenchmarkRegionRespawn(b *testing.B) {
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, mode := range []struct {
		name    string
		perUnit bool
	}{{"pooled", false}, {"per-unit", true}} {
		mode := mode
		for _, v := range variants {
			v := v
			b.Run(mode.name+"/"+v.Label, func(b *testing.B) {
				rt := newRT(b, v, func(c *omp.Config) {
					c.PerUnitDispatch = mode.perUnit
					c.WaitPolicy = omp.ActiveWait
				})
				rt.ParallelN(benchThreads, func(tc *omp.TC) {})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt.ParallelN(benchThreads, func(tc *omp.TC) {})
				}
			})
		}
	}
}

// runBarrierBench times one region of the given width containing `barriers`
// explicit barriers, on a fresh runtime for the variant.
func runBarrierBench(b *testing.B, v harness.Variant, width, barriers int) {
	rt := newRTN(b, v, width, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
	body := func(tc *omp.TC) {
		for i := 0; i < barriers; i++ {
			tc.Barrier()
		}
	}
	rt.ParallelN(width, body) // warm the team pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.ParallelN(width, body)
	}
	b.ReportMetric(float64(barriers), "barriers/op")
}

// BenchmarkBarrier: the barrier hot path — one region per op with 64
// explicit barriers inside — swept across team widths 2, 8 and 32, on both
// pthread engines and two GLT backends.
func BenchmarkBarrier(b *testing.B) {
	const barriers = 64
	widths := []int{2, 8, 32}
	if testing.Short() {
		widths = []int{2, 8}
	}
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, width := range widths {
		for _, v := range variants {
			v := v
			width := width
			b.Run(fmt.Sprintf("w%d/%s", width, v.Label), func(b *testing.B) {
				runBarrierBench(b, v, width, barriers)
			})
		}
	}
}

// BenchmarkTraceOverhead: the cost of observability — one region with an
// explicit barrier and a 32-task single-producer burst per op, measured
// with tracing fully off (the hooks' one-atomic-load fast path) and with
// the whole stack live (FlightTracer feeding a flight recorder and the
// latency histograms). The enabled/disabled ratio is the number the
// flight-recorder design is accountable to.
func BenchmarkTraceOverhead(b *testing.B) {
	const tasks = 32
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	for _, mode := range []string{"disabled", "enabled"} {
		mode := mode
		for _, v := range variants {
			v := v
			b.Run(v.Label+"/"+mode, func(b *testing.B) {
				rt := newRT(b, v, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
				if mode == "enabled" {
					rec := trace.Start(benchThreads, 1<<12)
					met := &trace.Metrics{}
					prev := omp.SetTracer(omp.NewFlightTracer(rec, met))
					b.Cleanup(func() {
						omp.SetTracer(prev)
						trace.Stop()
					})
				}
				run := func() {
					rt.ParallelN(benchThreads, func(tc *omp.TC) {
						tc.Barrier()
						tc.Single(func() {
							for k := 0; k < tasks; k++ {
								tc.Task(benchTaskBody)
							}
						})
					})
				}
				for i := 0; i < 10; i++ {
					run()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
