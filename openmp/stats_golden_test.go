package openmp_test

// The golden Stats test: deterministic single-producer scenarios on all four
// runtimes, each asserting every omp.Stats field exactly — after the
// scenario, after ResetStats (all zero), and after one more region (the
// counters still count after a reset). It pins where each counter is
// credited, so a change to the accounting machinery that alters any count
// fails here.
//
// Determinism comes from the team shapes. Most scenarios run a one-thread
// team: nothing is stolen, and every wait finds the work it is waiting for
// on its own thread. The raid scenario uses two members, held so that the
// producer's burst can only run by the other member raiding its ring. The
// nested scenario's inner teams have two members too, and there iomp's
// barrier waiters probe the peer's deque a schedule-dependent number of
// times; each failed tour reports its probes to the tracer's StealTour hook,
// so the test counts them there and StealAttempts stays exact.
//
// PeakThreads is the one field not given as a number: it is the process-wide
// high-water mark of live OS-backed threads (internal/pthread), which other
// runtimes in the same test binary raise too and which no ResetStats clears.
// The pthread runtimes report pthread.Peak() as read during Stats; GLTO
// creates no OS threads and reports zero.

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pthread"
	"repro/omp"
	"repro/openmp"
)

var goldenRows = []struct {
	label, rt, backend string
}{
	{"gomp", "gomp", ""},
	{"iomp", "iomp", ""},
	{"glto-abt", "glto", "abt"},
	{"glto-ws", "glto", "ws"},
}

// probeTracer counts the queues probed by steal tours that found nothing.
type probeTracer struct {
	omp.CountingTracer
	probes atomic.Int64
}

func (p *probeTracer) StealTour(_ *omp.Team, visited int, found bool) {
	if !found {
		p.probes.Add(int64(visited))
	}
}

type goldenScenario struct {
	name    string
	threads int
	cfg     func(*omp.Config)
	run     func(t *testing.T, rt omp.Runtime)
	// want is the exact snapshot for runtime rt ("gomp", "iomp" or "glto";
	// both GLT backends agree), given the failed-tour probes the run made.
	want func(rt string, probes int64) omp.Stats
}

func noop(*omp.TC) {}

var goldenScenarios = []goldenScenario{
	{
		name:    "deferred",
		threads: 1,
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				for i := 0; i < 5; i++ {
					tc.Task(noop)
				}
				tc.Taskwait()
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			if rt == "glto" {
				return omp.Stats{Regions: 1, ULTsCreated: 6, TasksQueued: 5, TaskFlushes: 1}
			}
			return omp.Stats{Regions: 1, TasksQueued: 5, TaskFlushes: 1}
		},
	},
	{
		// A buffer of 4: the 4th and 8th spawns flush, taskwait flushes the rest.
		name:    "buffer-full",
		threads: 1,
		cfg:     func(c *omp.Config) { c.TaskBuffer = 4 },
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				for i := 0; i < 10; i++ {
					tc.Task(noop)
				}
				tc.Taskwait()
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			if rt == "glto" {
				return omp.Stats{Regions: 1, ULTsCreated: 11, TasksQueued: 10, TaskFlushes: 3}
			}
			return omp.Stats{Regions: 1, TasksQueued: 10, TaskFlushes: 3}
		},
	},
	{
		name:    "unbuffered",
		threads: 1,
		cfg:     func(c *omp.Config) { c.TaskBuffer = -1 },
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				for i := 0; i < 3; i++ {
					tc.Task(noop)
				}
				tc.Taskwait()
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			if rt == "glto" {
				return omp.Stats{Regions: 1, ULTsCreated: 4, TasksQueued: 3}
			}
			return omp.Stats{Regions: 1, TasksQueued: 3}
		},
	},
	{
		// if(0) tasks run inline everywhere. A final task's children are
		// final too on GLTO only; the pthread runtimes defer them (Table I).
		name:    "undeferred-final",
		threads: 1,
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				tc.Task(noop, omp.If(false))
				tc.Task(noop, omp.If(false))
				tc.Task(func(ttc *omp.TC) {
					ttc.Task(noop)
					ttc.Task(noop)
				}, omp.Final())
				tc.Taskwait()
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			if rt == "glto" {
				return omp.Stats{Regions: 1, ULTsCreated: 1}
			}
			return omp.Stats{Regions: 1, TasksQueued: 2, TaskFlushes: 1}
		},
	},
	{
		// A cut-off of 4: iomp defers four tasks, flushes them when the fifth
		// finds the queue full, and runs the fifth onwards undeferred.
		name:    "cutoff",
		threads: 1,
		cfg:     func(c *omp.Config) { c.TaskCutoff = 4 },
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				for i := 0; i < 10; i++ {
					tc.Task(noop)
				}
				tc.Taskwait()
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			switch rt {
			case "iomp":
				return omp.Stats{Regions: 1, TasksQueued: 4, TasksDirect: 6, TaskFlushes: 1}
			case "glto":
				return omp.Stats{Regions: 1, ULTsCreated: 11, TasksQueued: 10, TaskFlushes: 1}
			}
			return omp.Stats{Regions: 1, TasksQueued: 10, TaskFlushes: 1}
		},
	},
	{
		// Hot: A's completion releases B and C on the releasing thread; B runs
		// chained, C goes to the engine at the releaser's rank. Cold: D is
		// retained past its completion and its last reference is dropped by
		// plain code, with no task context, so E takes the creator-side
		// fallback. Queued: A, C, D, E; flushed: A at taskwait, D at the
		// taskgroup end.
		name:    "dependences",
		threads: 1,
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				var x, y int
				tc.Task(noop, omp.Out(&x))
				tc.Task(noop, omp.In(&x))
				tc.Task(noop, omp.In(&x))
				tc.Taskwait()
				var held atomic.Pointer[omp.TaskNode]
				tc.Taskgroup(func() {
					tc.Task(func(ttc *omp.TC) {
						n := ttc.CurTask()
						n.Retain()
						held.Store(n)
					}, omp.Out(&y))
				})
				tc.Task(noop, omp.In(&y))
				held.Load().Release()
				tc.Taskwait()
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			s := omp.Stats{
				Regions:       1,
				TasksQueued:   4,
				TaskFlushes:   2,
				TasksWithDeps: 5,
				DepReleases:   3,
				TasksChained:  1,
				LocalReleases: 1,
			}
			if rt == "glto" {
				s.ULTsCreated = 5
			}
			return s
		},
	},
	{
		// A cancelled taskgroup drains its three queued tasks and the one
		// created after the cancel; a panicking task cancels the region, so
		// the next task drains at creation and the panic resurfaces.
		name:    "cancel-panic",
		threads: 1,
		run: func(t *testing.T, rt omp.Runtime) {
			defer func() {
				if _, ok := recover().(*omp.TaskPanicError); !ok {
					t.Error("the task panic did not resurface from ParallelN")
				}
			}()
			rt.ParallelN(1, func(tc *omp.TC) {
				tc.Taskgroup(func() {
					for i := 0; i < 3; i++ {
						tc.Task(noop)
					}
					tc.CancelTaskgroup()
					tc.Task(noop)
				})
				tc.Task(func(*omp.TC) { panic("golden") })
				tc.Taskwait()
				tc.Task(noop)
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			s := omp.Stats{
				Regions:         1,
				TasksQueued:     4,
				TaskFlushes:     2,
				TasksCancelled:  5,
				PanicsRecovered: 1,
				GroupsCancelled: 2,
			}
			if rt == "glto" {
				s.ULTsCreated = 5
			}
			return s
		},
	},
	{
		// Past two tasks in flight, spawns degrade to inline execution.
		name:    "backpressure",
		threads: 1,
		cfg:     func(c *omp.Config) { c.MaxInflightTasks = 2 },
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				for i := 0; i < 5; i++ {
					tc.Task(noop)
				}
				tc.Taskwait()
			})
		},
		want: func(rt string, _ int64) omp.Stats {
			if rt == "glto" {
				return omp.Stats{Regions: 1, ULTsCreated: 3, TasksQueued: 2, TaskFlushes: 1, InlineFallbacks: 3}
			}
			return omp.Stats{Regions: 1, TasksQueued: 2, TaskFlushes: 1, InlineFallbacks: 3}
		},
	},
	{
		// Two active inner regions and one serialized one. gomp creates a
		// thread per inner region, iomp creates one and reuses it, GLTO spawns
		// ULTs.
		name:    "nested",
		threads: 1,
		run: func(t *testing.T, rt omp.Runtime) {
			rt.ParallelN(1, func(tc *omp.TC) {
				tc.Parallel(2, noop)
				tc.Parallel(2, noop)
				tc.Parallel(1, noop)
			})
		},
		want: func(rt string, probes int64) omp.Stats {
			s := omp.Stats{Regions: 1, NestedRegions: 2, SerializedRegions: 1}
			switch rt {
			case "gomp":
				s.ThreadsCreated = 2
			case "iomp":
				s.ThreadsCreated = 1
				s.ThreadsReused = 1
				s.StealAttempts = probes
			case "glto":
				s.ULTsCreated = 3
			}
			return s
		},
	},
	{
		// Rank 0 buffers a burst and spins below any scheduling point, so the
		// burst runs only if rank 1 raids the ring from its end barrier; rank
		// 1 is held until the burst is complete. iomp probes rank 0's empty
		// deque once before every raid, on top of its failed tours.
		name:    "raid",
		threads: 2,
		run: func(t *testing.T, rt omp.Runtime) {
			const tasks = 8
			var produced atomic.Bool
			var ran atomic.Int64
			rt.ParallelN(2, func(tc *omp.TC) {
				if tc.ThreadNum() == 0 {
					for i := 0; i < tasks; i++ {
						tc.Task(func(*omp.TC) { ran.Add(1) })
					}
					produced.Store(true)
					if !spinUntil(func() bool { return ran.Load() == tasks }, 10*time.Second) {
						t.Errorf("rank 1 raided %d of %d buffered tasks", ran.Load(), tasks)
					}
					return
				}
				spinUntil(produced.Load, 10*time.Second)
			})
		},
		want: func(rt string, probes int64) omp.Stats {
			s := omp.Stats{Regions: 1, TasksQueued: 8, TasksStolen: 8, TasksStolenFromBuffer: 8}
			switch rt {
			case "gomp":
				s.ThreadsCreated = 1
			case "iomp":
				s.ThreadsCreated = 1
				s.StealAttempts = probes + 8
			case "glto":
				s.ULTsCreated = 2
			}
			return s
		},
	},
}

func TestStatsGolden(t *testing.T) {
	for _, sc := range goldenScenarios {
		for _, row := range goldenRows {
			sc, row := sc, row
			t.Run(sc.name+"/"+row.label, func(t *testing.T) {
				cfg := omp.Config{NumThreads: sc.threads, Backend: row.backend, Nested: true}
				if sc.cfg != nil {
					sc.cfg(&cfg)
				}
				rt, err := openmp.New(row.rt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Shutdown()

				tr := &probeTracer{}
				prev := omp.SetTracer(tr)
				sc.run(t, rt)
				omp.SetTracer(prev)
				checkGolden(t, "after the scenario", row.rt, rt, sc.want(row.rt, tr.probes.Load()))

				rt.ResetStats()
				checkGolden(t, "after ResetStats", row.rt, rt, omp.Stats{})

				rt.ParallelN(1, noop)
				want := omp.Stats{Regions: 1}
				if row.rt == "glto" {
					want.ULTsCreated = 1
				}
				checkGolden(t, "after one more region", row.rt, rt, want)
			})
		}
	}
}

// checkGolden asserts rt's snapshot equals want in every field but
// PeakThreads, which it checks against pthread.Peak() read around the
// snapshot (see the file comment).
func checkGolden(t *testing.T, when, name string, rt omp.Runtime, want omp.Stats) {
	t.Helper()
	lo := pthread.Peak()
	got := rt.Stats()
	hi := pthread.Peak()
	if name == "glto" {
		if got.PeakThreads != 0 {
			t.Errorf("%s: PeakThreads = %d, want 0 (GLTO creates no OS threads)", when, got.PeakThreads)
		}
	} else if got.PeakThreads < lo || got.PeakThreads > hi {
		t.Errorf("%s: PeakThreads = %d, want pthread.Peak() (read %d before and %d after)", when, got.PeakThreads, lo, hi)
	}
	got.PeakThreads = 0
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Int(), wv.Field(i).Int(); g != w {
			t.Errorf("%s: %s = %d, want %d", when, gv.Type().Field(i).Name, g, w)
		}
	}
}
