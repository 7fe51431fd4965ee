package openmp_test

// Tests for the producer-side task buffer introduced by the runtime SPI
// redesign: batched submission must change only *when* deferred tasks reach
// the engine's queues (scheduling points and buffer-full), never the
// semantics of undeferred execution, the Intel cut-off's deferral decisions
// (Fig. 14's observable), or task-completion synchronization.

import (
	"sync/atomic"
	"testing"

	"repro/omp"
	"repro/openmp"
)

var allRuntimes = []struct {
	name    string
	backend string
}{
	{"gomp", ""},
	{"iomp", ""},
	{"glto", "abt"},
}

func newBufRT(t *testing.T, name, backend string, mutate func(*omp.Config)) omp.Runtime {
	t.Helper()
	cfg := omp.Config{NumThreads: 4, Backend: backend, Nested: true}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := openmp.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// TestUndeferredTasksBypassBuffer: if(0) and final tasks must execute inline
// at the spawn site, observable before tc.Task returns — buffering them
// would defer what the spec says is undeferred.
func TestUndeferredTasksBypassBuffer(t *testing.T) {
	for _, v := range allRuntimes {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rt := newBufRT(t, v.name, v.backend, nil)
			rt.ParallelN(2, func(tc *omp.TC) {
				tc.Single(func() {
					var ran atomic.Bool
					tc.Task(func(*omp.TC) { ran.Store(true) }, omp.If(false))
					if !ran.Load() {
						t.Error("if(0) task had not run when Task returned")
					}
					ran.Store(false)
					tc.Task(func(*omp.TC) { ran.Store(true) }, omp.Final())
					if !ran.Load() {
						t.Error("final task had not run when Task returned")
					}
				})
			})
		})
	}
}

// TestBufferFlushesAtTaskwait: tasks below the buffer limit are invisible to
// the engine until a scheduling point; taskwait is one, and must both flush
// and wait, so every child has run when it returns.
func TestBufferFlushesAtTaskwait(t *testing.T) {
	for _, v := range allRuntimes {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rt := newBufRT(t, v.name, v.backend, nil)
			var ran atomic.Int64
			rt.ParallelN(2, func(tc *omp.TC) {
				tc.Single(func() {
					for i := 0; i < 8; i++ { // well under DefaultTaskBuffer
						tc.Task(func(*omp.TC) { ran.Add(1) })
					}
					tc.Taskwait()
					if got := ran.Load(); got != 8 {
						t.Errorf("after taskwait %d of 8 children ran", got)
					}
				})
			})
		})
	}
}

// TestBufferFullFlushes: a burst larger than the buffer must flush mid-burst
// (TaskFlushes > 0) and still run every task by the region's end barrier.
func TestBufferFullFlushes(t *testing.T) {
	for _, v := range allRuntimes {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rt := newBufRT(t, v.name, v.backend, func(c *omp.Config) { c.TaskBuffer = 4 })
			var ran atomic.Int64
			rt.ParallelN(2, func(tc *omp.TC) {
				tc.Single(func() {
					for i := 0; i < 19; i++ { // 4 full flushes + 3 left for the barrier
						tc.Task(func(*omp.TC) { ran.Add(1) })
					}
				})
			})
			if got := ran.Load(); got != 19 {
				t.Errorf("%d of 19 tasks ran", got)
			}
			if s := rt.Stats(); s.TaskFlushes == 0 {
				t.Error("TaskFlushes = 0 after an over-buffer burst")
			}
		})
	}
}

// TestCutoffCountsBufferedTasks pins the Fig. 14 observable: the Intel
// cut-off decision must see buffered-but-unflushed tasks as queue length, so
// deferral statistics are bit-identical with batching on or off. One thread
// makes it deterministic: no consumer drains the queue while the producer
// decides.
func TestCutoffCountsBufferedTasks(t *testing.T) {
	const cutoff, tasks = 16, 64
	modes := []struct {
		name   string
		mutate func(*omp.Config)
	}{
		{"batched", nil},
		{"unbuffered", func(c *omp.Config) { c.TaskBuffer = -1 }},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			cfg := omp.Config{NumThreads: 1, TaskCutoff: cutoff}
			if mode.mutate != nil {
				mode.mutate(&cfg)
			}
			rt, err := openmp.New("iomp", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			rt.ParallelN(1, func(tc *omp.TC) {
				tc.Single(func() {
					for i := 0; i < tasks; i++ {
						tc.Task(func(*omp.TC) {})
					}
				})
			})
			s := rt.Stats()
			// With one thread nothing drains the queue mid-burst: exactly
			// cutoff tasks defer, the rest run undeferred — in every mode.
			if s.TasksQueued != cutoff || s.TasksDirect != tasks-cutoff {
				t.Errorf("queued/direct = %d/%d, want %d/%d",
					s.TasksQueued, s.TasksDirect, cutoff, tasks-cutoff)
			}
		})
	}
}

// TestBufferedTasksVisibleToHelpers: a taskgroup wait is a scheduling point;
// tasks buffered inside it (including tasks created by tasks) must all
// complete before Taskgroup returns.
func TestTaskgroupFlushesBuffer(t *testing.T) {
	for _, v := range allRuntimes {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rt := newBufRT(t, v.name, v.backend, nil)
			var ran atomic.Int64
			rt.ParallelN(2, func(tc *omp.TC) {
				tc.Single(func() {
					tc.Taskgroup(func() {
						for i := 0; i < 4; i++ {
							tc.Task(func(ttc *omp.TC) {
								// A grandchild created from inside a running
								// task exercises the task-completion flush.
								ttc.Task(func(*omp.TC) { ran.Add(1) })
								ran.Add(1)
							})
						}
					})
					if got := ran.Load(); got != 8 {
						t.Errorf("after taskgroup %d of 8 descendants ran", got)
					}
				})
			})
		})
	}
}

// TestTaskBufferEnvKnob: OMP_TASK_BUFFER reaches Config.FromEnv.
func TestTaskBufferEnvKnob(t *testing.T) {
	t.Setenv("OMP_TASK_BUFFER", "7")
	c := omp.Config{}.FromEnv()
	if c.TaskBuffer != 7 {
		t.Errorf("TaskBuffer from env = %d, want 7", c.TaskBuffer)
	}
	if got := c.EffectiveTaskBuffer(); got != 7 {
		t.Errorf("EffectiveTaskBuffer = %d, want 7", got)
	}
	t.Setenv("OMP_TASK_BUFFER", "-1")
	c = omp.Config{}.FromEnv()
	if got := c.EffectiveTaskBuffer(); got != 0 {
		t.Errorf("EffectiveTaskBuffer = %d for -1, want 0 (disabled)", got)
	}
	if got := (omp.Config{}).EffectiveTaskBuffer(); got != omp.DefaultTaskBuffer {
		t.Errorf("EffectiveTaskBuffer default = %d, want %d", got, omp.DefaultTaskBuffer)
	}
}
