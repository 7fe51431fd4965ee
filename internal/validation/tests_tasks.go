package validation

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/glt"
	"repro/omp"
)

// Task-parallelism and nesting tests, including the three checks whose
// per-runtime outcomes the paper's Table I analysis turns on: omp_taskyield,
// omp_task_untied and omp_task_final. These probe genuine scheduler
// observables, so which runtimes pass is decided by mechanism.

// spinUntil spins cooperatively, below any task scheduling point, until cond
// holds or ten seconds pass.
func spinUntil(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// holdHome is called by a task about to yield. It returns the thread the task
// runs on, numbered as TaskNode.ResumedBy numbers the thread it resumes on:
// the team rank, or on GLTO the stream modulo the team size. On a GLT backend
// whose streams steal, it also queues a holder on the task's stream that sets
// held when it runs — after the task has yielded — and keeps the stream busy
// until resumed is called; elsewhere it sets held at once.
func holdHome(tc *omp.TC, held *atomic.Bool) (home int, resumed func()) {
	home, resumed = tc.ThreadNum(), func() {}
	c, isULT := tc.Ectx().(*glt.Ctx)
	if isULT {
		home = c.Rank() % tc.NumThreads()
	}
	if !isULT || !c.Runtime().Policy().Steals() {
		held.Store(true)
		return home, resumed
	}
	var done atomic.Bool
	h := c.Spawn(func(*glt.Ctx) {
		held.Store(true)
		spinUntil(done.Load)
	})
	return home, func() {
		done.Store(true)
		h.Join()
		h.Release()
	}
}

func init() {
	add("omp_task", "task", func(e *Env) error {
		const n = 200
		var ran atomic.Int64
		spawn := true
		if e.Mode == Cross {
			spawn = false // broken: tasks never created
		}
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < n; i++ {
					if spawn {
						tc.Task(func(*omp.TC) { ran.Add(1) })
					}
				}
			})
		})
		if e.Mode == Cross {
			if ran.Load() != 0 {
				return fmt.Errorf("cross check: tasks ran without being created")
			}
			return nil
		}
		if ran.Load() != n {
			return fmt.Errorf("tasks ran %d of %d", ran.Load(), n)
		}
		return nil
	}, Normal, Cross, Orphan)

	add("omp_task_firstprivate", "task firstprivate", func(e *Env) error {
		const n = 100
		var sum atomic.Int64
		capture := e.Mode != Cross
		var leaked int64 // the shared variable of the broken variant
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < n; i++ {
					if capture {
						i := i // firstprivate: value captured at creation
						tc.Task(func(*omp.TC) { sum.Add(int64(i)) })
					} else {
						// broken: all tasks read the loop variable after the
						// loop finished
						tc.Task(func(*omp.TC) { sum.Add(atomic.LoadInt64(&leaked)) })
					}
					atomic.StoreInt64(&leaked, int64(i))
				}
			})
		})
		want := int64(n * (n - 1) / 2)
		if e.Mode == Cross {
			if sum.Load() == want {
				return fmt.Errorf("cross check failed to detect missing capture")
			}
			return nil
		}
		if sum.Load() != want {
			return fmt.Errorf("captured task data sum %d, want %d", sum.Load(), want)
		}
		return nil
	}, Normal, Cross, Orphan)

	add("omp_task_if", "task if", func(e *Env) error {
		// if(false) tasks are undeferred: complete at the spawn site.
		var bad atomic.Int64
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				done := false
				tc.Task(func(*omp.TC) { done = true }, omp.If(false))
				if !done {
					bad.Add(1)
				}
			})
		})
		if bad.Load() != 0 {
			return fmt.Errorf("if(false) task was deferred")
		}
		return nil
	}, Normal, Orphan)

	add("omp_taskwait", "taskwait", func(e *Env) error {
		var violations atomic.Int64
		wait := e.Mode != Cross
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				var done atomic.Int64
				const kids = 64
				for i := 0; i < kids; i++ {
					tc.Task(func(*omp.TC) {
						for s := 0; s < 2000; s++ {
							_ = s
						}
						done.Add(1)
					})
				}
				if wait {
					tc.Taskwait()
				}
				if done.Load() != kids {
					violations.Add(1)
				}
			})
		})
		if e.Mode == Cross {
			if violations.Load() == 0 {
				// Without taskwait the producer usually gets here first, but
				// tiny machines may drain the queue in time; tolerate.
				return nil
			}
			return nil
		}
		if violations.Load() != 0 {
			return fmt.Errorf("taskwait returned before children finished")
		}
		return nil
	}, Normal, Cross, Orphan)

	add("omp_nested_parallel", "nested parallel", func(e *Env) error {
		inner := 3
		if e.Mode == Cross {
			inner = 1 // broken: no actual inner team
		}
		var innerBodies atomic.Int64
		e.RT.ParallelN(2, func(tc *omp.TC) {
			tc.Parallel(inner, func(itc *omp.TC) {
				innerBodies.Add(1)
			})
		})
		want := int64(2 * inner)
		if e.Mode == Cross {
			if innerBodies.Load() != 2 {
				return fmt.Errorf("cross variant ran %d bodies", innerBodies.Load())
			}
			return nil
		}
		if innerBodies.Load() != want {
			return fmt.Errorf("nested bodies %d, want %d", innerBodies.Load(), want)
		}
		return nil
	}, Normal, Cross, Orphan)

	add("omp_get_level", "omp_get_level", func(e *Env) error {
		var outer, innerLvl atomic.Int64
		outer.Store(-1)
		innerLvl.Store(-1)
		e.RT.ParallelN(2, func(tc *omp.TC) {
			tc.Master(func() { outer.Store(int64(tc.Level())) })
			tc.Parallel(2, func(itc *omp.TC) {
				itc.Master(func() { innerLvl.Store(int64(itc.Level())) })
			})
		})
		if e.Mode == Cross {
			// Detector sensitivity: the levels must differ.
			if outer.Load() == innerLvl.Load() {
				return fmt.Errorf("level did not increase across nesting")
			}
			return nil
		}
		if outer.Load() != 0 || innerLvl.Load() != 1 {
			return fmt.Errorf("levels outer=%d inner=%d, want 0/1", outer.Load(), innerLvl.Load())
		}
		return nil
	}, Normal, Cross, Orphan)

	// --- The three discriminating tests of Table I ---

	add("omp_taskyield", "taskyield", func(e *Env) error {
		// A single producer creates tasks; each task records the thread that
		// started it, taskyields, and records the thread that resumed it.
		// The test passes if any task resumed on a different thread — i.e.
		// the runtime actually reschedules at taskyield. Runtimes whose
		// taskyield is a no-op (the pthread-based ones) and runtimes whose
		// ULTs stay bound to their stream after a yield (GLTO over
		// abt/qth) fail here, exactly as in the paper.
		const n = 128
		var migrated atomic.Int64
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < n; i++ {
					tc.Task(func(ttc *omp.TC) {
						start := ttc.ThreadNum()
						ttc.Taskyield()
						cur := ttc.CurTask()
						resumed := cur.ResumedBy.Load()
						if resumed >= 0 && int(resumed) != start {
							migrated.Add(1)
						}
					})
				}
			})
		})
		if migrated.Load() == 0 {
			return fmt.Errorf("no task changed threads across taskyield")
		}
		return nil
	}, Normal, Orphan)

	add("omp_task_untied", "untied task", func(e *Env) error {
		// Untied tasks may resume on a different thread after any scheduling
		// point. Rank 1 (not MassiveThreads' pinned rank 0) runs one untied
		// task that yields once; the check passes if it resumed on another
		// thread. On a GLT backend whose streams steal, holdHome keeps the
		// task's own stream busy until it resumed, so only a runtime that
		// migrates started tasks (GLTO over mth or ws) passes. The task starts
		// once every rank runs, and the other ranks keep their streams busy
		// until the holder runs, so none can take the holder first; then they
		// fall through to region end, free to take the continuation. Elsewhere
		// the task cannot move: taskyield is a no-op on the pthread runtimes,
		// and abt/qth resume a yielded ULT on its own stream.
		var arrived atomic.Int64
		var held, moved atomic.Bool
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			arrived.Add(1)
			if tc.ThreadNum() != 1 {
				spinUntil(held.Load)
				return
			}
			spinUntil(func() bool { return arrived.Load() == int64(tc.NumThreads()) })
			tc.Task(func(ttc *omp.TC) {
				home, resumed := holdHome(ttc, &held)
				ttc.Taskyield()
				resumed()
				if r := ttc.CurTask().ResumedBy.Load(); r >= 0 && int(r) != home {
					moved.Store(true)
				}
			}, omp.Untied(), omp.If(false))
		})
		if !moved.Load() {
			return fmt.Errorf("the untied task did not migrate between threads")
		}
		return nil
	}, Normal, Orphan)

	add("omp_task_final", "final task", func(e *Env) error {
		// Children of a final task must themselves be final: included,
		// undeferred, executed immediately by the same thread. Runtimes
		// that treat final as a one-level undeferred hint (the 2017 pthread
		// runtimes) defer the grandchildren and fail.
		var bad atomic.Int64
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				tc.Task(func(ttc *omp.TC) {
					me := ttc.ThreadNum()
					// Atomics: where finality is not inherited, the child is
					// deferred and may run on another thread while we check.
					var childDone atomic.Bool
					var childThread atomic.Int64
					childThread.Store(-1)
					ttc.Task(func(ittc *omp.TC) {
						childThread.Store(int64(ittc.ThreadNum()))
						childDone.Store(true)
					})
					// Inherited finality means the child already ran, here,
					// on this thread.
					if !childDone.Load() || childThread.Load() != int64(me) {
						bad.Add(1)
					}
				}, omp.Final())
				tc.Taskwait()
			})
		})
		if bad.Load() != 0 {
			return fmt.Errorf("final task's child was not executed immediately in place")
		}
		return nil
	}, Normal)
}
