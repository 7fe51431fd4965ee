package validation

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/omp"
)

// Dependence-semantics tests (task depend clauses: omp.In/Out/InOut).
//
// These live in a separate extension registry, not the paper registry: the
// OpenUH 3.1 suite the paper ran predates depend-clause coverage, and the
// paper registry's shape (123 tests / 62 constructs, Table I) is asserted by
// the tests. The extension suite runs through RunExtSuite on the same
// four-runtime matrix.

// extRegistry accumulates the dependence extension suite during init.
var extRegistry []Test

// addExt registers one extension check under the given modes.
func addExt(name, construct string, fn func(e *Env) error, modes ...Mode) {
	if len(modes) == 0 {
		modes = []Mode{Normal}
	}
	for _, m := range modes {
		extRegistry = append(extRegistry, Test{Name: name, Construct: construct, Mode: m, Run: fn})
	}
}

// RunExtSuite executes the dependence extension suite against rt.
func RunExtSuite(rt omp.Runtime, threads int) Report {
	rep := Report{Runtime: rt.Name(), Backend: rt.Config().Backend}
	for _, t := range extRegistry {
		e := &Env{RT: rt, Threads: threads, Mode: t.Mode}
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			err = t.Run(e)
		}()
		rep.Outcomes = append(rep.Outcomes, Outcome{Test: t, Err: err})
	}
	return rep
}

func init() {
	addExt("omp_task_depend_in_out_chain", "task depend", func(e *Env) error {
		// A strict out→in→out→… chain over one address must execute in
		// creation order even though every task is deferred: each link
		// records the sequence number it observed.
		const n = 64
		var x any = new(int)
		order := make([]int64, n)
		var clock atomic.Int64
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < n; i++ {
					i := i
					if i%2 == 0 {
						tc.Task(func(*omp.TC) { order[i] = clock.Add(1) }, omp.Out(x))
					} else {
						tc.Task(func(*omp.TC) { order[i] = clock.Add(1) }, omp.In(x), omp.Out(x))
					}
				}
			})
		})
		for i := 0; i < n; i++ {
			if order[i] != int64(i+1) {
				return fmt.Errorf("task %d ran at step %d, want %d", i, order[i], i+1)
			}
		}
		return nil
	}, Normal, Orphan)

	addExt("omp_task_depend_inout_serialization", "task depend", func(e *Env) error {
		// N inout tasks on the same address must be mutually exclusive and
		// ordered: a plain (non-atomic) counter reaches exactly N only if no
		// two tasks ever overlapped, and an in-flight flag catches overlap
		// directly.
		const n = 128
		var x any = new(int)
		count := 0
		var inFlight atomic.Int32
		var overlap atomic.Bool
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < n; i++ {
					tc.Task(func(*omp.TC) {
						if inFlight.Add(1) != 1 {
							overlap.Store(true)
						}
						count++
						inFlight.Add(-1)
					}, omp.InOut(x))
				}
			})
		})
		if overlap.Load() {
			return fmt.Errorf("two inout tasks on one address overlapped")
		}
		if count != n {
			return fmt.Errorf("counter reached %d of %d (lost update ⇒ unserialized)", count, n)
		}
		return nil
	}, Normal, Orphan)

	addExt("omp_task_depend_independent_out", "task depend", func(e *Env) error {
		// Out tasks on distinct addresses share no edges: all must complete,
		// and each address's in-successor must observe exactly its own
		// writer's value (no cross-address ordering or data mixing).
		const n = 40
		addrs := make([]int, n)
		got := make([]int64, n)
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < n; i++ {
					i := i
					tc.Task(func(*omp.TC) { addrs[i] = i + 1 }, omp.Out(&addrs[i]))
				}
				for i := 0; i < n; i++ {
					i := i
					tc.Task(func(*omp.TC) { got[i] = int64(addrs[i]) }, omp.In(&addrs[i]))
				}
			})
		})
		for i := 0; i < n; i++ {
			if got[i] != int64(i+1) {
				return fmt.Errorf("reader %d saw %d, want %d", i, got[i], i+1)
			}
		}
		return nil
	}, Normal, Orphan)

	addExt("omp_task_depend_readers_then_writer", "task depend", func(e *Env) error {
		// In-readers after one writer may run concurrently, but the next
		// writer must wait for all of them: WAR edges, the directional case
		// the in→out chain does not cover.
		const readers = 32
		var x any = new(int)
		val := 0
		var seen atomic.Int64
		after := int64(-1)
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				tc.Task(func(*omp.TC) { val = 42 }, omp.Out(x))
				for i := 0; i < readers; i++ {
					tc.Task(func(*omp.TC) {
						if val == 42 {
							seen.Add(1)
						}
					}, omp.In(x))
				}
				tc.Task(func(*omp.TC) {
					after = seen.Load()
					val = 0
				}, omp.InOut(x))
			})
		})
		if seen.Load() != readers {
			return fmt.Errorf("%d of %d readers saw the writer's value", seen.Load(), readers)
		}
		if after != readers {
			return fmt.Errorf("second writer ran after %d of %d readers", after, readers)
		}
		return nil
	}, Normal, Orphan)

	addExt("omp_task_depend_across_buffering", "task depend", func(e *Env) error {
		// Dependence chains interleaved with a flood of depend-free tasks:
		// the free tasks flow through the producer buffer / flush / raid
		// fabric and keep consumers busy stealing while the chains' releases
		// fire from whichever thread finishes a predecessor — deps must hold
		// across task buffering and raiding, not only in quiet conditions.
		const chains = 8
		const depth = 24
		var toks [chains]int
		prog := make([]atomic.Int64, chains)
		var broken atomic.Bool
		var free atomic.Int64
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for d := 0; d < depth; d++ {
					d := d
					for c := 0; c < chains; c++ {
						c := c
						tc.Task(func(*omp.TC) {
							if !prog[c].CompareAndSwap(int64(d), int64(d+1)) {
								broken.Store(true)
							}
						}, omp.InOut(&toks[c]))
						// Two depend-free fillers per link keep the buffers
						// and rings hot around every release.
						tc.Task(func(*omp.TC) { free.Add(1) })
						tc.Task(func(*omp.TC) { free.Add(1) })
					}
				}
			})
		})
		if broken.Load() {
			return fmt.Errorf("a chain link ran out of order")
		}
		for c := 0; c < chains; c++ {
			if prog[c].Load() != depth {
				return fmt.Errorf("chain %d completed %d of %d links", c, prog[c].Load(), depth)
			}
		}
		if free.Load() != chains*depth*2 {
			return fmt.Errorf("filler tasks ran %d of %d", free.Load(), chains*depth*2)
		}
		return nil
	}, Normal)

	addExt("omp_task_depend_undeferred", "task depend", func(e *Env) error {
		// An if(false) task with dependences is undeferred but must still
		// wait for its predecessors at the task scheduling point.
		var x any = new(int)
		val := 0
		got := -1
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				tc.Task(func(*omp.TC) { val = 7 }, omp.Out(x))
				tc.Task(func(*omp.TC) { got = val }, omp.If(false), omp.In(x))
			})
		})
		if got != 7 {
			return fmt.Errorf("undeferred dependent task saw %d, want 7", got)
		}
		return nil
	}, Normal)

	addExt("omp_task_depend_cholesky_bitwise", "task depend", func(e *Env) error {
		// End-to-end numerical witness for the locality-first release path:
		// a tiled Cholesky whose task graph carries priorities (potrf >
		// trsm > syrk/gemm) must produce the BITWISE-identical factor the
		// serial loop nest produces, however releases were chained, hot-
		// dispatched or queued. Each tile element is written by exactly one
		// ordered task chain, so any reordering past a dependence edge
		// changes an FP operand order and flips low bits — `==` on every
		// element is the strongest possible order oracle.
		ch := dataflow.NewCholesky(5, 8, 3)
		want := ch.FactorSerial()
		for rep := 0; rep < 3; rep++ {
			got := ch.FactorTasks(e.RT, e.Threads)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						return fmt.Errorf("rep %d: L[%d][%d] = %x, want %x (bitwise)",
							rep, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
		return nil
	}, Normal)

	addExt("omp_task_depend_wavefront_bitwise", "task depend", func(e *Env) error {
		// Same discipline for the sparse triangular solve: row chunks form a
		// wavefront DAG and every x[i] is a fixed-order dot product over
		// earlier entries, so chaining or priority reordering that crossed
		// an edge would perturb bits. Serial oracle, `==` per element.
		w := dataflow.NewWavefront(600, 30, 11)
		want := w.SolveSerial()
		for rep := 0; rep < 3; rep++ {
			got := w.SolveTasks(e.RT, e.Threads)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("rep %d: x[%d] = %x, want %x (bitwise)", rep, i, got[i], want[i])
				}
			}
		}
		return nil
	}, Normal)

	addExt("omp_task_depend_taskwait", "task depend", func(e *Env) error {
		// taskwait must cover parked descendants: a chain spawned before the
		// taskwait has to be fully drained by it, via the ordinary child
		// refcounts (the "comes for free" property of the design).
		const depth = 16
		var x any = new(int)
		steps := 0
		after := -1
		e.RT.ParallelN(e.Threads, func(tc *omp.TC) {
			tc.Single(func() {
				for i := 0; i < depth; i++ {
					tc.Task(func(*omp.TC) { steps++ }, omp.InOut(x))
				}
				tc.Taskwait()
				after = steps
			})
		})
		if after != depth {
			return fmt.Errorf("taskwait returned with %d of %d chain links done", after, depth)
		}
		return nil
	}, Normal, Orphan)
}
