package openmp_test

// The wait-site test: a producer buffers a burst below its flush limit and
// then spins below any task scheduling point, so the burst can run only if a
// waiter raids the producer's overflow ring. Each row parks the waiter at one
// task-scheduling wait — region end, taskgroup end, the undeferred-dependence
// spin, taskwait — and checks that the wait raids, on every runtime.
//
// Region end needs no setup: rank 0 produces, rank 1 falls straight to the
// region's end. The other waits must still be pending while the burst sits in
// the ring, so there the producer is a carrier task the waiter creates. The
// waiter spins until the carrier has started — it can only start by rank 0
// raiding it from the waiter's ring, from region end — and the carrier buffers
// the burst as its own children (members of the waiter's taskgroup) and spins
// until the burst has run. The waiter's wait cannot end before the carrier
// does, so every burst task it raids, it raids from that wait.
//
// A team of two on two threads: once rank 0 runs the producer's spin, the
// waiter is the only thread left that can raid. Event-driven throughout: the
// deadline in spinUntil is the only timed wait.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/omp"
	"repro/openmp"
)

// waitBurst is the burst size, well under the TaskBuffer flush limit.
const waitBurst = 16

// waitSites parks the waiter (rank 1) at one task-scheduling wait; a nil wait
// is region end. carry creates the carrier task with the given options and
// returns once it has started; mark records the raid count as the wait begins.
var waitSites = []struct {
	name string
	wait func(tc *omp.TC, carry func(...omp.TaskOpt), mark func())
}{
	{"region-end", nil},
	{"taskgroup", func(tc *omp.TC, carry func(...omp.TaskOpt), mark func()) {
		tc.Taskgroup(func() {
			carry()
			mark()
		})
	}},
	{"undeferred-dep", func(tc *omp.TC, carry func(...omp.TaskOpt), mark func()) {
		var x int
		carry(omp.Out(&x))
		mark()
		tc.Task(noop, omp.In(&x), omp.If(false))
	}},
	{"taskwait", func(tc *omp.TC, carry func(...omp.TaskOpt), mark func()) {
		carry()
		mark()
		tc.Taskwait()
	}},
}

func TestWaitSitesRaidBufferedBurst(t *testing.T) {
	for _, site := range waitSites {
		for _, row := range goldenRows {
			site, row := site, row
			t.Run(site.name+"/"+row.label, func(t *testing.T) {
				rt, err := openmp.New(row.rt, omp.Config{
					NumThreads: 2,
					Backend:    row.backend,
					TaskBuffer: 256,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Shutdown()
				stolen := func() int64 { return rt.Stats().TasksStolenFromBuffer }

				var ran atomic.Int64
				burst := func(tc *omp.TC) {
					for i := 0; i < waitBurst; i++ {
						tc.Task(func(*omp.TC) { ran.Add(1) })
					}
				}
				burstRan := func() bool { return ran.Load() == waitBurst }

				var started atomic.Bool
				carrier := func(ctc *omp.TC) {
					burst(ctc)
					started.Store(true)
					if !spinUntil(burstRan, 10*time.Second) {
						t.Errorf("the waiter raided %d of %d buffered tasks", ran.Load(), waitBurst)
					}
				}

				var atMark, inWait int64
				rt.ParallelN(2, func(tc *omp.TC) {
					if tc.ThreadNum() == 0 {
						if site.wait == nil {
							burst(tc)
							if !spinUntil(burstRan, 10*time.Second) {
								t.Errorf("the waiter raided %d of %d buffered tasks", ran.Load(), waitBurst)
							}
						}
						return // a carrier is raided from here, region end
					}
					if site.wait == nil {
						return
					}
					carry := func(opts ...omp.TaskOpt) {
						tc.Task(carrier, opts...)
						if !spinUntil(started.Load, 10*time.Second) {
							t.Error("rank 0 never raided the carrier from its region end")
						}
					}
					mark := func() { atMark = stolen() }
					site.wait(tc, carry, mark)
					inWait = stolen() - atMark
				})

				if got := ran.Load(); got != waitBurst {
					t.Fatalf("%d of %d burst tasks ran", got, waitBurst)
				}
				// The carrier is raided too.
				wantStolen := int64(waitBurst)
				if site.wait != nil {
					wantStolen++
				}
				s := rt.Stats()
				if s.TasksStolenFromBuffer != wantStolen {
					t.Errorf("TasksStolenFromBuffer = %d, want %d", s.TasksStolenFromBuffer, wantStolen)
				}
				if site.wait != nil && inWait != waitBurst {
					t.Errorf("raided %d tasks during the wait, want %d", inWait, waitBurst)
				}
				if s.TaskFlushes != 0 {
					t.Errorf("TaskFlushes = %d, want 0", s.TaskFlushes)
				}
			})
		}
	}
}
