package openmp_test

// Tests for the consumer-visible overflow ring: tasks sitting in a
// producer's buffer must be claimable by idle team members *between* the
// producer's scheduling points — the half of the paper's Fig. 14 analysis
// the private slice buffer could not provide. The producers below spin
// without reaching a scheduling point, so their buffered tasks can run ONLY
// if a consumer raids the ring; the tests are deterministic, not
// probabilistic, about the raid firing.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/omp"
	"repro/openmp"
)

// spinUntil busy-waits (cooperatively) until cond or the deadline; it
// reports whether cond came true. Spinning without a task scheduling point
// is the point: the producer must never flush its ring while waiting.
func spinUntil(cond func() bool, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestOverflowRingRaidedByWaiters: a producer buffers a burst below the
// flush limit and then spins inside the single construct. The buffered
// tasks reach no engine queue, so the only way they can execute is the
// waiters at the single's implicit barrier claiming them from the overflow
// ring — on every runtime, pthread and ULT alike (mode-invariant raids).
// Both wait policies and a narrow and a wide team run it: whatever spin
// budget the policy grants, a non-last barrier waiter must exhaust it and
// fall through to the wait step, which is where the raid happens.
func TestOverflowRingRaidedByWaiters(t *testing.T) {
	const tasks = 24
	for _, v := range []struct {
		label, rt, backend string
	}{
		{"gomp", "gomp", ""},
		{"iomp", "iomp", ""},
		{"glto-abt", "glto", "abt"},
		{"glto-ws", "glto", "ws"},
	} {
		v := v
		t.Run(v.label, func(t *testing.T) {
			for _, policy := range []omp.WaitPolicy{omp.PassiveWait, omp.ActiveWait} {
				for _, width := range []int{4, 16} {
					t.Run(fmt.Sprintf("%s/w%d", policy, width), func(t *testing.T) {
						raidedByWaiters(t, v.rt, v.backend, policy, width, tasks)
					})
				}
			}
		})
	}
}

// raidedByWaiters runs one TestOverflowRingRaidedByWaiters case: a width-wide
// team whose single-construct producer buffers tasks and spins.
func raidedByWaiters(t *testing.T, name, backend string, policy omp.WaitPolicy, width, tasks int) {
	rt, err := openmp.New(name, omp.Config{
		NumThreads: width,
		Backend:    backend,
		WaitPolicy: policy,
		TaskBuffer: 256, // burst stays well under the flush limit
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	rt.ParallelN(width, func(tc *omp.TC) {
		tc.Single(func() {
			for i := 0; i < tasks; i++ {
				tc.Task(func(*omp.TC) { ran.Add(1) })
			}
			// No scheduling point from here on: if the burst runs,
			// consumers raided the ring.
			if !spinUntil(func() bool { return ran.Load() == int64(tasks) }, 10*time.Second) {
				t.Errorf("consumers claimed %d of %d buffered tasks before the producer's next scheduling point",
					ran.Load(), tasks)
			}
		})
	})
	if got := ran.Load(); got != int64(tasks) {
		t.Fatalf("%d of %d tasks ran", got, tasks)
	}
	s := rt.Stats()
	if s.TasksStolenFromBuffer != int64(tasks) {
		t.Errorf("TasksStolenFromBuffer = %d, want %d (every task was ring-resident until claimed)",
			s.TasksStolenFromBuffer, tasks)
	}
	if s.TaskFlushes != 0 {
		t.Errorf("TaskFlushes = %d, want 0 (consumers drained the ring before any scheduling point)",
			s.TaskFlushes)
	}
}

// TestRingDirectoryTwoProducerRaid: the per-rank ring-directory shape — TWO
// producers on different ranks publish their overflow rings concurrently
// (each enlists in its own rank's directory on its first push) while the
// remaining ranks raid from the implicit barrier at region end. Neither
// producer reaches a scheduling point until every task has run, so the
// bursts can drain only through the lock-free raid path; each task must
// execute exactly once and the counters must account for every one of them:
// TasksStolenFromBuffer counts all claims (every task was ring-resident
// until claimed) and TaskFlushes stays zero (the rings are empty by the
// time the producers reach their barrier). Run under -race in CI.
func TestRingDirectoryTwoProducerRaid(t *testing.T) {
	const perProducer = 40
	const total = 2 * perProducer
	for _, v := range []struct {
		label, rt, backend string
	}{
		{"gomp", "gomp", ""},
		{"iomp", "iomp", ""},
		{"glto-abt", "glto", "abt"},
		{"glto-ws", "glto", "ws"},
	} {
		v := v
		t.Run(v.label, func(t *testing.T) {
			rt, err := openmp.New(v.rt, omp.Config{
				NumThreads: 4,
				Backend:    v.backend,
				TaskBuffer: 256, // both bursts stay under the flush limit
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			var seen [total]atomic.Int32
			var ran atomic.Int64
			rt.ParallelN(4, func(tc *omp.TC) {
				me := tc.ThreadNum()
				if me == 0 || me == 1 {
					base := me * perProducer
					for i := 0; i < perProducer; i++ {
						tag := base + i
						tc.Task(func(*omp.TC) {
							seen[tag].Add(1)
							ran.Add(1)
						})
					}
					// Spin below any scheduling point: if this burst runs,
					// raiders claimed it from this rank's directory.
					if !spinUntil(func() bool { return ran.Load() == total }, 10*time.Second) {
						t.Errorf("rank %d: raiders claimed %d of %d buffered tasks", me, ran.Load(), total)
					}
				}
				// Ranks 2 and 3 fall straight to the implicit barrier and
				// raid from there.
			})
			for tag := range seen {
				if got := seen[tag].Load(); got != 1 {
					t.Fatalf("task %d executed %d times, want exactly once", tag, got)
				}
			}
			s := rt.Stats()
			if s.TasksStolenFromBuffer != total {
				t.Errorf("TasksStolenFromBuffer = %d, want %d", s.TasksStolenFromBuffer, total)
			}
			if s.TaskFlushes != 0 {
				t.Errorf("TaskFlushes = %d, want 0 (raiders drained both rings before any scheduling point)", s.TaskFlushes)
			}
		})
	}
}

// TestNarrowTeamBufferedTasksRunOnce: a team of 2 on 4 execution streams,
// so two streams sit outside the team. Both members buffer tasks below the
// flush limit and then fall straight to the region end, where each flushes
// its ring or raids its peer's. Every task must run exactly once and the
// region must end with Team.Tasks drained, on a non-stealing and a stealing
// backend alike.
func TestNarrowTeamBufferedTasksRunOnce(t *testing.T) {
	const (
		regions = 20
		tasks   = 32 // per member per region
	)
	for _, backend := range []string{"abt", "ws"} {
		t.Run(backend, func(t *testing.T) {
			rt, err := openmp.New("glto", omp.Config{
				NumThreads: 4,
				Backend:    backend,
				TaskBuffer: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			for r := 0; r < regions; r++ {
				var seen [2][tasks]atomic.Int32
				var team *omp.Team
				rt.ParallelN(2, func(tc *omp.TC) {
					me := tc.ThreadNum()
					if me == 0 {
						team = tc.Team()
					}
					for i := range seen[me] {
						h := &seen[me][i]
						tc.Task(func(*omp.TC) { h.Add(1) })
					}
				})
				for me := range seen {
					for i := range seen[me] {
						if got := seen[me][i].Load(); got != 1 {
							t.Fatalf("region %d: rank %d task %d ran %d times, want exactly once", r, me, i, got)
						}
					}
				}
				if n := team.Tasks.Load(); n != 0 {
					t.Fatalf("region %d: Team.Tasks = %d at region end, want 0", r, n)
				}
			}
		})
	}
}
