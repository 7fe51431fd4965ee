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

	"repro/glt"
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
				// raid from there (and, on GLTO, idle streams raid through
				// the engine drain hook).
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

// TestBufferStealsUnderImbalanceWS: an imbalanced task storm on the ws
// backend in which every team member is busy — the producer spinning after
// its burst, the other member spinning in its body — so the ONLY consumers
// left are the idle execution streams outside the team. Those recover the
// burst through the glt engine's idle drain hook (after Pop and StealHalf
// find nothing), which is exactly what Stats.BufferSteals counts.
func TestBufferStealsUnderImbalanceWS(t *testing.T) {
	const tasks = 32
	rt, err := openmp.New("glto", omp.Config{
		NumThreads: 4, // 4 execution streams ...
		Backend:    "ws",
		TaskBuffer: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	rt.ParallelN(2, func(tc *omp.TC) { // ... but a team of 2: streams 2,3 idle
		if tc.ThreadNum() == 0 {
			for i := 0; i < tasks; i++ {
				tc.Task(func(*omp.TC) { ran.Add(1) })
			}
		}
		// Both members spin below any scheduling point, so neither can raid;
		// only the parked streams' drain hook can run the burst.
		if !spinUntil(func() bool { return ran.Load() == tasks }, 10*time.Second) {
			t.Errorf("idle streams recovered %d of %d buffered tasks", ran.Load(), tasks)
		}
	})
	if got := ran.Load(); got != tasks {
		t.Fatalf("%d of %d tasks ran", got, tasks)
	}
	s := rt.Stats()
	if s.TasksStolenFromBuffer != tasks {
		t.Errorf("TasksStolenFromBuffer = %d, want %d", s.TasksStolenFromBuffer, tasks)
	}
	gs := rt.(interface{ GLT() *glt.Runtime }).GLT().Stats()
	if gs.BufferSteals == 0 {
		t.Error("glt Stats.BufferSteals = 0: the idle drain hook never fired under an imbalanced storm")
	}
	if gs.BufferSteals != int64(tasks) {
		t.Logf("note: BufferSteals = %d of %d (in-flight raid vs barrier flush interleavings)", gs.BufferSteals, tasks)
	}
}
