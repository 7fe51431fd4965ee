package omp

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestScheduleString(t *testing.T) {
	cases := map[Schedule]string{Static: "static", Dynamic: "dynamic", Guided: "guided", Schedule(9): "unknown"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestWaitPolicyString(t *testing.T) {
	if ActiveWait.String() != "active" || PassiveWait.String() != "passive" {
		t.Error("WaitPolicy strings wrong")
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.NumThreads < 1 {
		t.Errorf("NumThreads default %d", c.NumThreads)
	}
	if c.TaskCutoff != DefaultTaskCutoff {
		t.Errorf("TaskCutoff default %d", c.TaskCutoff)
	}
	if c.Backend != "abt" {
		t.Errorf("Backend default %q", c.Backend)
	}
}

func TestEffectiveCutoff(t *testing.T) {
	if got := (Config{TaskCutoff: -1}).EffectiveCutoff(); got < 1<<30 {
		t.Errorf("negative cutoff should mean unbounded, got %d", got)
	}
	if got := (Config{}).EffectiveCutoff(); got != DefaultTaskCutoff {
		t.Errorf("zero cutoff = %d, want %d", got, DefaultTaskCutoff)
	}
	if got := (Config{TaskCutoff: 17}).EffectiveCutoff(); got != 17 {
		t.Errorf("explicit cutoff = %d", got)
	}
}

func TestConfigFromEnv(t *testing.T) {
	// The second spelling is the OpenMP specification's: values are
	// case-insensitive and may carry surrounding whitespace.
	for _, env := range []map[string]string{{
		"OMP_NUM_THREADS": "5", "OMP_NESTED": "true", "OMP_WAIT_POLICY": "active",
		"OMP_SCHEDULE": "dynamic,8", "OMP_MAX_ACTIVE_LEVELS": "3", "OMP_PROC_BIND": "true",
		"KMP_TASK_CUTOFF": "64", "GLT_BACKEND": "qth", "GLT_SHARED_QUEUES": "1",
		"OMP_TASK_BUFFER": "32",
	}, {
		"OMP_NUM_THREADS": " 5 ", "OMP_NESTED": " TRUE", "OMP_WAIT_POLICY": "ACTIVE",
		"OMP_SCHEDULE": " Dynamic, 8 ", "OMP_MAX_ACTIVE_LEVELS": "3\t", "OMP_PROC_BIND": "True ",
		"KMP_TASK_CUTOFF": " 64", "GLT_BACKEND": " QTH ", "GLT_SHARED_QUEUES": " On ",
		"OMP_TASK_BUFFER": " 32",
	}} {
		for k, v := range env {
			t.Setenv(k, v)
		}
		c := Config{}.FromEnv()
		if c.NumThreads != 5 || !c.Nested || c.WaitPolicy != ActiveWait || !c.BindProc {
			t.Errorf("basic env parsing of %q: %+v", env, c)
		}
		if c.Schedule != Dynamic || c.Chunk != 8 {
			t.Errorf("OMP_SCHEDULE parsing of %q: %+v", env, c)
		}
		if c.MaxActiveLevels != 3 || c.TaskCutoff != 64 {
			t.Errorf("levels/cutoff parsing of %q: %+v", env, c)
		}
		if c.Backend != "qth" || !c.SharedQueues {
			t.Errorf("GLT env parsing of %q: %+v", env, c)
		}
		if c.TaskBuffer != 32 {
			t.Errorf("OMP_TASK_BUFFER parsing of %q: %+v", env, c)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in    string
		kind  Schedule
		chunk int
	}{
		{"static", Static, 0},
		{"dynamic", Dynamic, 0},
		{"guided, 4", Guided, 4},
		{"DYNAMIC,16", Dynamic, 16},
		{"bogus", Static, 0},
		{"dynamic,-3", Dynamic, 0},
	}
	for _, c := range cases {
		k, ch := parseSchedule(c.in)
		if k != c.kind || ch != c.chunk {
			t.Errorf("parseSchedule(%q) = %v,%d want %v,%d", c.in, k, ch, c.kind, c.chunk)
		}
	}
}

func TestLockMutualExclusion(t *testing.T) {
	var l Lock
	var counter int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Set()
				counter++
				l.Unset()
			}
		}()
	}
	wg.Wait()
	if counter != 4000 {
		t.Errorf("counter = %d", counter)
	}
}

func TestLockTest(t *testing.T) {
	var l Lock
	if !l.Test() {
		t.Fatal("Test failed on free lock")
	}
	if l.Test() {
		t.Fatal("Test succeeded on held lock")
	}
	l.Unset()
}

func TestNestLockReentrancy(t *testing.T) {
	var l NestLock
	me := "owner"
	if n := l.Set(me); n != 1 {
		t.Fatalf("first Set = %d", n)
	}
	if n := l.Set(me); n != 2 {
		t.Fatalf("second Set = %d", n)
	}
	l.Unset(me)
	l.Unset(me)
	// Now another owner can take it.
	if n := l.Test("other"); n != 1 {
		t.Fatalf("other's Test = %d", n)
	}
	l.Unset("other")
}

func TestNestLockBlocksOthers(t *testing.T) {
	var l NestLock
	l.Set("a")
	acquired := make(chan struct{})
	go func() {
		l.Set("b")
		close(acquired)
		l.Unset("b")
	}()
	select {
	case <-acquired:
		t.Fatal("foreign owner acquired a held nest lock")
	default:
	}
	l.Unset("a")
	<-acquired
}

func TestNestLockUnsetByNonOwnerPanics(t *testing.T) {
	var l NestLock
	l.Set("a")
	defer l.Unset("a")
	defer func() {
		if recover() == nil {
			t.Error("Unset by non-owner did not panic")
		}
	}()
	l.Unset("b")
}

func TestAtomicAddFloat64Concurrent(t *testing.T) {
	var bits uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				AtomicAddFloat64(&bits, 0.25)
			}
		}()
	}
	wg.Wait()
	if got := Float64FromBits(bits); got != 2000 {
		t.Errorf("atomic float sum = %v, want 2000", got)
	}
}

func TestAtomicMaxMin(t *testing.T) {
	var m int64 = 5
	AtomicMaxInt64(&m, 3)
	if m != 5 {
		t.Error("max lowered the value")
	}
	AtomicMaxInt64(&m, 9)
	if m != 9 {
		t.Error("max did not raise the value")
	}
	bits := Float64Bits(2.5)
	AtomicMinFloat64(&bits, 3.5)
	if Float64FromBits(bits) != 2.5 {
		t.Error("min raised the value")
	}
	AtomicMinFloat64(&bits, 1.5)
	if Float64FromBits(bits) != 1.5 {
		t.Error("min did not lower the value")
	}
}

func TestWtimeMonotonic(t *testing.T) {
	a := Wtime()
	b := Wtime()
	if b < a {
		t.Errorf("Wtime went backwards: %v -> %v", a, b)
	}
}

// waitStepOps drives the barrier's wait steps by hand: tryTask and idle
// stand in for the engine's TryRunTask and Idle hooks.
type waitStepOps struct {
	barrierOps
	tryTask func() bool
	idle    func()
}

func (o waitStepOps) TryRunTask(*TC) bool { return o.tryTask() }
func (o waitStepOps) Idle(*TC)            { o.idle() }

func TestBarrierStateSingleParticipant(t *testing.T) {
	idles := 0
	ops := waitStepOps{tryTask: func() bool { return false }, idle: func() { idles++ }}
	team := NewTeam(1, 0, Config{}, nil)
	team.Bar.wait(NewTC(team, 0, ops, nil, nil))
	if idles != 0 {
		t.Errorf("size-1 barrier idled %d times", idles)
	}
}

func TestBarrierStateDrainsTasks(t *testing.T) {
	team := NewTeam(1, 0, Config{}, nil)
	tasks := &team.Tasks
	tasks.Store(3)
	ran := 0
	ops := waitStepOps{tryTask: func() bool {
		if tasks.Load() == 0 {
			return false
		}
		tasks.Add(-1)
		ran++
		return true
	}, idle: func() { t.Fatal("idled with runnable tasks") }}
	team.Bar.wait(NewTC(team, 0, ops, nil, nil))
	if ran != 3 {
		t.Errorf("drained %d tasks, want 3", ran)
	}
}

func TestStatsQueuedTaskPercent(t *testing.T) {
	if p := (Stats{}).QueuedTaskPercent(); p != 0 {
		t.Errorf("empty stats percent = %v", p)
	}
	s := Stats{TasksQueued: 3, TasksDirect: 1}
	if p := s.QueuedTaskPercent(); p != 75 {
		t.Errorf("3/4 queued = %v%%", p)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterRuntime("dup-test", nil)
	RegisterRuntime("dup-test", nil)
}

func TestNewRuntimeUnknown(t *testing.T) {
	if _, err := NewRuntime("no-such-runtime", Config{}); err == nil {
		t.Error("expected error for unknown runtime")
	}
}

// TestPropertyNestLockCountNeverNegative: arbitrary interleavings of
// Set/Test/Unset from one owner keep the nesting count consistent.
func TestPropertyNestLockCountNeverNegative(t *testing.T) {
	prop := func(ops []bool) bool {
		var l NestLock
		depth := 0
		for _, set := range ops {
			if set {
				l.Set("x")
				depth++
			} else if depth > 0 {
				l.Unset("x")
				depth--
			}
		}
		for depth > 0 {
			l.Unset("x")
			depth--
		}
		return l.Test("y") == 1 // fully released: another owner can take it
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
