package repro_test

// Allocation-regression guards for the pooled region path. The SPI redesign
// made steady-state region respawn allocation-free by construction on every
// runtime (front-end Team/TC pooling + glt descriptor recycling + the
// generation-counted join gate); these tests pin that property so it cannot
// silently regress. They run under -short, so CI's test step enforces them
// on every push.

import (
	"testing"

	"repro/glt"
	"repro/glt/trace"
	"repro/internal/harness"
	"repro/omp"
)

// regionAllocCeiling is the accepted steady-state allocation budget per
// region respawn (the ISSUE-2 acceptance bound; measured 0 at submission,
// the slack absorbs GC-emptied sync.Pools).
const regionAllocCeiling = 2.0

func TestRegionRespawnAllocCeiling(t *testing.T) {
	variants := []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	}
	body := func(*omp.TC) {}
	for _, v := range variants {
		v := v
		t.Run(v.Label, func(t *testing.T) {
			rt, err := v.New(benchThreads, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			for i := 0; i < 50; i++ {
				rt.ParallelN(benchThreads, body) // warm descriptor and shell pools
			}
			got := testing.AllocsPerRun(100, func() { rt.ParallelN(benchThreads, body) })
			t.Logf("%s: %.2f allocs/region", v.Label, got)
			if got > regionAllocCeiling {
				t.Errorf("%s respawn allocates %.2f/region, ceiling %.1f", v.Label, got, regionAllocCeiling)
			}
		})
	}
}

// TestPromotionAllocFree pins the cost of a ULT leaving the inline path: a
// promotion takes the stream's next driver from the shell pool and parks on
// gates embedded in the descriptor, so in steady state a whole
// spawn→yield→join→release cycle allocates nothing — no goroutine, no
// per-promotion channel.
func TestPromotionAllocFree(t *testing.T) {
	for _, backend := range []string{"abt", "ws"} {
		t.Run(backend, func(t *testing.T) {
			g := glt.MustNew(glt.Config{Backend: backend, NumThreads: 1})
			defer g.Shutdown()
			body := func(c *glt.Ctx) { c.Yield() }
			cycle := func() {
				u := g.Spawn(0, body)
				u.Join()
				u.Release()
			}
			for i := 0; i < 100; i++ {
				cycle() // warm the descriptor and shell pools and the gates' park channels
			}
			if got := testing.AllocsPerRun(200, cycle); got > 0 {
				t.Errorf("promotion cycle allocates %.2f/op, want 0", got)
			}
			if s := g.Stats(); s.Promotions != 301 {
				t.Errorf("Promotions = %d, want one per cycle (301)", s.Promotions)
			}
		})
	}
}

// taskSpawnAllocCeiling is the accepted steady-state allocation budget per
// deferred task spawn (the ISSUE-4 acceptance bound; measured 0 at
// submission on every runtime — the TaskNode and its task-scoped TC now come
// from the team's sharded descriptor pools, the overflow ring and flush
// scratch are retained per TC, and the engines' queues/deques/unit
// descriptors were already recycled. The slack absorbs GC-emptied pools and
// the per-run region/closure overhead, amortized over the task count).
const taskSpawnAllocCeiling = 1.0

// emptyTaskBody is package-level so the measured loop creates no closure per
// task — the residual is the runtime's own per-task footprint.
var emptyTaskBody = func(*omp.TC) {}

// TestTaskSpawnAllocCeiling pins the allocation-free explicit-task
// lifecycle: a steady-state deferred-task storm (single producer, batched
// submission, consumers raiding and stealing) must not allocate per task on
// any of the three runtimes. It replaces the looser ceiling-6 bound that
// predated descriptor pooling.
func TestTaskSpawnAllocCeiling(t *testing.T) {
	const tasks = 64
	for _, v := range []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	} {
		v := v
		t.Run(v.Label, func(t *testing.T) {
			rt, err := v.New(benchThreads, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			run := func() {
				rt.ParallelN(benchThreads, func(tc *omp.TC) {
					tc.Single(func() {
						for i := 0; i < tasks; i++ {
							tc.Task(emptyTaskBody)
						}
					})
				})
			}
			for i := 0; i < 20; i++ {
				run() // warm descriptor pools, rings, unit caches, shells
			}
			got := testing.AllocsPerRun(30, run)
			perTask := got / tasks
			t.Logf("%s: %.2f allocs/run, %.3f per task", v.Label, got, perTask)
			if perTask > taskSpawnAllocCeiling {
				t.Errorf("%s task spawn allocates %.3f per task, ceiling %.1f",
					v.Label, perTask, taskSpawnAllocCeiling)
			}
		})
	}
}

// TestAllocCeilingsWithTracingEnabled re-runs both steady-state guards with
// the full observability stack live — a FlightTracer feeding a flight
// recorder and the latency histograms — and holds them to the SAME ceilings.
// This is the tentpole's allocation contract: every hook stores duration
// stamps in the pooled descriptors it instruments and emits into
// fixed-capacity rings, so turning tracing on must not add a single
// steady-state allocation per region or per task.
func TestAllocCeilingsWithTracingEnabled(t *testing.T) {
	rec := trace.Start(benchThreads, 1<<10)
	defer trace.Stop()
	met := &trace.Metrics{}
	prev := omp.SetTracer(omp.NewFlightTracer(rec, met))
	defer omp.SetTracer(prev)

	const tasks = 64
	for _, v := range []harness.Variant{
		{Label: "GCC", Runtime: "gomp"},
		{Label: "Intel", Runtime: "iomp"},
		{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"},
		{Label: "GLTO(WS)", Runtime: "glto", Backend: "ws"},
	} {
		v := v
		t.Run(v.Label, func(t *testing.T) {
			rt, err := v.New(benchThreads, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()

			region := func() { rt.ParallelN(benchThreads, emptyTaskBody) }
			for i := 0; i < 50; i++ {
				region()
			}
			if got := testing.AllocsPerRun(100, region); got > regionAllocCeiling {
				t.Errorf("%s traced respawn allocates %.2f/region, ceiling %.1f",
					v.Label, got, regionAllocCeiling)
			}

			storm := func() {
				rt.ParallelN(benchThreads, func(tc *omp.TC) {
					tc.Single(func() {
						for i := 0; i < tasks; i++ {
							tc.Task(emptyTaskBody)
						}
					})
				})
			}
			for i := 0; i < 20; i++ {
				storm()
			}
			got := testing.AllocsPerRun(30, storm)
			if perTask := got / tasks; perTask > taskSpawnAllocCeiling {
				t.Errorf("%s traced task spawn allocates %.3f per task, ceiling %.1f",
					v.Label, perTask, taskSpawnAllocCeiling)
			}
			if rec.Dropped() == 0 && met.Assign.Count() == 0 {
				t.Error("tracing was supposedly enabled but no samples landed")
			}
		})
	}
}
