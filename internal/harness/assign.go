package harness

import (
	"fmt"
	"time"

	"repro/glt"
	"repro/glt/trace"
	"repro/internal/dataflow"
	"repro/omp"
)

// The assign experiment is the observability-stack reproduction of Fig. 7:
// instead of timing empty regions from outside (experiment fig7), it
// installs a FlightTracer and measures, from inside the runtime, how each
// region's wall-clock splits between work ASSIGNMENT (the fork-side
// dispatch latency, RegionBegin→MemberStart per member) and work EXECUTION
// (MemberStart→MemberEnd). The paper's Fig. 7 argument — that the
// pthread-based runtimes pay a growing dispatch cost as threads are added
// while the LWT-based ones keep it flat — falls out as the assignment
// fraction per runtime × thread count.
func init() {
	register(Experiment{
		ID:    "assign",
		Title: "Fig. 7 breakdown: work-assignment vs execution fraction per region (flight-recorder histograms)",
		Run:   runAssign,
	})
}

// assignSpin is the fixed busy-work member body: large enough that the
// execution side is non-trivial at every thread count, small enough that
// the dispatch side stays visible in the fraction.
func assignSpin() int {
	s := 0
	for i := 0; i < 50_000; i++ {
		s += i * i
	}
	return s
}

var assignSink int

func runAssign(cfg Config) error {
	cfg = cfg.withDefaults()
	regions := scaledIters(cfg, 200, 20)
	labels := variantLabels(benchDiffVariants)
	frac := NewTable(fmt.Sprintf("Assignment fraction %% of (assign+exec), %d regions, busy-work body", regions),
		"threads", labels)
	p99 := NewTable("Assignment latency p99 (dispatch→member start)", "threads", labels)
	prom := NewTable("GLT promotions / ULTs started (members that yielded and got a private goroutine; the rest ran inline)",
		"threads", labels)

	met := &trace.Metrics{}
	prev := omp.SetTracer(omp.NewFlightTracer(nil, met))
	defer omp.SetTracer(prev)

	for _, n := range cfg.Threads {
		for _, v := range benchDiffVariants {
			rt, err := v.New(n, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
			if err != nil {
				return err
			}
			body := func(tc *omp.TC) { assignSink += assignSpin() }
			for i := 0; i < 5; i++ {
				rt.ParallelN(n, body) // warm pools before measuring dispatch
			}
			met.Reset()
			rt.ResetStats()
			for i := 0; i < regions; i++ {
				rt.ParallelN(n, body)
			}
			prom.Set(fmt.Sprint(n), v.Label, "—")
			if g, ok := rt.(interface{ GLT() *glt.Runtime }); ok {
				gs := g.GLT().Stats()
				prom.Set(fmt.Sprint(n), v.Label, fmt.Sprintf("%d/%d", gs.Promotions, gs.ULTsStarted))
			}
			rt.Shutdown()
			a, e := met.Assign.Mean(), met.Exec.Mean()
			if a+e > 0 {
				frac.Set(fmt.Sprint(n), v.Label, fmt.Sprintf("%5.2f%%", 100*a/(a+e)))
			}
			p99.Set(fmt.Sprint(n), v.Label,
				time.Duration(met.Assign.P99()).Round(100*time.Nanosecond).String())
		}
	}
	frac.Render(cfg.Out)
	p99.Render(cfg.Out)
	prom.Render(cfg.Out)
	if err := runAssignDataflow(cfg, met); err != nil {
		return err
	}
	return runAssignCancellation(cfg)
}

// runAssignCancellation surfaces the failure-semantics side of the work-
// assignment story in the flight recorder: a taskgroup burst cancelled
// before its wait emits one task_cancel event per drained task (in place of
// the start/end pair), which must agree with the stats ledger — the
// recorder view and the counter view of the same drain.
func runAssignCancellation(cfg Config) error {
	const threads, tasks = 4, 256
	tbl := NewTable(fmt.Sprintf("Cancellation drain: %d-task group cancelled before its wait, single producer", tasks),
		"variant", []string{"CancelEvents", "TasksCancelled", "GroupsCancelled"})
	for _, v := range benchDiffVariants {
		rt, err := v.New(threads, nil)
		if err != nil {
			return err
		}
		rec := trace.NewRecorder(threads, 4096)
		prev := omp.SetTracer(omp.NewFlightTracer(rec, nil))
		rt.ParallelN(1, func(tc *omp.TC) {
			tc.Taskgroup(func() {
				for i := 0; i < tasks; i++ {
					tc.Task(func(*omp.TC) {})
				}
				tc.CancelTaskgroup()
			})
		})
		omp.SetTracer(prev)
		s := rt.Stats()
		rt.Shutdown()
		events, _ := rec.Drain()
		cancels := 0
		for _, ev := range events {
			if ev.Kind == trace.KindTaskCancel {
				cancels++
			}
		}
		tbl.Set(v.Label, "CancelEvents", fmt.Sprint(cancels))
		tbl.Set(v.Label, "TasksCancelled", fmt.Sprint(s.TasksCancelled))
		tbl.Set(v.Label, "GroupsCancelled", fmt.Sprint(s.GroupsCancelled))
	}
	tbl.Render(cfg.Out)
	return nil
}

// runAssignDataflow is the dependence-release analogue of the Fig. 7 split:
// for dataflow workloads the runtime's "work assignment step" is the
// release→start hand-off of each parked task, which the FlightTracer's
// DepRelease histogram times and its path-tagged release events attribute.
// The table compares chaining on (release-to-self + hot dispatch, the
// default) against the pre-chaining release path (OMP_DEP_CHAIN off): the
// assignment fraction is the share of total thread-time the DAG's tasks
// spent between release and start, and Chained/Local split DepReleases by
// which locality path fired — chained releases start inline, so their
// samples land near zero and pull both the fraction and the p99 down.
func runAssignDataflow(cfg Config, met *trace.Metrics) error {
	iters := scaledIters(cfg, 30, 3)
	const threads = 4
	w := dataflow.NewWavefront(4000, 50, 7)
	tbl := NewTable(fmt.Sprintf("Dataflow dep-release split: wavefront 4000×50, %d threads, %d solves", threads, iters),
		"variant/chain", []string{"Assign%", "RelMean", "RelP99", "Chained%", "Local%", "Fallback%"})
	modes := []struct {
		name  string
		depth int
	}{
		{"chain", omp.DefaultDepChain},
		{"off", -1},
	}
	for _, v := range benchDiffVariants {
		for _, m := range modes {
			rt, err := v.New(threads, func(c *omp.Config) { c.DepChain = m.depth })
			if err != nil {
				return err
			}
			run := func() { w.SolveTasks(rt, threads) }
			for i := 0; i < 3; i++ {
				run()
			}
			rt.ResetStats()
			met.Reset()
			start := time.Now()
			for i := 0; i < iters; i++ {
				run()
			}
			wall := time.Since(start)
			s := rt.Stats()
			rt.Shutdown()
			row := v.Label + "/" + m.name
			if wall > 0 {
				tbl.Set(row, "Assign%", fmt.Sprintf("%5.2f%%",
					100*float64(met.DepRelease.Sum())/(float64(threads)*float64(wall.Nanoseconds()))))
			}
			tbl.Set(row, "RelMean", time.Duration(met.DepRelease.Mean()).Round(100*time.Nanosecond).String())
			tbl.Set(row, "RelP99", time.Duration(met.DepRelease.P99()).Round(100*time.Nanosecond).String())
			if s.DepReleases > 0 {
				pct := func(n int64) string {
					return fmt.Sprintf("%5.1f%%", 100*float64(n)/float64(s.DepReleases))
				}
				tbl.Set(row, "Chained%", pct(s.TasksChained))
				tbl.Set(row, "Local%", pct(s.LocalReleases))
				tbl.Set(row, "Fallback%", pct(s.DepReleases-s.TasksChained-s.LocalReleases))
			}
		}
	}
	tbl.Render(cfg.Out)
	return nil
}
