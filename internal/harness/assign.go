package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/glt"
	"repro/glt/trace"
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

// assignVariants are the runtimes the assign experiment compares: both
// pthread engines and the bracketing GLT backends (abt as the mutex-pool
// representative, ws as the lock-free one).
var assignVariants = []Variant{
	{"GCC", "gomp", ""},
	{"Intel", "iomp", ""},
	{"GLTO(ABT)", "glto", "abt"},
	{"GLTO(WS)", "glto", "ws"},
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

// assignSink keeps assignSpin from being optimised away; every team member
// adds to it, hence the atomic.
var assignSink atomic.Int64

func runAssign(cfg Config) error {
	cfg = cfg.withDefaults()
	regions := scaleInt(200, cfg.Scale, 20)
	labels := variantLabels(assignVariants)
	frac := NewTable(fmt.Sprintf("Assignment fraction %% of (assign+exec), %d regions, busy-work body", regions),
		"threads", labels)
	p99 := NewTable("Assignment latency p99 (dispatch→member start)", "threads", labels)
	prom := NewTable("GLT promotions / ULTs started (members that yielded and got a private goroutine; the rest ran inline), token handoffs per yield",
		"threads", labels)

	met := &trace.Metrics{}
	prev := omp.SetTracer(omp.NewFlightTracer(nil, met))
	defer omp.SetTracer(prev)

	for _, n := range cfg.Threads {
		for _, v := range assignVariants {
			rt, err := v.New(n, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
			if err != nil {
				return err
			}
			body := func(tc *omp.TC) { assignSink.Add(int64(assignSpin())) }
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
				cell := fmt.Sprintf("%d/%d", gs.Promotions, gs.ULTsStarted)
				if gs.Yields > 0 {
					cell += fmt.Sprintf(", %.2f h/y", float64(gs.Handoffs)/float64(gs.Yields))
				}
				prom.Set(fmt.Sprint(n), v.Label, cell)
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
	return nil
}
