package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/glt"
	"repro/omp"
	"repro/openmp"
)

// rtSpec is one of the four runtimes under comparison; name prefixes its
// metrics.
type rtSpec struct {
	name, runtime, backend string
}

var runtimes = []rtSpec{
	{"gomp", "gomp", ""},
	{"iomp", "iomp", ""},
	{"glto_abt", "glto", "abt"},
	{"glto_ws", "glto", "ws"},
}

// new builds the runtime from a literal configuration: the paper's ICVs
// (§VI-A) and nothing read from the environment.
func (s rtSpec) new(threads int, wait omp.WaitPolicy) (omp.Runtime, error) {
	return openmp.New(s.runtime, omp.Config{
		NumThreads: threads,
		Nested:     true,
		BindProc:   true,
		WaitPolicy: wait,
		Backend:    s.backend,
	})
}

// config is the load model of one run. The benchmark fixes it; the code under
// test cannot stretch or shorten a run.
type config struct {
	seed    uint64
	threads int
	// rounds of untraced visits; each round visits the four runtimes in
	// rotated order so host drift is spread over them. tracedRounds more
	// follow in a traced run, with the span tracer installed.
	rounds, tracedRounds int
	// slice is the wall length of one timed slice.
	slice time.Duration
	// warmOps operations run untimed before every slice.
	warmOps int
	// prepareReps times input generation plus oracle this many times.
	prepareReps int
	// trace adds the traced visits, the probes and the serial-body slice.
	trace bool
	// probeBatches is the batch count behind each probe's median; probeDiv
	// divides the probes' inner iteration counts (smoke runs only).
	probeBatches, probeDiv int
}

// newConfig splits a run of the given length into forty slices. An
// end-to-end run spends them on ten rounds of the four runtimes (quietMedian
// says why ten short visits and not a few long ones). A traced run spends
// sixteen slices on four untraced rounds, eight on two traced rounds and one
// on the serial body, and leaves the rest of its time to the probes.
func newConfig(seed uint64, seconds float64, trace bool) config {
	c := config{
		seed:         seed,
		threads:      min(runtime.NumCPU(), 4),
		rounds:       10,
		slice:        time.Duration(seconds / 40 * float64(time.Second)),
		warmOps:      20,
		prepareReps:  3,
		trace:        trace,
		probeBatches: 9,
		probeDiv:     1,
	}
	if trace {
		c.rounds, c.tracedRounds = 4, 2
	}
	return c
}

// smokeConfig exercises every code path in well under a second per workload.
func smokeConfig(seed uint64, trace bool) config {
	c := newConfig(seed, 0.2, trace)
	c.rounds, c.warmOps, c.prepareReps, c.probeBatches, c.probeDiv = 1, 2, 1, 1, 16
	c.tracedRounds = min(c.tracedRounds, 1)
	return c
}

// rtTotals accumulates one runtime's visits within a run.
type rtTotals struct {
	visits    [][]float64 // per-op wall time of each untraced slice, µs
	attempted int         // operations issued in timed slices, traced ones too
	failed    int         // of those, panicked or failed the oracle check
	mallocs   uint64
	omp       omp.Stats
	glt       glt.Stats
	visitSec  []float64 // construct + warm-up + shutdown, per visit

	traced tracedTotals
}

// visit is the unit of the load model: construct the runtime, warm up, time
// one slice of back-to-back operations issued by this goroutine alone, shut
// down. tr, when set, is installed for the timed slice only.
func visit(spec rtSpec, w workload, prob *problem, cfg config, tot *rtTotals, tr *spanTracer) error {
	t0 := time.Now()
	rt, err := spec.new(cfg.threads, w.wait)
	if err != nil {
		return fmt.Errorf("construct %s: %w", spec.name, err)
	}
	inst := prob.instance(rt)
	for i := 0; i < cfg.warmOps; i++ {
		if err := runOp(inst, i == 0); err != nil {
			return fmt.Errorf("%s on %s, warm-up: %w", w.name, spec.name, err)
		}
	}
	samples := make([]float64, 0, 1<<12)
	runtime.GC()
	rt.ResetStats()
	setup := time.Since(t0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if tr != nil {
		tr.begin(spec.name, &tot.traced)
		omp.SetTracer(tr)
	}
	start := time.Now()
	for first, last := true, false; !last; first = false {
		last = time.Since(start) >= cfg.slice || (tr != nil && tr.full())
		checked := first || last
		if checked {
			inst.arm()
		}
		if tr != nil {
			tr.opBegin()
		}
		t := time.Now()
		panicked := safely(inst.op)
		d := time.Since(t)
		if tr != nil {
			tr.opEnd()
		}
		samples = append(samples, us(d))
		tot.attempted++
		if panicked != nil {
			tot.failed++
			fmt.Fprintf(stderr, "%s on %s: operation panicked: %v\n", w.name, spec.name, panicked)
		} else if checked {
			if err := inst.check(); err != nil {
				tot.failed++
				fmt.Fprintf(stderr, "%s on %s: %v\n", w.name, spec.name, err)
			}
		}
	}
	if tr != nil {
		omp.SetTracer(nil)
		tr.end(cfg.threads)
		tot.traced.samples = append(tot.traced.samples, samples...)
	} else {
		runtime.ReadMemStats(&after)
		tot.visits = append(tot.visits, samples)
		tot.mallocs += after.Mallocs - before.Mallocs
		addOmpStats(&tot.omp, rt.Stats())
		if g, ok := rt.(interface{ GLT() *glt.Runtime }); ok {
			addGltStats(&tot.glt, g.GLT().Stats())
		}
	}

	t1 := time.Now()
	rt.Shutdown()
	tot.visitSec = append(tot.visitSec, (setup + time.Since(t1)).Seconds())
	return nil
}

// runOp runs one checked or unchecked operation outside a timed slice.
func runOp(inst instance, checked bool) error {
	if checked {
		inst.arm()
	}
	if p := safely(inst.op); p != nil {
		return fmt.Errorf("operation panicked: %v", p)
	}
	if checked {
		return inst.check()
	}
	return nil
}

// safely runs f and returns what it panicked with, if anything. A task or
// member panic resurfaces from the region call as *omp.TaskPanicError; the
// benchmark counts it as a failed operation and carries on.
func safely(f func()) (panicked any) {
	defer func() { panicked = recover() }()
	f()
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func addOmpStats(a *omp.Stats, b omp.Stats) {
	a.ThreadsCreated += b.ThreadsCreated
	a.ULTsCreated += b.ULTsCreated
	a.TasksStolen += b.TasksStolen
	a.TasksStolenFromBuffer += b.TasksStolenFromBuffer
	a.StealAttempts += b.StealAttempts
	a.TaskFlushes += b.TaskFlushes
	a.DepReleases += b.DepReleases
	a.TasksChained += b.TasksChained
	a.LocalReleases += b.LocalReleases
}

func addGltStats(a *glt.Stats, b glt.Stats) {
	a.ULTsStarted += b.ULTsStarted
	a.TaskletsRun += b.TaskletsRun
	a.Yields += b.Yields
	a.Parks += b.Parks
	a.IdleSteals += b.IdleSteals
	a.UnitsReused += b.UnitsReused
}

// median returns the middle value of vs (mean of the middle two), 0 when
// empty. It sorts vs in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quietMedian is the statistic behind <rt>.op_us_p50: the median operation
// time over a runtime's slices, the slowest three in ten left out. Whatever
// the host does to a slice — a neighbour taking the core for a second, both
// virtual CPUs landing on one physical core, a runtime instance whose master
// and spinning worker share a CPU for its whole life — only ever adds time,
// so the slices are ranked by their own median and the slowest dropped; the
// rest are pooled, which keeps the sample large enough for the pthread
// runtimes' nested regions, whose times sit on a 4 ms lattice.
func quietMedian(visits [][]float64) float64 {
	ranked := slices.Clone(visits)
	slices.SortFunc(ranked, func(a, b []float64) int { return cmp.Compare(median(a), median(b)) })
	return median(slices.Concat(ranked[:len(ranked)-len(ranked)*3/10]...))
}

// tailPercentile picks the highest of p99, p90 and p50 that still has at
// least ten samples beyond it, and returns it with its value. sorted must be
// ascending and non-empty.
func tailPercentile(sorted []float64) (pct float64, value float64) {
	n := len(sorted)
	for _, c := range []struct {
		pct    float64
		oneOut int // one sample in oneOut lies beyond the percentile
	}{{99, 100}, {90, 10}} {
		if beyond := n / c.oneOut; beyond >= 10 {
			return c.pct, sorted[n-1-beyond]
		}
	}
	return 50, median(sorted)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
