package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// report is the outcome of one workload's run: the metrics of the group the
// run measured (end-to-end untraced, per-layer traced) and the failure count.
type report struct {
	workload  string
	cfg       config
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	totals    []*rtTotals // by runtime, for the per-runtime counts
	tailPct   []float64   // percentile behind each runtime's tail metric
}

// runWorkload executes the load model on one workload: cfg.rounds rounds of
// visits to the four runtimes, then — traced runs only — cfg.tracedRounds
// more under the span tracer, the serial body and the probes.
func runWorkload(w workload, cfg config) (*report, error) {
	host := startHostProbe()
	var prob *problem
	prepSec := make([]float64, cfg.prepareReps)
	for i := range prepSec {
		t := time.Now()
		prob = w.prepare(cfg.seed, cfg.threads)
		prepSec[i] = time.Since(t).Seconds()
	}

	totals := make([]*rtTotals, len(runtimes))
	for i := range totals {
		totals[i] = &rtTotals{}
	}
	if err := visitRounds(cfg.rounds, w, prob, cfg, totals, nil); err != nil {
		return nil, err
	}

	r := &report{workload: w.name, cfg: cfg, values: map[string]float64{}, totals: totals}
	if cfg.trace {
		r.defs = perLayer()
		if err := r.traced(w, prob); err != nil {
			return nil, err
		}
		r.values["host.gc_cycles_per_s"], r.values["host.sched_latency_us_p99"] = host.stop()
	} else {
		r.defs = endToEnd
		// One full set-up: inputs and oracle, then each runtime brought up,
		// warmed and shut down once — every part the median of its repeats.
		setup := median(prepSec)
		for i, spec := range runtimes {
			setup += median(totals[i].visitSec)
			r.values[spec.name+".op_us_p50"] = quietMedian(totals[i].visits)
		}
		r.values["setup_s"] = setup
		r.values["peak_rss_mb"] = peakRSSMB()
	}
	for _, tot := range totals {
		r.attempted += tot.attempted
		r.failed += tot.failed
	}
	r.values["ops_failed_ratio"] = float64(r.failed) / float64(r.attempted)
	return r, nil
}

// visitRounds visits the four runtimes rounds times, each round in an order
// rotated one on from the last.
func visitRounds(rounds int, w workload, prob *problem, cfg config, totals []*rtTotals, tr *spanTracer) error {
	for round := 0; round < rounds; round++ {
		for k := range runtimes {
			i := (round + k) % len(runtimes)
			if err := visit(runtimes[i], w, prob, cfg, totals[i], tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// traced fills in the per-layer metrics.
func (r *report) traced(w workload, prob *problem) error {
	v, cfg := r.values, r.cfg
	tr := newSpanTracer(w.name)
	err := visitRounds(cfg.tracedRounds, w, prob, cfg, r.totals, tr)
	if cerr := tr.close(); cerr != nil {
		fmt.Fprintf(stderr, "spans not written: %v\n", cerr)
	}
	if err != nil {
		return err
	}

	var serial []float64
	for start := time.Now(); time.Since(start) < cfg.slice || len(serial) < 3; {
		t := time.Now()
		prob.serial()
		serial = append(serial, us(time.Since(t)))
	}
	v["body.serial_op_us"] = median(serial)

	for i, spec := range runtimes {
		tot := r.totals[i]
		p50 := quietMedian(tot.visits)
		all := slices.Concat(tot.visits...)
		ops := float64(len(all))
		slices.Sort(all)
		pct, tail := tailPercentile(all)
		r.tailPct = append(r.tailPct, pct)
		v["tail."+spec.name+".op_us_p99"] = tail
		v["eff."+spec.name] = ratio(v["body.serial_op_us"], float64(cfg.threads)*p50)
		v[spec.name+".allocs_per_op"] = float64(tot.mallocs) / ops

		probes, err := ompProbes(spec, w, cfg)
		if err != nil {
			return err
		}
		s := tot.omp
		probes["tasks_stolen_per_op"] = float64(s.TasksStolen) / ops
		probes["buffer_steals_per_op"] = float64(s.TasksStolenFromBuffer) / ops
		probes["task_flushes_per_op"] = float64(s.TaskFlushes) / ops
		probes["steal_attempts_per_op"] = float64(s.StealAttempts) / ops
		probes["steal_hit_ratio"] = ratio(float64(s.TasksStolen), float64(s.StealAttempts))
		probes["chained_share"] = ratio(float64(s.TasksChained), float64(s.DepReleases))
		probes["local_share"] = ratio(float64(s.LocalReleases), float64(s.DepReleases))
		probes["units_created_per_op"] = float64(s.ThreadsCreated+s.ULTsCreated) / ops
		for k, x := range probes {
			v["omp."+spec.name+"."+k] = x
		}

		t := &tot.traced
		p := "trace." + spec.name + "."
		v[p+"assign_share"] = ratio(t.self[spanRegion], t.threadNs)
		v[p+"exec_share"] = ratio(t.self[spanMember], t.threadNs)
		v[p+"barrier_share"] = ratio(t.self[spanBarrier], t.threadNs)
		v[p+"task_body_share"] = ratio(t.self[spanTask], t.threadNs)
		v[p+"task_queue_ns_p50"] = float64(t.met.TaskQueue.P50())
		v[p+"dep_release_ns_p50"] = float64(t.met.DepRelease.P50())
		v[p+"steal_tour_len_mean"] = t.met.StealTour.Mean()
		v[p+"overhead_ratio"] = ratio(median(t.samples), median(all))
		v["trace.dropped_spans"] += float64(t.dropped)

		if spec.backend == "" {
			continue
		}
		g, err := gltProbes(spec.backend, prob.native, cfg)
		if err != nil {
			return err
		}
		gs := tot.glt
		g["parks_per_op"] = float64(gs.Parks) / ops
		g["idle_steals_per_op"] = float64(gs.IdleSteals) / ops
		g["yields_per_op"] = float64(gs.Yields) / ops
		g["units_reused_share"] = ratio(float64(gs.UnitsReused), float64(gs.ULTsStarted+gs.TaskletsRun))
		for k, x := range g {
			v["glt."+spec.backend+"."+k] = x
		}
	}
	return nil
}

// print writes every metric of the run by name with its unit, then the
// attempted and failed counts per runtime.
func (r *report) print(out io.Writer) {
	kind := "end-to-end, untraced"
	if r.cfg.trace {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(out, "# %s  seed=%d  %s  threads=%d  GOMAXPROCS=%d  slice=%v  rounds=%d\n",
		r.workload, r.cfg.seed, kind, r.cfg.threads, runtime.GOMAXPROCS(0), r.cfg.slice, r.cfg.rounds)
	for _, d := range r.defs {
		fmt.Fprintf(out, "%-44s %14.4f %s\n", d.name, r.values[d.name], d.unit)
	}
	for i, spec := range runtimes {
		tot := r.totals[i]
		samples := 0
		for _, v := range tot.visits {
			samples += len(v)
		}
		fmt.Fprintf(out, "%-44s attempted=%d failed=%d samples=%d", spec.name+".ops", tot.attempted, tot.failed, samples)
		if r.cfg.trace {
			fmt.Fprintf(out, " tail=p%g", r.tailPct[i])
		}
		fmt.Fprintln(out)
	}
}
