package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/glt"
	_ "repro/glt/backends"
	"repro/omp"
)

// Probes time one public entry point of one layer with nothing under it but
// an empty body, so a layer's cost has a number of its own next to the
// workloads it is predicted to move. Each probe is the median of
// cfg.probeBatches batches; a batch repeats the call enough to dwarf the
// clock.

// probe returns the median over batches of run's result.
func probe(batches int, run func() float64) float64 {
	vs := make([]float64, batches)
	for i := range vs {
		vs[i] = run()
	}
	return median(vs)
}

// nsPer times f and divides by units.
func nsPer(units int, f func()) float64 {
	t := time.Now()
	f()
	return float64(time.Since(t)) / float64(units)
}

// ompProbes measures the omp front end over one engine. Metrics are keyed
// by their suffix after "omp.<rt>.".
func ompProbes(spec rtSpec, w workload, cfg config) (map[string]float64, error) {
	rt, err := spec.new(cfg.threads, w.wait)
	if err != nil {
		return nil, fmt.Errorf("construct %s: %w", spec.name, err)
	}
	defer rt.Shutdown()
	n := func(full int) int { return max(full/cfg.probeDiv, 2) }
	empty := func(*omp.TC) {}
	out := map[string]float64{}

	// inRegion runs body on every member of one region and returns the
	// nanoseconds rank 0 spent in it, between two barriers.
	inRegion := func(body func(tc *omp.TC)) float64 {
		var ns float64
		rt.ParallelN(cfg.threads, func(tc *omp.TC) {
			tc.Barrier()
			t := time.Now()
			body(tc)
			tc.Barrier()
			if tc.ThreadNum() == 0 {
				ns = float64(time.Since(t))
			}
		})
		return ns
	}
	// producer runs body on one thread of a region while the others wait at
	// the closing barrier, consuming what it spawns.
	producer := func(body func(tc *omp.TC)) float64 {
		return inRegion(func(tc *omp.TC) { tc.Master(func() { body(tc) }) })
	}

	regions := n(200)
	out["region_ns"] = probe(cfg.probeBatches, func() float64 {
		return nsPer(regions, func() {
			for i := 0; i < regions; i++ {
				rt.ParallelN(cfg.threads, empty)
			}
		})
	})
	barriers := n(1000)
	out["barrier_ns"] = probe(cfg.probeBatches, func() float64 {
		return inRegion(func(tc *omp.TC) {
			for i := 0; i < barriers; i++ {
				tc.Barrier()
			}
		}) / float64(barriers)
	})
	loops := n(100)
	out["for_static_ns"] = probe(cfg.probeBatches, func() float64 {
		return inRegion(func(tc *omp.TC) {
			for i := 0; i < loops; i++ {
				tc.For(0, cfg.threads, func(int) {})
			}
		}) / float64(loops)
	})
	nested := n(32)
	out["nested_region_ns"] = probe(cfg.probeBatches, func() float64 {
		return inRegion(func(tc *omp.TC) {
			for i := 0; i < nested; i++ {
				tc.Parallel(cfg.threads, empty)
			}
		}) / float64(nested)
	})
	const burst = 64
	bursts := n(16)
	out["task_spawn_ns"] = probe(cfg.probeBatches, func() float64 {
		return producer(func(tc *omp.TC) {
			for b := 0; b < bursts; b++ {
				for i := 0; i < burst; i++ {
					tc.Task(empty)
				}
				tc.Taskwait()
			}
		}) / float64(bursts*burst)
	})
	const chain = 512
	var link int
	out["dep_chain_ns"] = probe(cfg.probeBatches, func() float64 {
		return producer(func(tc *omp.TC) {
			for i := 0; i < chain; i++ {
				tc.Task(empty, omp.InOut(&link))
			}
			tc.Taskwait()
		}) / chain
	})
	const fan = 64
	fans := n(8)
	var hub int
	out["dep_fan_ns"] = probe(cfg.probeBatches, func() float64 {
		return producer(func(tc *omp.TC) {
			for f := 0; f < fans; f++ {
				tc.Task(empty, omp.Out(&hub))
				for i := 0; i < fan; i++ {
					tc.Task(empty, omp.In(&hub))
				}
				tc.Task(empty, omp.InOut(&hub))
			}
			tc.Taskwait()
		}) / float64(fans*(fan+2))
	})
	return out, nil
}

// gltProbes measures a bare GLT engine, no OpenMP above it. Metrics are
// keyed by their suffix after "glt.<backend>.". native, when set, is the
// workload's glt-native operation (UTS has one, the Fig. 5 row): the omp
// layer's cost on that workload is the end-to-end time minus this.
func gltProbes(backend string, native func(*glt.Runtime) error, cfg config) (map[string]float64, error) {
	g, err := glt.New(glt.Config{Backend: backend, NumThreads: cfg.threads})
	if err != nil {
		return nil, fmt.Errorf("construct glt %s: %w", backend, err)
	}
	defer g.Shutdown()
	n := func(full int) int { return max(full/cfg.probeDiv, 2) }
	empty := func(*glt.Ctx) {}
	out := map[string]float64{}

	spawns := n(200)
	out["spawn_join_ns"] = probe(cfg.probeBatches, func() float64 {
		return nsPer(spawns, func() {
			for i := 0; i < spawns; i++ {
				u := g.Spawn(glt.AnyThread, empty)
				u.Join()
				u.Release()
			}
		})
	})
	teams := n(200)
	var team []*glt.Unit
	out["team_spawn_ns"] = probe(cfg.probeBatches, func() float64 {
		return nsPer(teams, func() {
			for i := 0; i < teams; i++ {
				team = g.SpawnTeam(cfg.threads, empty, team)
				for _, u := range team {
					u.Join()
				}
				g.ReleaseAll(team)
			}
		})
	})
	const batch = 64
	batches := n(32)
	targets := make([]int, batch)
	for i := range targets {
		targets[i] = glt.AnyThread
	}
	var done atomic.Int64
	count := func(*glt.Ctx) { done.Add(1) }
	out["detached_batch_ns_per_unit"] = probe(cfg.probeBatches, func() float64 {
		return nsPer(batches*batch, func() {
			for i := 0; i < batches; i++ {
				done.Store(0)
				g.SpawnDetachedBatch(count, targets, nil, false)
				for done.Load() < batch {
					runtime.Gosched()
				}
			}
		})
	})
	// Two ULTs on one stream hand the execution token back and forth.
	yields := n(500)
	yielder := func(c *glt.Ctx) {
		for i := 0; i < yields; i++ {
			c.Yield()
		}
	}
	out["yield_ns"] = probe(cfg.probeBatches, func() float64 {
		return nsPer(2*yields, func() {
			a, b := g.Spawn(0, yielder), g.Spawn(0, yielder)
			a.Join()
			b.Join()
			a.Release()
			b.Release()
		})
	})
	out["uts_native_op_us"] = 0 // only UTS has a glt-native port
	if native != nil {
		out["uts_native_op_us"] = probe(cfg.probeBatches, func() float64 {
			t := time.Now()
			if e := native(g); e != nil {
				err = e
			}
			return us(time.Since(t))
		})
	}
	return out, err
}
