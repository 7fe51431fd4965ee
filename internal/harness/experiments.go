package harness

import (
	"fmt"

	"repro/glt"
	_ "repro/glt/backends"
	"repro/internal/cg"
	"repro/internal/cloverleaf"
	"repro/internal/uts"
	"repro/internal/validation"
	"repro/omp"
	"repro/openmp"
)

// This file registers the generators for every figure and table of the
// paper's evaluation section. Problem sizes are the laptop-scaled ones of
// the workload packages; Config.Scale shrinks them further for smoke runs.

func scaleInt(v int, scale float64, min int) int {
	s := int(float64(v) * scale)
	if s < min {
		return min
	}
	return s
}

func repsOr(cfg Config, def int) int {
	if cfg.Reps > 0 {
		return cfg.Reps
	}
	return def
}

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Fig. 4: UTS execution time on OpenMP runtimes (environment-creator scenario)",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			params := uts.T1XXLScaled
			reps := repsOr(cfg, 5) // paper: 50
			labels := variantLabels(PaperVariants)
			tbl := NewTable(fmt.Sprintf("UTS %s, %d reps", params, reps), "threads", labels)
			for _, n := range cfg.Threads {
				for _, v := range PaperVariants {
					rt, err := v.New(n, nil)
					if err != nil {
						return err
					}
					params.CountOpenMP(rt, n) // warm-up
					s := Measure(reps, func() { params.CountOpenMP(rt, n) })
					rt.Shutdown()
					tbl.Set(fmt.Sprint(n), v.Label, s.String())
				}
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})

	register(Experiment{
		ID:    "fig5",
		Title: "Fig. 5: UTS execution time on raw pthreads and native LWT libraries",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			params := uts.T1XXLScaled
			reps := repsOr(cfg, 5)
			labels := []string{"PTH", "ABT", "QTH", "MTH", "WS"}
			tbl := NewTable(fmt.Sprintf("UTS native %s, %d reps", params, reps), "threads", labels)
			for _, n := range cfg.Threads {
				s := Measure(reps, func() { params.CountPthreads(n) })
				tbl.Set(fmt.Sprint(n), "PTH", s.String())
				for _, backend := range []string{"abt", "qth", "mth", "ws"} {
					g, err := glt.New(glt.Config{Backend: backend, NumThreads: n})
					if err != nil {
						return err
					}
					params.CountGLT(g) // warm-up
					s := Measure(reps, func() { params.CountGLT(g) })
					g.Shutdown()
					tbl.Set(fmt.Sprint(n), map[string]string{"abt": "ABT", "qth": "QTH", "mth": "MTH", "ws": "WS"}[backend], s.String())
				}
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})

	register(Experiment{
		ID:    "fig6",
		Title: "Fig. 6: CloverLeaf execution time on OpenMP runtimes (compute-bound work sharing)",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			grid := scaleInt(96, cfg.Scale, 16)
			steps := scaleInt(20, cfg.Scale, 2)
			reps := repsOr(cfg, 3) // paper: 50 full runs
			labels := variantLabels(PaperVariants)
			tbl := NewTable(fmt.Sprintf("CloverLeaf %dx%d, %d steps, %d reps (%d regions/step)",
				grid, grid, steps, reps, cloverleaf.RegionsPerStep), "threads", labels)
			for _, n := range cfg.Threads {
				for _, v := range PaperVariants {
					rt, err := v.New(n, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
					if err != nil {
						return err
					}
					s := Measure(reps, func() {
						sim := cloverleaf.NewSimulation(grid, grid)
						sim.Run(rt, n, steps)
					})
					rt.Shutdown()
					tbl.Set(fmt.Sprint(n), v.Label, s.String())
				}
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})

	register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7: work-assignment (fork-join dispatch) time per parallel region",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			regions := scaleInt(2000, cfg.Scale, 100)
			reps := repsOr(cfg, 5)
			labels := variantLabels(PaperVariants)
			tbl := NewTable(fmt.Sprintf("Empty-region dispatch, %d regions averaged, %d reps", regions, reps),
				"threads", labels)
			for _, n := range cfg.Threads {
				for _, v := range PaperVariants {
					rt, err := v.New(n, func(c *omp.Config) { c.WaitPolicy = omp.ActiveWait })
					if err != nil {
						return err
					}
					rt.ParallelN(n, func(tc *omp.TC) {}) // warm-up
					s := Measure(reps, func() {
						for k := 0; k < regions; k++ {
							rt.ParallelN(n, func(tc *omp.TC) {})
						}
					})
					rt.Shutdown()
					per := Sample{Mean: s.Mean / float64(regions), Std: s.Std / float64(regions), N: s.N}
					tbl.Set(fmt.Sprint(n), v.Label, per.String())
				}
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})

	register(Experiment{ID: "fig8",
		Title: "Fig. 8: nested parallel microbenchmark, 100 outer iterations",
		Run:   func(cfg Config) error { return nestedExperiment(cfg, 100) }})
	register(Experiment{ID: "fig9",
		Title: "Fig. 9: nested parallel microbenchmark, 1000 outer iterations",
		Run:   func(cfg Config) error { return nestedExperiment(cfg, 1000) }})

	register(Experiment{
		ID:    "table1",
		Title: "Table I: OpenUH-style validation suite results per runtime",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			labels := variantLabels(PaperVariants)
			tbl := NewTable("Validation suite (123 tests over 62 constructs)", "metric", labels)
			for _, v := range PaperVariants {
				rt, err := v.New(4, nil)
				if err != nil {
					return err
				}
				rep := validation.RunSuite(rt, 4)
				rt.Shutdown()
				tbl.Set("OpenMP constructs", v.Label, fmt.Sprint(rep.Constructs()))
				tbl.Set("Used tests", v.Label, fmt.Sprint(len(rep.Outcomes)))
				tbl.Set("Successful tests", v.Label, fmt.Sprint(rep.Passed()))
				tbl.Set("Failed tests", v.Label, fmt.Sprint(rep.Failed()))
				fmt.Fprintf(cfg.Out, "%s failed: %v\n", v.Label, rep.FailedNames())
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})

	register(Experiment{
		ID:    "table2",
		Title: "Table II: threads created/reused in nested parallel constructs (100 iterations)",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			// The paper sets OMP_NUM_THREADS=36; scale to host if smaller
			// sweeps were requested, otherwise use 36 for the paper row.
			n := 36
			if len(cfg.Threads) > 0 {
				n = cfg.Threads[len(cfg.Threads)-1]
			}
			const outer = 100
			tbl := NewTable(fmt.Sprintf("Nested thread accounting, OMP_NUM_THREADS=%d, outer=%d", n, outer),
				"implementation", []string{"CreatedThreads", "ReusedThreads", "CreatedULTs"})
			// The paper's Table II lists GCC, Intel and GLTO once (the GLT
			// backend does not change the thread/ULT accounting); this report
			// keeps one GLTO row per backend.
			for _, v := range PaperVariants {
				// Fresh runtime, single cold run: the counters then hold the
				// paper's quantities (top-level team plus nested teams).
				rt, err := v.New(n, nil)
				if err != nil {
					return err
				}
				runNested(rt, n, outer)
				s := rt.Stats()
				rt.Shutdown()
				label := v.Label
				if label == "ICC" {
					label = "Intel"
				}
				if v.Runtime == "glto" {
					tbl.Set(label, "CreatedThreads", fmt.Sprint(n))
					tbl.Set(label, "ReusedThreads", "0")
					// The paper's 3,500 counts the nested-region ULTs; the
					// runtime's counter also includes the n top-level ones.
					tbl.Set(label, "CreatedULTs", fmt.Sprint(s.ULTsCreated-int64(n)))
					continue
				}
				// +1 counts the master thread, as the paper's totals do.
				tbl.Set(label, "CreatedThreads", fmt.Sprint(s.ThreadsCreated+1))
				tbl.Set(label, "ReusedThreads", fmt.Sprint(s.ThreadsReused))
				tbl.Set(label, "CreatedULTs", "—")
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})

	register(Experiment{
		ID:    "table3",
		Title: "Table III: percentage of queued tasks per granularity (Intel-like runtime)",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			prob := cg.NewProblem(scaleInt(cg.DefaultRows, cfg.Scale, 1500), 7)
			labels := []string{"10", "20", "50", "100"}
			tbl := NewTable(fmt.Sprintf("%% queued tasks, CG %d rows", prob.A.N), "threads", labels)
			for _, n := range cfg.Threads {
				rt, err := openmp.New("iomp", omp.Config{NumThreads: n, Nested: true})
				if err != nil {
					return err
				}
				for _, g := range cg.Granularities {
					rt.ResetStats()
					prob.SolveTasks(rt, n, cg.Opts{MaxIter: 5, Granularity: g})
					s := rt.Stats()
					tbl.Set(fmt.Sprint(n), fmt.Sprint(g), fmt.Sprintf("%.0f", s.QueuedTaskPercent()))
				}
				rt.Shutdown()
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})

	for _, gran := range []struct {
		id   string
		g    int
		figN int
	}{{"fig10", 10, 10}, {"fig11", 20, 11}, {"fig12", 50, 12}, {"fig13", 100, 13}} {
		gran := gran
		register(Experiment{
			ID:    gran.id,
			Title: fmt.Sprintf("Fig. %d: task-parallel CG, granularity %d rows/task", gran.figN, gran.g),
			Run: func(cfg Config) error {
				cfg = cfg.withDefaults()
				rows := scaleInt(cg.DefaultRows, cfg.Scale, 1500)
				prob := cg.NewProblem(rows, 7)
				iters := 10 // CG iterations per run (paper averages 1000 runs)
				reps := repsOr(cfg, 3)
				labels := variantLabels(TaskVariants)
				tbl := NewTable(fmt.Sprintf("CG %d rows, g=%d (%d tasks/kernel), %d CG iters, %d reps",
					rows, gran.g, cg.NumTasks(rows, gran.g), iters, reps), "threads", labels)
				for _, n := range cfg.Threads {
					for _, v := range TaskVariants {
						rt, err := v.New(n, nil)
						if err != nil {
							return err
						}
						prob.SolveTasks(rt, n, cg.Opts{MaxIter: 2, Granularity: gran.g}) // warm-up
						s := Measure(reps, func() {
							prob.SolveTasks(rt, n, cg.Opts{MaxIter: iters, Granularity: gran.g})
						})
						rt.Shutdown()
						tbl.Set(fmt.Sprint(n), v.Label, s.String())
					}
				}
				tbl.Render(cfg.Out)
				return nil
			},
		})
	}

	register(Experiment{
		ID:    "fig14",
		Title: "Fig. 14: 4,000 single-producer tasks under cut-off values 16/256/4096 (Intel-like runtime)",
		Run: func(cfg Config) error {
			cfg = cfg.withDefaults()
			const tasks = 4000
			reps := repsOr(cfg, 5)
			labels := []string{"16", "256", "4096"}
			tbl := NewTable(fmt.Sprintf("%d tasks, one producer, %d reps", tasks, reps), "threads", labels)
			for _, n := range cfg.Threads {
				for _, cutoff := range []int{16, 256, 4096} {
					rt, err := openmp.New("iomp", omp.Config{
						NumThreads: n, TaskCutoff: cutoff, Nested: true,
					})
					if err != nil {
						return err
					}
					run := func() {
						rt.ParallelN(n, func(tc *omp.TC) {
							tc.Single(func() {
								for i := 0; i < tasks; i++ {
									tc.Task(func(*omp.TC) {
										var acc float64
										for k := 0; k < 300; k++ {
											acc += float64(k)
										}
										_ = acc
									})
								}
							})
						})
					}
					run() // warm-up
					s := Measure(reps, run)
					rt.Shutdown()
					tbl.Set(fmt.Sprint(n), fmt.Sprint(cutoff), s.String())
				}
			}
			tbl.Render(cfg.Out)
			return nil
		},
	})
}

// runNested executes the Listing-1 microbenchmark once: an outer parallel
// for whose body opens an inner parallel for with an empty body.
func runNested(rt omp.Runtime, n, outer int) {
	rt.ParallelN(n, func(tc *omp.TC) {
		tc.For(0, outer, func(i int) {
			tc.Parallel(n, func(itc *omp.TC) {
				itc.For(0, outer, func(j int) {})
			})
		})
	})
}

func nestedExperiment(cfg Config, outer int) error {
	cfg = cfg.withDefaults()
	reps := repsOr(cfg, 3) // paper: 1000
	labels := variantLabels(PaperVariants)
	tbl := NewTable(fmt.Sprintf("Nested parallel (Listing 1), outer=%d, %d reps", outer, reps),
		"threads", labels)
	for _, n := range cfg.Threads {
		for _, v := range PaperVariants {
			rt, err := v.New(n, nil)
			if err != nil {
				return err
			}
			runNested(rt, n, outer) // warm-up
			s := Measure(reps, func() { runNested(rt, n, outer) })
			rt.Shutdown()
			tbl.Set(fmt.Sprint(n), v.Label, s.String())
		}
	}
	tbl.Render(cfg.Out)
	return nil
}

func variantLabels(vs []Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Label
	}
	return out
}
