package cloverleaf

import (
	"repro/omp"
)

// Simulation drives the timestep loop over an OpenMP runtime: one parallel
// region per kernel, work-shared over grid rows, exactly the fork-join
// cadence that makes CloverLeaf dispatch-bound (§VI-C).
type Simulation struct {
	G *Grid
	// Steps counts completed timesteps; Time the accumulated physical time.
	Steps int
	Time  float64
	// LastDt is the most recent CFL timestep.
	LastDt float64
}

// RegionsPerStep is the number of parallel regions (fork-joins) one timestep
// issues. The Fortran original launches 114 PARALLEL DO per step; this
// compact scheme launches fewer, but the dispatch-per-step structure — and
// therefore the runtime comparison — is the same. Locked by a test against
// runtime stats.
const RegionsPerStep = 18

// NewSimulation builds an nx-by-ny benchmark instance with the two-state
// initial condition.
func NewSimulation(nx, ny int) *Simulation {
	g := NewGrid(nx, ny)
	g.InitSod()
	return &Simulation{G: g}
}

// Step advances one timestep using nthreads threads of rt.
func (s *Simulation) Step(rt omp.Runtime, nthreads int) {
	g := s.G
	ny, nx := g.NY, g.NX
	cellsW := nx + 2*halo // halo-extended width for column kernels

	// Halo exchange for density and energy (rows, then columns).
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.HaloCellRows(g.Density, j, j+1) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, cellsW, func(i int) { g.HaloCellCols(g.Density, i, i+1) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.HaloCellRows(g.Energy, j, j+1) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, cellsW, func(i int) { g.HaloCellCols(g.Energy, i, i+1) })
	})

	// Equation of state.
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.IdealGasRows(j, j+1) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.HaloCellRows(g.Pressure, j, j+1) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, cellsW, func(i int) { g.HaloCellCols(g.Pressure, i, i+1) })
	})

	// Artificial viscosity (needs one halo too, reuse of pressure pattern).
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.ViscosityRows(j, j+1) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.HaloCellRows(g.Visc, j, j+1) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, cellsW, func(i int) { g.HaloCellCols(g.Visc, i, i+1) })
	})

	// CFL timestep: a min-reduction across the team.
	var dt float64
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		v := tc.ForReduceFloat64(0, ny, omp.ForOpts{}, 1e30, omp.MinFloat64,
			func(j int, acc float64) float64 { return omp.MinFloat64(acc, g.DtRows(j, j+1)) })
		tc.Master(func() { dt = v })
	})
	s.LastDt = dt

	// Lagrangian phase: acceleration, velocity boundary conditions, PdV.
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny+1, func(j int) { g.AccelerateRows(dt, j, j) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny+1, func(j int) { g.BCVelocityRows(j, j) })
		tc.For(0, cellsW+1, func(i int) { g.BCVelocityCols(i, i) })
	})
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.PdVRows(dt, j, j+1) })
	})

	// Advective remap: fluxes, then one sweep per direction. Each sweep
	// snapshots density/energy (CloverLeaf's 0/1 double buffers), computes
	// donor-cell mass fluxes, and updates the cells; the implied barriers of
	// the inner tc.For loops sequence the three phases. As in CloverLeaf,
	// the sweep order alternates per step so the splitting bias cancels.
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		tc.For(0, ny, func(j int) { g.FluxCalcXRows(dt, j, j+1) })
		tc.For(0, ny+1, func(j int) { g.FluxCalcYRows(dt, j, j+1) })
	})
	xSweep := func() {
		rt.ParallelN(nthreads, func(tc *omp.TC) {
			tc.For(-halo, ny+halo, func(j int) {
				g.CopyCellRows(g.Work, g.Density, j, j+1)
				g.CopyCellRows(g.Work2, g.Energy, j, j+1)
			})
			tc.For(0, ny, func(j int) { g.AdvecCellXMassRows(g.Work, j, j+1) })
			tc.For(0, ny, func(j int) { g.AdvecCellXRows(g.Work, g.Work2, j, j+1) })
		})
	}
	ySweep := func() {
		rt.ParallelN(nthreads, func(tc *omp.TC) {
			tc.For(-halo, ny+halo, func(j int) {
				g.CopyCellRows(g.Work, g.Density, j, j+1)
				g.CopyCellRows(g.Work2, g.Energy, j, j+1)
			})
			tc.For(0, ny+1, func(j int) { g.AdvecCellYMassRows(g.Work, j, j+1) })
			tc.For(0, ny, func(j int) { g.AdvecCellYRows(g.Work, g.Work2, j, j+1) })
		})
	}
	if s.Steps%2 == 0 {
		xSweep()
		ySweep()
	} else {
		ySweep()
		xSweep()
	}
	rt.ParallelN(nthreads, func(tc *omp.TC) {
		// Momentum advection double-buffers through Work-sized copies so
		// rows update independently.
		tc.For(0, ny+1, func(j int) { g.AdvecMomRows(dt, g.XVel, g.VolFluxX, j, j) })
		tc.Barrier()
		tc.For(0, ny+1, func(j int) { g.AdvecMomRows(dt, g.YVel, g.VolFluxY, j, j) })
		tc.Barrier()
		tc.For(0, ny+1, func(j int) {
			for i := 0; i <= g.NX; i++ {
				n := g.Nd(i, j)
				g.XVel[n] = g.VolFluxX[n]
				g.YVel[n] = g.VolFluxY[n]
			}
		})
	})

	s.Steps++
	s.Time += dt
}

// Run advances steps timesteps.
func (s *Simulation) Run(rt omp.Runtime, nthreads, steps int) {
	for k := 0; k < steps; k++ {
		s.Step(rt, nthreads)
	}
}

// RunSerial advances the simulation without any runtime, for reference
// results and oracle comparisons.
func (s *Simulation) RunSerial(steps int) {
	rt := serialRT{}
	for k := 0; k < steps; k++ {
		s.Step(rt, 1)
	}
}

// serialRT is a minimal in-package omp.Runtime that executes regions inline
// on the caller. It keeps the kernel code single-sourced between serial and
// parallel runs.
type serialRT struct{}

func (serialRT) Name() string                  { return "serial" }
func (serialRT) Config() omp.Config            { return omp.Config{NumThreads: 1} }
func (serialRT) SetNumThreads(int)             {}
func (serialRT) Shutdown()                     {}
func (serialRT) Stats() omp.Stats              { return omp.Stats{} }
func (serialRT) ResetStats()                   {}
func (s serialRT) Parallel(body func(*omp.TC)) { s.ParallelN(1, body) }

func (serialRT) ParallelN(n int, body func(*omp.TC)) {
	team := omp.NewTeam(1, 0, omp.Config{NumThreads: 1}, body)
	team.Run(0, serialOps{}, nil)
}

// serialOps is the trivially correct single-thread engine. Tasks execute
// inline at their spawn site, so the producer-side buffer is never used.
type serialOps struct{}

func (serialOps) Inline(*omp.TC, *omp.TaskNode) bool { return true }

// Enqueue can never fire under serial execution (every task completes at its
// spawn site, so no dependence ever defers); run the tasks inline on the
// team's rank-0 context if it somehow does.
func (serialOps) Enqueue(team *omp.Team, nodes []*omp.TaskNode, _ int, _ any) {
	for _, node := range nodes {
		omp.ExecTaskOn(team, 0, serialOps{}, nil, node)
	}
}
func (serialOps) TryRunTask(tc *omp.TC) bool { return false }
func (serialOps) Taskyield(tc *omp.TC)       {}
func (serialOps) Idle(tc *omp.TC)            {}
func (s serialOps) Nested(tc *omp.TC, team *omp.Team) {
	// serialRT serializes every inner region (Nested=false in its Config),
	// so an active nested team can only be size 1: run it inline.
	team.Run(0, s, nil)
}
