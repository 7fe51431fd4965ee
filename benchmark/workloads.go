package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"repro/glt"
	"repro/internal/cg"
	"repro/internal/cloverleaf"
	"repro/internal/dataflow"
	"repro/internal/uts"
	"repro/omp"
)

// A workload is one of the paper-shaped inputs the benchmark runs. Shapes are
// fixed here; only the generator seed comes from the command line, so the
// code under test sees nothing but generated inputs.
type workload struct {
	name string
	// wait is the OMP_WAIT_POLICY the paper uses for this kind of code:
	// active for work sharing, passive for tasking (§VI-A).
	wait omp.WaitPolicy
	// prepare generates the inputs from seed and runs the serial oracle.
	prepare func(seed uint64, threads int) *problem
}

// A problem is a generated input plus its oracle.
type problem struct {
	// instance binds the problem to a runtime for one slice. State that an
	// operation carries to the next (the hydro grid) is fresh per instance.
	instance func(rt omp.Runtime) instance
	// serial runs the oracle's operation once: the workload body with no
	// runtime under it.
	serial func()
	// native, set by uts_envcreator only, runs and checks the operation on a
	// bare GLT engine with no OpenMP above it (the Fig. 5 port).
	native func(g *glt.Runtime) error
}

// An instance runs operations on one runtime and checks them.
type instance interface {
	// arm is called before an operation that will be checked.
	arm()
	// op is one operation: the timed call into the workload.
	op()
	// check compares the latest operation's output with the oracle.
	check() error
}

var workloads = []workload{
	{"hydro_forkjoin", omp.ActiveWait, prepareHydro},
	{"nested_forkjoin", omp.PassiveWait, prepareNested},
	{"uts_envcreator", omp.PassiveWait, prepareUTS},
	{"cg_tasks_fine", omp.PassiveWait, prepareCG},
	{"cholesky_deps", omp.PassiveWait, prepareCholesky},
	{"wavefront_deps", omp.PassiveWait, prepareWavefront},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// hydro_forkjoin: one CloverLeaf timestep per operation (Fig. 6).

const hydroCells = 48

// newHydro builds the two-state problem with a seeded ±1 % ripple on the
// initial energy, so each seed evolves a different but equally sized flow.
func newHydro(seed uint64) *cloverleaf.Simulation {
	s := cloverleaf.NewSimulation(hydroCells, hydroCells)
	rng := rand.New(rand.NewPCG(seed, 0))
	for i := range s.G.Energy {
		s.G.Energy[i] *= 1 + 0.02*(rng.Float64()-0.5)
	}
	return s
}

func cloneHydro(s *cloverleaf.Simulation) *cloverleaf.Simulation {
	g := *s.G
	for _, f := range []*[]float64{
		&g.Density, &g.Energy, &g.Pressure, &g.Visc, &g.SoundSp, &g.XVel, &g.YVel,
		&g.VolFluxX, &g.VolFluxY, &g.MassFlux, &g.Work, &g.Work2,
	} {
		*f = append([]float64(nil), *f...)
	}
	c := *s
	c.G = &g
	return &c
}

type hydroInstance struct {
	rt      omp.Runtime
	threads int
	sim     *cloverleaf.Simulation
	ref     *cloverleaf.Simulation // pre-step copy of sim, armed before a checked op
}

func (h *hydroInstance) arm() { h.ref = cloneHydro(h.sim) }
func (h *hydroInstance) op()  { h.sim.Step(h.rt, h.threads) }

// check advances the armed copy one serial step and compares the conserved
// totals and the timestep: the step is verified against RunSerial from the
// same state, wherever in the run it falls.
func (h *hydroInstance) check() error {
	h.ref.RunSerial(1)
	got, want := h.sim, h.ref
	if got.Steps != want.Steps || got.LastDt != want.LastDt {
		return fmt.Errorf("hydro: step %d dt %v, serial step %d dt %v", got.Steps, got.LastDt, want.Steps, want.LastDt)
	}
	if !closeRel(got.G.TotalMass(), want.G.TotalMass(), 1e-12) ||
		!closeRel(got.G.TotalEnergy(), want.G.TotalEnergy(), 1e-12) {
		return fmt.Errorf("hydro: mass %v energy %v, serial mass %v energy %v",
			got.G.TotalMass(), got.G.TotalEnergy(), want.G.TotalMass(), want.G.TotalEnergy())
	}
	return nil
}

func closeRel(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

func prepareHydro(seed uint64, threads int) *problem {
	serial := newHydro(seed)
	return &problem{
		instance: func(rt omp.Runtime) instance {
			return &hydroInstance{rt: rt, threads: threads, sim: newHydro(seed)}
		},
		serial: func() { serial.RunSerial(1) },
	}
}

// ---------------------------------------------------------------------------
// nested_forkjoin: Listing 1 (Fig. 8), no body at all.

// nestedOuter is the outer trip count: every iteration opens an inner team,
// sized so one operation takes GLTO 0.2-1 ms. On the pthread runtimes the
// oversubscribed inner teams wait out whole scheduler ticks, so operation
// times sit on a 4 ms lattice; at 32 the median lies inside the 12 ms step
// and not on the edge between two.
const nestedOuter = 32

type nestedInstance struct {
	rt      omp.Runtime
	threads int
	inner   atomic.Int64 // inner-loop iterations executed by the latest op
}

func (n *nestedInstance) arm() {}

func (n *nestedInstance) op() {
	n.inner.Store(0)
	n.rt.ParallelN(n.threads, func(tc *omp.TC) {
		tc.For(0, nestedOuter, func(int) {
			tc.Parallel(n.threads, func(itc *omp.TC) {
				var mine int64
				itc.For(0, nestedOuter, func(int) { mine++ })
				n.inner.Add(mine)
			})
		})
	})
}

func (n *nestedInstance) check() error {
	if got, want := n.inner.Load(), int64(nestedOuter*nestedOuter); got != want {
		return fmt.Errorf("nested: %d inner iterations, want %d", got, want)
	}
	return nil
}

func prepareNested(_ uint64, threads int) *problem {
	var sink int64
	return &problem{
		instance: func(rt omp.Runtime) instance { return &nestedInstance{rt: rt, threads: threads} },
		serial: func() {
			for i := 0; i < nestedOuter; i++ {
				for j := 0; j < nestedOuter; j++ {
					sink++
				}
			}
		},
	}
}

// ---------------------------------------------------------------------------
// uts_envcreator: UTS with OpenMP only as environment creator (Fig. 4).

const (
	// A narrow, deep geometric tree keeps the depth-first stack under the
	// 40 nodes at which a UTS worker starts donating chunks, so how much work
	// is shared — and with it the operation's time — does not hinge on the
	// tree the seed happens to pick.
	utsB0, utsDepth = 4, 10
	utsTargetNodes  = 6000
	// utsCandidates root seeds are tried per benchmark seed and the tree
	// nearest the target size kept: tree size swings 50x with the root seed,
	// and a fixed candidate count keeps both the operation's work and the
	// set-up time level across seeds.
	utsCandidates = 64
)

func prepareUTS(seed uint64, threads int) *problem {
	var best uts.Params
	var want uts.Result
	for i := 0; i < utsCandidates; i++ {
		p := uts.Params{Shape: uts.Geometric, Seed: int64(seed*utsCandidates) + int64(i), B0: utsB0, MaxDepth: utsDepth}
		r := p.CountSerial()
		if i == 0 || absInt(r.Nodes-utsTargetNodes) < absInt(want.Nodes-utsTargetNodes) {
			best, want = p, r
		}
	}
	return &problem{
		instance: func(rt omp.Runtime) instance {
			return &resultInstance[uts.Result]{
				run:   func() uts.Result { return best.CountOpenMP(rt, threads) },
				equal: func(got uts.Result) error { return utsEqual(got, want) },
			}
		},
		serial: func() { best.CountSerial() },
		native: func(g *glt.Runtime) error { return utsEqual(best.CountGLT(g), want) },
	}
}

func utsEqual(got, want uts.Result) error {
	if got != want {
		return fmt.Errorf("uts: counted %+v, serial %+v", got, want)
	}
	return nil
}

func absInt(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// resultInstance serves the workloads whose every operation produces the
// whole output from the same input.
type resultInstance[T any] struct {
	run   func() T
	equal func(T) error
	last  T
}

func (r *resultInstance[T]) arm()         {}
func (r *resultInstance[T]) op()          { r.last = r.run() }
func (r *resultInstance[T]) check() error { return r.equal(r.last) }

// ---------------------------------------------------------------------------
// cg_tasks_fine: single-producer fine-grained tasks (Fig. 10).

const (
	cgRows        = 1500
	cgIter        = 5
	cgRowsPerTask = 10
	// cgTol is the tolerance internal/cg's tests hold SolveTasks to against
	// SolveSerial: partial dot products are combined in completion order.
	cgTol = 1e-6
)

func prepareCG(seed uint64, threads int) *problem {
	p := cg.NewProblem(cgRows, seed)
	opts := cg.Opts{MaxIter: cgIter, Granularity: cgRowsPerTask}
	want := p.SolveSerial(opts)
	return &problem{
		instance: func(rt omp.Runtime) instance {
			return &resultInstance[cg.Result]{
				run: func() cg.Result { return p.SolveTasks(rt, threads, opts) },
				equal: func(got cg.Result) error {
					if got.Iterations != want.Iterations {
						return fmt.Errorf("cg: %d iterations, serial %d", got.Iterations, want.Iterations)
					}
					if d := cg.MaxAbsDiff(got.X, want.X); !(d <= cgTol) {
						return fmt.Errorf("cg: solution differs from serial by %g", d)
					}
					return nil
				},
			}
		},
		serial: func() { p.SolveSerial(opts) },
	}
}

// ---------------------------------------------------------------------------
// cholesky_deps and wavefront_deps: the dependence layer, used both ways.

const (
	cholTiles = 8
	cholTile  = 24
	waveRows  = 4000
	waveChunk = 50
)

func prepareCholesky(seed uint64, threads int) *problem {
	c := dataflow.NewCholesky(cholTiles, cholTile, seed)
	want := c.FactorSerial()
	return &problem{
		instance: func(rt omp.Runtime) instance {
			return &resultInstance[[][]float64]{
				run: func() [][]float64 { return c.FactorTasks(rt, threads) },
				equal: func(got [][]float64) error {
					for t := range want {
						if !bitwiseEqual(got[t], want[t]) {
							return fmt.Errorf("cholesky: tile %d differs from the serial factor", t)
						}
					}
					return nil
				},
			}
		},
		serial: func() { c.FactorSerial() },
	}
}

func prepareWavefront(seed uint64, threads int) *problem {
	w := dataflow.NewWavefront(waveRows, waveChunk, seed)
	want := w.SolveSerial()
	return &problem{
		instance: func(rt omp.Runtime) instance {
			return &resultInstance[[]float64]{
				run: func() []float64 { return w.SolveTasks(rt, threads) },
				equal: func(got []float64) error {
					if !bitwiseEqual(got, want) {
						return fmt.Errorf("wavefront: solution differs from the serial solve")
					}
					return nil
				},
			}
		},
		serial: func() { w.SolveSerial() },
	}
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
