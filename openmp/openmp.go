// Package openmp bundles the omp programming model with the three runtime
// implementations of this repository and provides convenience constructors.
// It is the package a downstream user imports:
//
//	rt, err := openmp.New("glto", omp.Config{NumThreads: 8, Backend: "abt"})
//	defer rt.Shutdown()
//	rt.Parallel(func(tc *omp.TC) {
//	    tc.For(0, n, func(i int) { y[i] += a * x[i] })
//	})
//
// Registered runtimes:
//
//   - "gomp": GNU-libgomp-like, pthread based (internal/gomp)
//   - "iomp": Intel-runtime-like, pthread based (internal/iomp)
//   - "glto": the paper's OpenMP-over-lightweight-threads runtime
//     (internal/core), with Config.Backend selecting the GLT backend: the
//     library analogues "abt", "qth", "mth", or the lock-free Chase-Lev
//     work-stealing "ws"
//
// All three are runtime SPI implementations (omp.RegionEngine +
// omp.EngineOps) behind a shared omp.Frontend that owns the pooled Team/TC
// lifecycle, the producer-side task buffer and the Stats counter block; see
// the omp package docs.
// The user-facing API here is unchanged by that split — code written
// against omp.Runtime and omp.TC needs no migration. New knobs:
// omp.Config.TaskBuffer (OMP_TASK_BUFFER) sizes or disables batched task
// submission, and omp.Stats.TaskFlushes counts its flush episodes;
// GLTO_PER_UNIT_DISPATCH still restores the paper's fully per-unit
// dispatch.
package openmp

import (
	_ "repro/internal/core"
	_ "repro/internal/gomp"
	_ "repro/internal/iomp"
	"repro/omp"
)

// New instantiates a registered runtime by name with the given
// configuration.
func New(name string, cfg omp.Config) (omp.Runtime, error) {
	return omp.NewRuntime(name, cfg)
}

// MustNew is New but panics on error; convenient when the runtime name is a
// compile-time constant.
func MustNew(name string, cfg omp.Config) omp.Runtime {
	rt, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Runtimes lists the registered runtime names.
func Runtimes() []string { return omp.RegisteredRuntimes() }
