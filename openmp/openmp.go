// Package openmp bundles the omp programming model with the runtimes of this
// repository and provides convenience constructors.
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
// Each is a runtime SPI implementation (omp.RegionEngine + omp.EngineOps)
// behind a shared omp.Frontend that owns the pooled Team/TC lifecycle, the
// producer-side task buffer and the Stats counter block; see the omp package
// docs. The README's "Environment variables" table lists the variables that
// tune them.
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
