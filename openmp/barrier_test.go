package openmp_test

// Barrier correctness through the real runtimes: every variant (both
// pthread engines and all four GLT backends) runs multi-phase barrier
// regions at widths 2, 8 and 32, under both OMP_WAIT_POLICY settings, with
// regions repeated so the team descriptor — its BarrierState included — is
// recycled between regions.

import (
	"sync/atomic"
	"testing"

	"repro/omp"
	"repro/openmp"
)

func TestBarrierWidthsAllRuntimes(t *testing.T) {
	const phases, regions = 3, 2
	for _, v := range variants {
		for _, policy := range []omp.WaitPolicy{omp.PassiveWait, omp.ActiveWait} {
			t.Run(v.name+"/"+policy.String(), func(t *testing.T) {
				for _, width := range []int{2, 8, 32} {
					rt, err := openmp.New(v.runtime, omp.Config{
						NumThreads: width,
						Backend:    v.backend,
						WaitPolicy: policy,
						Nested:     true,
					})
					if err != nil {
						t.Fatal(err)
					}
					for region := 0; region < regions; region++ {
						counts := make([]atomic.Int32, phases)
						rt.ParallelN(width, func(tc *omp.TC) {
							for ph := 0; ph < phases; ph++ {
								counts[ph].Add(1)
								tc.Barrier()
								if got := counts[ph].Load(); got != int32(width) {
									t.Errorf("%s width %d region %d phase %d: released with %d arrivals",
										v.name, width, region, ph, got)
								}
							}
						})
					}
					rt.Shutdown()
					if t.Failed() {
						return
					}
				}
			})
		}
	}
}
