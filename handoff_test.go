package repro_test

import (
	"testing"

	"repro/glt"
	"repro/omp"
	"repro/openmp"
)

// TestNestedRegionHandoffs pins what a region costs in execution-token moves
// on GLTO(ABT), in the shape of the paper's Listing 1 (the nested_forkjoin
// workload). A top-level region costs two: stream 0's holder pops the
// region's caller, queued as the master, and hands it the token; the master's
// body returns and the caller hands the stream to a shell. The member on
// stream 1 runs inline there and moves nothing. An inner region of two costs
// four. The encountering member E queues the inner member U on its own
// stream and meets two barriers (the inner loop's and the region end's)
// before joining U:
//  1. E waits at the first barrier: its yield pops U, fresh, so a shell takes
//     the stream and runs U, which arrives last and releases the barrier.
//  2. U waits at the second barrier: its yield pops the suspended E.
//  3. E arrives last, then yields in the join: it pops the suspended U.
//  4. U's body returns; its goroutine drives the stream on and pops E.
//
// Private pools keep each team on its stream, and a waiter that pops itself
// moves nothing, so the count is exactly four per inner region plus two per
// top-level region however many times the waiters poll.
func TestNestedRegionHandoffs(t *testing.T) {
	const outer = 8
	for _, wait := range []omp.WaitPolicy{omp.PassiveWait, omp.ActiveWait} {
		rt, err := openmp.New("glto", omp.Config{NumThreads: 2, Backend: "abt", Nested: true, WaitPolicy: wait})
		if err != nil {
			t.Fatal(err)
		}
		op := func() {
			rt.ParallelN(2, func(tc *omp.TC) {
				tc.For(0, outer, func(int) {
					tc.Parallel(2, func(in *omp.TC) { in.For(0, outer, func(int) {}) })
				})
			})
		}
		op()
		rt.ResetStats()
		for i := 0; i < 10; i++ {
			op()
		}
		s := rt.Stats()
		gs := rt.(interface{ GLT() *glt.Runtime }).GLT().Stats()
		rt.Shutdown()
		if s.Regions != 10 || s.NestedRegions != 10*outer || gs.Handoffs != 4*s.NestedRegions+2*s.Regions {
			t.Errorf("wait policy %v: %d handoffs over %d regions and %d inner regions, want 2 per region over 10 and 4 per inner region over %d",
				wait, gs.Handoffs, s.Regions, s.NestedRegions, 10*outer)
		}
	}
}
