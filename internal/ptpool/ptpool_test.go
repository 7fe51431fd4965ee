package ptpool

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pthread"
	"repro/omp"
)

func TestDispatchRunsAllRanks(t *testing.T) {
	for _, policy := range []omp.WaitPolicy{omp.ActiveWait, omp.PassiveWait} {
		p := New(4, policy, new(atomic.Int64))
		var ranks [4]atomic.Int64
		p.Dispatch(&Region{Size: 4, Run: func(rank int) { ranks[rank].Add(1) }})
		for i := range ranks {
			if ranks[i].Load() != 1 {
				t.Errorf("%v: rank %d ran %d times", policy, i, ranks[i].Load())
			}
		}
		p.Shutdown()
	}
}

// TestDispatchReusableAcrossRegions runs back-to-back regions under both
// wait policies, in a pool that fits the processors and in one that
// oversubscribes them. In the second, spinning workers hold the processors
// that the dispatcher and the other workers need, so each region finishes
// only through the yield or the block that ends a worker's spin round.
func TestDispatchReusableAcrossRegions(t *testing.T) {
	const regions = 200
	for _, policy := range []omp.WaitPolicy{omp.ActiveWait, omp.PassiveWait} {
		for _, size := range []int{2, runtime.GOMAXPROCS(0) + 2} {
			t.Run(fmt.Sprintf("%v/%d", policy, size), func(t *testing.T) {
				p := New(size, policy, new(atomic.Int64))
				ranks := make([]atomic.Int64, size)
				r := &Region{Size: size, Run: func(rank int) { ranks[rank].Add(1) }}
				for k := 1; k <= regions; k++ {
					p.Dispatch(r)
					for i := range ranks {
						if n := ranks[i].Load(); n != int64(k) {
							t.Fatalf("after region %d, rank %d ran %d times", k, i, n)
						}
					}
				}
				p.Shutdown()
			})
		}
	}
}

func TestSmallerRegionSkipsExtraWorkers(t *testing.T) {
	p := New(6, omp.ActiveWait, new(atomic.Int64))
	defer p.Shutdown()
	var maxRank atomic.Int64
	p.Dispatch(&Region{Size: 2, Run: func(rank int) {
		for {
			cur := maxRank.Load()
			if int64(rank) <= cur || maxRank.CompareAndSwap(cur, int64(rank)) {
				return
			}
		}
	}})
	if maxRank.Load() > 1 {
		t.Errorf("rank %d participated in a size-2 region", maxRank.Load())
	}
}

func TestGrowOnDemand(t *testing.T) {
	var created atomic.Int64
	p := New(2, omp.PassiveWait, &created)
	defer p.Shutdown()
	before := created.Load()
	var count atomic.Int64
	p.Dispatch(&Region{Size: 8, Run: func(rank int) { count.Add(1) }})
	if count.Load() != 8 {
		t.Errorf("grown region ran %d ranks, want 8", count.Load())
	}
	if created.Load() <= before {
		t.Error("pool did not create workers to grow")
	}
	if p.Size() != 8 {
		t.Errorf("Size = %d after growth, want 8", p.Size())
	}
}

func TestCreatedCountsWorkers(t *testing.T) {
	pthread.ResetCounters()
	var created atomic.Int64
	p := New(5, omp.ActiveWait, &created)
	if got := created.Load(); got != 4 {
		t.Errorf("pool for size 5 created %d workers, want 4", got)
	}
	p.Shutdown()
}

// TestGrowStartsWorkersAtCurrentEpoch pins that a worker added by Grow waits
// for the next dispatch: a fresh worker that took an already-retired epoch as
// new would run whatever region is stored, then run it again once the epoch
// is really bumped.
func TestGrowStartsWorkersAtCurrentEpoch(t *testing.T) {
	p := New(2, omp.ActiveWait, new(atomic.Int64))
	defer p.Shutdown()
	p.Dispatch(&Region{Size: 2, Run: func(int) {}})

	var ranks [4]atomic.Int64
	r := &Region{Size: 4, Run: func(rank int) { ranks[rank].Add(1) }}
	// Store the region without bumping the epoch, as Dispatch does for the
	// instant between its two steps; only a bumped epoch may release it.
	p.region.Store(r)
	p.Grow(4)
	time.Sleep(50 * time.Millisecond)
	for i := range ranks {
		if n := ranks[i].Load(); n != 0 {
			t.Fatalf("rank %d ran %d times before the region was dispatched", i, n)
		}
	}
	p.Dispatch(r)
	for i := range ranks {
		if n := ranks[i].Load(); n != 1 {
			t.Errorf("rank %d ran %d times, want 1", i, n)
		}
	}
}
