package ptpool

import (
	"sync/atomic"
	"testing"

	"repro/internal/pthread"
)

func TestDispatchRunsAllRanks(t *testing.T) {
	for _, mode := range []pthread.WaitMode{pthread.ActiveWait, pthread.PassiveWait} {
		p := New(4, mode, new(atomic.Int64))
		var ranks [4]atomic.Int64
		p.Dispatch(&Region{Size: 4, Run: func(rank int) { ranks[rank].Add(1) }})
		for i := range ranks {
			if ranks[i].Load() != 1 {
				t.Errorf("mode %v: rank %d ran %d times", mode, i, ranks[i].Load())
			}
		}
		p.Shutdown()
	}
}

func TestDispatchReusableAcrossRegions(t *testing.T) {
	p := New(3, pthread.ActiveWait, new(atomic.Int64))
	defer p.Shutdown()
	var total atomic.Int64
	for k := 0; k < 50; k++ {
		p.Dispatch(&Region{Size: 3, Run: func(rank int) { total.Add(1) }})
	}
	if total.Load() != 150 {
		t.Errorf("50 regions x 3 ranks = %d runs, want 150", total.Load())
	}
}

func TestSmallerRegionSkipsExtraWorkers(t *testing.T) {
	p := New(6, pthread.ActiveWait, new(atomic.Int64))
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
	p := New(2, pthread.PassiveWait, &created)
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
	p := New(5, pthread.ActiveWait, &created)
	if got := created.Load(); got != 4 {
		t.Errorf("pool for size 5 created %d workers, want 4", got)
	}
	p.Shutdown()
}
