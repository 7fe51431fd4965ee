package omp

// White-box tests for the team barrier: correctness across team widths
// under both wait policies, epoch continuity when a team descriptor (and
// its BarrierState) is recycled into regions of different widths, and
// exactly-once claiming under the randomized near-first raid tour. Run
// under -race, as CI does.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tour"
)

// barrierOps is the minimal EngineOps a barrier-only region needs: waits
// funnel to the shared BarrierState and idling is a scheduler yield, as in
// the pthread engines. No test below spawns explicit tasks; one that did
// would run it inline.
type barrierOps struct{}

func (barrierOps) Inline(*TC, *TaskNode) bool           { return true }
func (barrierOps) Enqueue(*Team, []*TaskNode, int, any) {}
func (barrierOps) Taskyield(*TC)                        {}
func (barrierOps) Nested(*TC, *Team)                    {}
func (barrierOps) TryRunTask(*TC) bool                  { return false }
func (barrierOps) Idle(*TC)                             { runtime.Gosched() }

// runBarrierRegion drives one region of the given width through phases
// explicit barriers, asserting after every barrier that no member was
// released before all width arrivals of that phase had been counted.
func runBarrierRegion(t *testing.T, team *Team, width, phases int) {
	t.Helper()
	counts := make([]atomic.Int32, phases)
	body := func(tc *TC) {
		for ph := 0; ph < phases; ph++ {
			counts[ph].Add(1)
			tc.Barrier()
			if got := counts[ph].Load(); got != int32(width) {
				t.Errorf("width %d phase %d: released with %d arrivals", width, ph, got)
			}
		}
	}
	team.prepare(width, 0, team.Cfg, body)
	var wg sync.WaitGroup
	for rank := 0; rank < width; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			team.Run(rank, barrierOps{}, nil)
		}()
	}
	wg.Wait()
}

// TestBarrierWidths sweeps widths 2, 8 and 32 under both wait policies,
// several regions each so later regions start from a recycled epoch.
func TestBarrierWidths(t *testing.T) {
	for _, policy := range []WaitPolicy{PassiveWait, ActiveWait} {
		for _, width := range []int{2, 8, 32} {
			team := NewTeam(width, 0, Config{WaitPolicy: policy}, func(*TC) {})
			for region := 0; region < 3; region++ {
				runBarrierRegion(t, team, width, 4)
			}
		}
	}
}

// TestBarrierRecycleAcrossWidths recycles one descriptor through wide and
// narrow regions in alternation. The epoch must stay monotonic across
// prepare calls: an arrival count or epoch left over from a region of
// another width must neither release a later region early nor deadlock it.
func TestBarrierRecycleAcrossWidths(t *testing.T) {
	team := NewTeam(32, 0, Config{}, func(*TC) {})
	for _, width := range []int{32, 8, 32, 2, 16, 32} {
		runBarrierRegion(t, team, width, 3)
	}
}

// TestRandomizedTourExactlyOnce is the determinism check behind the
// randomized near-first raid tour: producers on every rank of a wide team
// buffer tasks while several identity-less raiders
// (Team.stealBuffered, each drawing its tour starts from its own
// tour.Rand) claim concurrently.
// Randomizing where each tour begins must change only the visit order —
// every buffered task still surfaces exactly once, and the tour must still
// reach all ranks' rings.
func TestRandomizedTourExactlyOnce(t *testing.T) {
	const (
		producers = 8
		perRank   = 200
		raiders   = 3
		limit     = 32
		deadline  = 10 * time.Second
	)
	team, tcs := raidTeam(producers)
	total := int32(producers * perRank)
	var seen [producers * perRank]atomic.Int32
	var claimed atomic.Int32

	var wg sync.WaitGroup
	for rank := 0; rank < producers; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := tcs[rank]
			for i := 0; i < perRank; {
				if tc.BufferedTasks() >= limit-1 {
					runtime.Gosched()
					continue
				}
				tag := rank*perRank + i
				node := PrepareTask(tc, func(*TC) { seen[tag].Add(1) })
				tc.bufferTask(node, limit)
				i++
			}
		}()
	}
	start := time.Now()
	for r := 0; r < raiders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Identity-less consumer: the tour start comes from the
			// raider's own random stream instead of a rank rotor.
			sink := NewTC(team, 0, nil, nil, nil)
			rng := tour.Rand(r)
			for claimed.Load() < total {
				from, _ := rng.Start(team.Size)
				if node, _, _ := team.stealBuffered(from); node != nil {
					execTask(sink, node)
					claimed.Add(1)
					continue
				}
				if time.Since(start) > deadline {
					t.Errorf("raiders claimed %d of %d buffered tasks", claimed.Load(), total)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for tag := range seen {
		if got := seen[tag].Load(); got != 1 {
			t.Fatalf("task %d executed %d times, want exactly once", tag, got)
		}
	}
	if n := team.BufferedTaskCount(); n != 0 {
		t.Fatalf("BufferedTaskCount = %d after drain, want 0", n)
	}
}
