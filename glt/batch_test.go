package glt_test

// Tests for the batch-dispatch and descriptor-recycling layer: SpawnTeam /
// SpawnBatch placement and ordering across all four backends, detached
// spawns, and the allocation profile of region respawn.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/glt"
	_ "repro/glt/backends"
)

// spinJoin waits for units without Unit.Join, so tests measuring allocations
// do not count the join channel.
func spinJoin(units []*glt.Unit) {
	for _, u := range units {
		for !u.Done() {
			runtime.Gosched()
		}
	}
}

func TestSpawnTeamPlacementTagsMain(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 2, false)
			const n = 5
			var rankByTag [n]atomic.Int64
			var ran [n]atomic.Int64
			units := rt.SpawnTeam(n, func(c *glt.Ctx) {
				rankByTag[c.Tag()].Store(int64(c.Rank()))
				ran[c.Tag()].Add(1)
			}, nil)
			for _, u := range units {
				u.Join()
			}
			seenMain := 0
			for _, u := range units {
				if u.Tag()%2 != u.Home() {
					t.Errorf("tag %d dispatched to home %d, want %d", u.Tag(), u.Home(), u.Tag()%2)
				}
				if u.IsMain() {
					seenMain++
					if u.Tag() != 0 {
						t.Errorf("main unit has tag %d, want 0", u.Tag())
					}
				}
			}
			if seenMain != 1 {
				t.Errorf("%d main units in team, want 1", seenMain)
			}
			for tag := range ran {
				if got := ran[tag].Load(); got != 1 {
					t.Errorf("tag %d ran %d times, want 1", tag, got)
				}
			}
			if b == "abt" { // private pools, no stealing: placement is exact
				for tag := range rankByTag {
					if got := rankByTag[tag].Load(); got != int64(tag%2) {
						t.Errorf("tag %d ran on stream %d, want %d", tag, got, tag%2)
					}
				}
			}
			rt.ReleaseAll(units)
		})
	}
}

// TestSpawnBatchOrdering checks that PushBatch preserves each backend's
// native queue semantics: abt and qth pools are FIFO (spawn order); mth's and
// ws's owners pop their deques LIFO (work-first: newest spawn first).
func TestSpawnBatchOrdering(t *testing.T) {
	const n = 8
	for _, b := range allBackends {
		t.Run(b+"/batched", func(t *testing.T) {
			rt, err := glt.New(glt.Config{Backend: b, NumThreads: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			var mu sync.Mutex
			var order []int
			// Occupy the stream until the whole batch is queued, so the
			// order observed is the pool's and not the dispatch's.
			release := holdStream(rt, 0)
			targets := make([]int, n)
			units := rt.SpawnBatch(0, func(c *glt.Ctx) {
				mu.Lock()
				order = append(order, c.Tag())
				mu.Unlock()
			}, targets, nil)
			release()
			for _, u := range units {
				u.Join()
			}
			want := make([]int, n)
			for i := range want {
				if b == "mth" || b == "ws" {
					want[i] = n - 1 - i // LIFO: the deque owner runs newest first
				} else {
					want[i] = i // FIFO pools
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(order) != n {
				t.Fatalf("ran %d units, want %d", len(order), n)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("execution order %v, want %v", order, want)
				}
			}
		})
	}
}

// TestRegionRespawnAllocsDrop is the pooling acceptance check: respawning a
// team through the free list, with the previous region's slice passed back,
// must allocate nothing once the descriptor, shell and channel pools are warm.
func TestRegionRespawnAllocsDrop(t *testing.T) {
	fn := func(*glt.Ctx) {}
	rt := glt.MustNew(glt.Config{Backend: "abt", NumThreads: 2})
	defer rt.Shutdown()
	buf := make([]*glt.Unit, 0, 4)
	cycle := func() {
		units := rt.SpawnTeam(4, fn, buf)
		spinJoin(units)
		rt.ReleaseAll(units)
	}
	for i := 0; i < 20; i++ {
		cycle() // warm the descriptor, shell and channel pools
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("pooled respawn allocates %.1f/region, want 0", got)
	}
}

func TestBatchStatsCounters(t *testing.T) {
	rt := newRT(t, "abt", 2, false)
	fn := func(*glt.Ctx) {}
	units := rt.SpawnTeam(4, fn, nil)
	spinJoin(units)
	rt.ReleaseAll(units)
	units = rt.SpawnTeam(4, fn, units[:0])
	spinJoin(units)
	rt.ReleaseAll(units)
	s := rt.Stats()
	if s.BatchPushes != 2 {
		t.Errorf("BatchPushes = %d, want 2", s.BatchPushes)
	}
	if s.UnitsReused == 0 {
		t.Error("UnitsReused = 0 after a released team respawned")
	}
	rt.ResetStats()
	if s := rt.Stats(); s.BatchPushes != 0 || s.UnitsReused != 0 {
		t.Errorf("batch counters not reset: %+v", s)
	}
}

// TestSpawnDetachedRunsAndRecycles drives the one detached spawn from both
// kinds of caller: a plain goroutine (from = -1, the shared free list) and a
// unit on the spawning stream (from = its own rank, that stream's cache).
// Every unit must run once and see its own payload, and the second wave must
// draw on the descriptors the first wave's workers recycled.
func TestSpawnDetachedRunsAndRecycles(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 2, false)
			const n = 64
			var ran, sum atomic.Int64
			body := func(c *glt.Ctx) {
				sum.Add(int64(c.Arg().(int)))
				ran.Add(1)
			}
			want := func(wave int64) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for ran.Load() != wave*n {
					if time.Now().After(deadline) {
						t.Fatalf("detached units ran %d of %d", ran.Load(), wave*n)
					}
					runtime.Gosched()
				}
				if got, exp := sum.Load(), wave*n*(n+1)/2; got != exp {
					t.Fatalf("payload sum = %d after wave %d, want %d", got, wave, exp)
				}
			}
			for i := 1; i <= n; i++ {
				rt.SpawnDetached(-1, glt.AnyThread, body, i)
			}
			want(1)
			// The workers recycle detached descriptors into their streams'
			// free-list caches; a second wave spawned *from* the streams
			// (the GLTO task path) must draw on those caches.
			for rank := 0; rank < rt.NumThreads(); rank++ {
				rank := rank
				parent := rt.Spawn(rank, func(c *glt.Ctx) {
					for i := rank + 1; i <= n; i += rt.NumThreads() {
						rt.SpawnDetached(c.Rank(), rank, body, i)
					}
				})
				parent.Join()
				parent.Release()
			}
			want(2)
			if s := rt.Stats(); s.UnitsReused == 0 {
				t.Error("UnitsReused = 0 after two waves of detached spawns")
			}
		})
	}
}

// TestSpawnTaskletCtx locks in the single-construction-path fix: the unit
// must be a tasklet AND run the given Func with a live Ctx.
func TestSpawnTaskletCtx(t *testing.T) {
	rt := newRT(t, "abt", 2, false)
	var rank atomic.Int64
	var sawTasklet atomic.Bool
	rank.Store(-1)
	u := rt.SpawnTaskletCtx(1, func(c *glt.Ctx) {
		rank.Store(int64(c.Rank()))
		sawTasklet.Store(c.Unit().IsTasklet())
	})
	u.Join()
	if !u.IsTasklet() {
		t.Error("SpawnTaskletCtx unit is not a tasklet")
	}
	if got := rank.Load(); got != 1 {
		t.Errorf("tasklet ran on stream %d, want 1 (abt pools are private)", got)
	}
	if !sawTasklet.Load() {
		t.Error("tasklet body saw IsTasklet() == false on its own unit")
	}
}

func TestReleaseRecyclesDescriptor(t *testing.T) {
	rt := newRT(t, "abt", 1, false)
	u := rt.Spawn(0, func(*glt.Ctx) {})
	u.Join()
	u.Release()
	u2 := rt.Spawn(0, func(*glt.Ctx) {})
	u2.Join()
	if s := rt.Stats(); s.UnitsReused == 0 {
		t.Error("UnitsReused = 0 after spawn-join-release-spawn")
	}
}
