package glt_test

// Tests for the batch-dispatch and descriptor-recycling layer: SpawnTeam /
// SpawnBatch placement and ordering across all three backends, the
// PerUnitDispatch fallback, detached spawns, and the allocation profile of
// region respawn.

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
// native queue semantics, in both batched and per-unit fallback modes: abt
// and qth pools are FIFO (spawn order); mth's and ws's owners pop their
// deques LIFO (work-first: newest spawn first).
func TestSpawnBatchOrdering(t *testing.T) {
	const n = 8
	for _, b := range allBackends {
		for _, perUnit := range []bool{false, true} {
			name := b + "/batched"
			if perUnit {
				name = b + "/per-unit"
			}
			t.Run(name, func(t *testing.T) {
				rt, err := glt.New(glt.Config{Backend: b, NumThreads: 1, PerUnitDispatch: perUnit})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Shutdown()
				var mu sync.Mutex
				var order []int
				// Occupy the stream until the whole batch is queued: per-unit
				// dispatch pushes one unit at a time, and an idle stream would
				// run the first before the second exists.
				release := holdStream(rt, 0)
				targets := make([]int, n)
				units := rt.SpawnBatch(func(c *glt.Ctx) {
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
						break
					}
				}
				if s := rt.Stats(); perUnit && s.BatchPushes != 0 {
					t.Errorf("BatchPushes = %d under PerUnitDispatch, want 0", s.BatchPushes)
				}
			})
		}
	}
}

// TestRegionRespawnAllocsDrop is the pooling acceptance check: respawning a
// team through the free list must allocate well under (≤70% of) what the
// per-unit paper-faithful mode allocates per region.
func TestRegionRespawnAllocsDrop(t *testing.T) {
	fn := func(*glt.Ctx) {}
	measure := func(perUnit bool) float64 {
		rt := glt.MustNew(glt.Config{Backend: "abt", NumThreads: 2, PerUnitDispatch: perUnit})
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
		return testing.AllocsPerRun(100, cycle)
	}
	pooled := measure(false)
	perUnit := measure(true)
	t.Logf("allocs/region: pooled %.1f, per-unit %.1f", pooled, perUnit)
	if pooled > 0.7*perUnit {
		t.Errorf("pooled respawn allocates %.1f/region, want ≤ 70%% of per-unit %.1f", pooled, perUnit)
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

func TestSpawnDetachedRunsAndRecycles(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 2, false)
			const n = 64
			var ran atomic.Int64
			for i := 0; i < n; i++ {
				rt.SpawnDetached(glt.AnyThread, func(*glt.Ctx) { ran.Add(1) })
			}
			deadline := time.Now().Add(5 * time.Second)
			for ran.Load() != n {
				if time.Now().After(deadline) {
					t.Fatalf("detached units ran %d of %d", ran.Load(), n)
				}
				runtime.Gosched()
			}
			// The workers recycle detached descriptors into their streams'
			// free-list caches; a second wave spawned *from* the streams
			// (the GLTO task path) must draw on those caches.
			for rank := 0; rank < rt.NumThreads(); rank++ {
				rank := rank
				parent := rt.Spawn(rank, func(c *glt.Ctx) {
					for i := 0; i < n/2; i++ {
						c.SpawnDetached(rank, func(*glt.Ctx) { ran.Add(1) }, false)
					}
				})
				parent.Join()
			}
			for ran.Load() != 2*n && !time.Now().After(deadline) {
				runtime.Gosched()
			}
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

// TestPerUnitDispatchKeepsSemantics runs a nontrivial spawn/yield/join mix
// under the escape hatch to confirm the fallback path is a faithful engine.
func TestPerUnitDispatchKeepsSemantics(t *testing.T) {
	rt, err := glt.New(glt.Config{Backend: "abt", NumThreads: 2, PerUnitDispatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	units := rt.SpawnTeam(6, func(c *glt.Ctx) {
		c.Yield()
		ran.Add(1)
	}, nil)
	for _, u := range units {
		u.Join()
	}
	rt.ReleaseAll(units) // must be a harmless no-op
	if ran.Load() != 6 {
		t.Errorf("ran %d of 6 team members", ran.Load())
	}
	if s := rt.Stats(); s.BatchPushes != 0 || s.UnitsReused != 0 {
		t.Errorf("pooling/batching active under PerUnitDispatch: %+v", s)
	}
}
