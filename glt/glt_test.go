package glt_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/glt"
	_ "repro/glt/backends"
	"repro/internal/glttest"
)

var allBackends = []string{"abt", "qth", "mth", "ws"}

func newRT(t testing.TB, backend string, n int, shared bool) *glt.Runtime {
	t.Helper()
	rt, err := glt.New(glt.Config{Backend: backend, NumThreads: n, SharedQueues: shared})
	if err != nil {
		t.Fatalf("New(%s): %v", backend, err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// holdStream occupies the stream with the given rank until the returned
// function is called, so a test can queue several units behind it before any
// of them runs: an idle stream starts a unit the moment it is pushed, long
// before the test goroutine has spawned the next one.
func holdStream(rt *glt.Runtime, rank int) (release func()) {
	started, gate := make(chan struct{}), make(chan struct{})
	hold := rt.Spawn(rank, func(*glt.Ctx) { close(started); <-gate })
	<-started
	return func() { close(gate); hold.Join() }
}

func TestRegisteredBackends(t *testing.T) {
	got := glt.RegisteredBackends()
	want := map[string]bool{"abt": true, "qth": true, "mth": true, "ws": true}
	for _, b := range got {
		delete(want, b)
	}
	if len(want) != 0 {
		t.Fatalf("missing backends %v in %v", want, got)
	}
}

func TestUnknownBackend(t *testing.T) {
	if _, err := glt.New(glt.Config{Backend: "nope"}); err == nil {
		t.Fatal("expected error for unknown backend")
	}
}

func TestSpawnJoinSingle(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 4, false)
			var ran atomic.Bool
			u := rt.Spawn(0, func(*glt.Ctx) { ran.Store(true) })
			u.Join()
			if !ran.Load() {
				t.Error("ULT body did not run")
			}
			if !u.Done() {
				t.Error("Done() false after Join")
			}
		})
	}
}

func TestSpawnMany(t *testing.T) {
	const n = 1000
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 4, false)
			var count atomic.Int64
			units := make([]*glt.Unit, n)
			for i := range units {
				units[i] = rt.Spawn(glt.AnyThread, func(*glt.Ctx) { count.Add(1) })
			}
			for _, u := range units {
				u.Join()
			}
			if got := count.Load(); got != n {
				t.Errorf("ran %d of %d ULTs", got, n)
			}
		})
	}
}

func TestTasklet(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 2, false)
			var x atomic.Int64
			us := make([]*glt.Unit, 100)
			for i := range us {
				us[i] = rt.SpawnTasklet(glt.AnyThread, func() { x.Add(1) })
			}
			for _, u := range us {
				u.Join()
				if !u.IsTasklet() {
					t.Fatal("IsTasklet false")
				}
			}
			if x.Load() != 100 {
				t.Errorf("tasklets ran %d times, want 100", x.Load())
			}
			if s := rt.Stats(); s.TaskletsRun != 100 {
				t.Errorf("Stats.TaskletsRun = %d, want 100", s.TaskletsRun)
			}
		})
	}
}

func TestYieldInterleavesUnitsOnOneStream(t *testing.T) {
	// Two ULTs on one stream must interleave across yields: a yield by A
	// lets B run, and vice versa. This is the execution-stream invariant the
	// whole OpenMP-over-ULT construction relies on.
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 1, false)
			var turns []int32
			var mu atomic.Int32
			record := func(id int32) {
				_ = mu.Add(1)
				turns = append(turns, id)
			}
			body := func(id int32) glt.Func {
				return func(c *glt.Ctx) {
					for k := 0; k < 3; k++ {
						record(id)
						c.Yield()
					}
				}
			}
			release := holdStream(rt, 0)
			ua := rt.Spawn(0, body(1))
			ub := rt.Spawn(0, body(2))
			release()
			ua.Join()
			ub.Join()
			// With a single stream and FIFO pools the trace must alternate.
			saw1after2, saw2after1 := false, false
			for i := 1; i < len(turns); i++ {
				if turns[i-1] == 1 && turns[i] == 2 {
					saw2after1 = true
				}
				if turns[i-1] == 2 && turns[i] == 1 {
					saw1after2 = true
				}
			}
			if !saw1after2 || !saw2after1 {
				t.Errorf("units did not interleave: trace %v", turns)
			}
		})
	}
}

func TestCtxJoinFromULT(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 2, false)
			var order []string
			outer := rt.Spawn(0, func(c *glt.Ctx) {
				child := c.Spawn(func(*glt.Ctx) { order = append(order, "child") })
				c.Join(child)
				order = append(order, "parent")
			})
			outer.Join()
			if len(order) != 2 || order[0] != "child" || order[1] != "parent" {
				t.Errorf("join order = %v, want [child parent]", order)
			}
		})
	}
}

func TestNestedSpawnTree(t *testing.T) {
	// A ULT spawns children, each of which spawns grandchildren; all joined
	// cooperatively. Exercises deep join chains on every backend.
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 4, false)
			var leaves atomic.Int64
			root := rt.Spawn(0, func(c *glt.Ctx) {
				kids := make([]*glt.Unit, 8)
				for i := range kids {
					kids[i] = c.Spawn(func(c2 *glt.Ctx) {
						gkids := make([]*glt.Unit, 4)
						for j := range gkids {
							gkids[j] = c2.Spawn(func(*glt.Ctx) { leaves.Add(1) })
						}
						c2.JoinAll(gkids)
					})
				}
				c.JoinAll(kids)
			})
			root.Join()
			if leaves.Load() != 32 {
				t.Errorf("leaves = %d, want 32", leaves.Load())
			}
		})
	}
}

func TestMigrateTo(t *testing.T) {
	// abt does not steal, so after MigrateTo(1) the ULT must observe rank 1.
	rt := newRT(t, "abt", 2, false)
	var before, after int
	u := rt.Spawn(0, func(c *glt.Ctx) {
		before = c.Rank()
		c.MigrateTo(1)
		after = c.Rank()
	})
	u.Join()
	if before != 0 || after != 1 {
		t.Errorf("ranks before/after migrate = %d/%d, want 0/1", before, after)
	}
	if s := rt.Stats(); s.Migrations != 1 {
		t.Errorf("Stats.Migrations = %d, want 1", s.Migrations)
	}
}

func TestLocalSpawnStaysOnStreamABT(t *testing.T) {
	// Argobots-style private pools: Ctx.Spawn children run on the creating
	// stream. (This is the mechanism behind GLTO's nested-parallel policy.)
	rt := newRT(t, "abt", 4, false)
	var wrong atomic.Int64
	root := rt.Spawn(2, func(c *glt.Ctx) {
		kids := make([]*glt.Unit, 16)
		for i := range kids {
			kids[i] = c.Spawn(func(c2 *glt.Ctx) {
				if c2.Rank() != 2 {
					wrong.Add(1)
				}
			})
		}
		c.JoinAll(kids)
	})
	root.Join()
	if wrong.Load() != 0 {
		t.Errorf("%d children ran off the creating stream", wrong.Load())
	}
}

func TestStealingMovesWorkMTH(t *testing.T) {
	// MassiveThreads steals: children spawned on a stream while it is busy
	// must end up executed by other streams.
	rt := newRT(t, "mth", 4, false)
	w := glttest.NewSpread()
	busy := rt.Spawn(0, func(c *glt.Ctx) {
		w.Mark(c.Rank())
		kids := make([]*glt.Unit, 64)
		for i := range kids {
			kids[i] = c.Spawn(func(c2 *glt.Ctx) { w.Ran(c2.Rank()) })
		}
		c.JoinAll(kids)
	})
	busy.Join()
	if w.Streams() < 2 {
		t.Error("no work was stolen by other streams under mth")
	}
}

func TestMainPinnedUnderMTH(t *testing.T) {
	// Under MassiveThreads the main ULT's yield is suppressed (paper §IV-G):
	// its children must be executed by thieves, and PinnedYields must count.
	rt := newRT(t, "mth", 4, false)
	var childRanks [4]atomic.Int64
	var mainRank atomic.Int64
	main := rt.SpawnMain(0, func(c *glt.Ctx) {
		// The not-yet-started main may itself be stolen; once running it is
		// pinned to whichever stream picked it up.
		mainRank.Store(int64(c.Rank()))
		kids := make([]*glt.Unit, 32)
		for i := range kids {
			kids[i] = c.Spawn(func(c2 *glt.Ctx) {
				childRanks[c2.Rank()].Add(1)
				// Hold the join open until the main has had to wait: trivial
				// children can all be stolen and done before it looks.
				for rt.Stats().PinnedYields == 0 {
					runtime.Gosched()
				}
			})
		}
		c.JoinAll(kids)
	})
	main.Join()
	if got := childRanks[mainRank.Load()].Load(); got != 0 {
		t.Errorf("pinned main's stream executed %d children; they should all be stolen", got)
	}
	if s := rt.Stats(); s.PinnedYields == 0 {
		t.Error("expected PinnedYields > 0 for pinned main")
	}
}

func TestSharedQueues(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 4, true)
			if !rt.SharedQueues() {
				t.Fatal("SharedQueues() false")
			}
			// With one shared pool, pushing everything "to rank 0" must still
			// let other streams serve the burst.
			w := glttest.NewSpread()
			us := make([]*glt.Unit, 200)
			for i := range us {
				us[i] = rt.Spawn(0, func(c *glt.Ctx) { w.Ran(c.Rank()) })
			}
			for _, u := range us {
				u.Join()
			}
			if n := w.Streams(); n < 2 {
				t.Errorf("shared queue used %d streams, want >= 2", n)
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := newRT(t, "abt", 2, false)
	const n = 50
	us := make([]*glt.Unit, n)
	for i := range us {
		us[i] = rt.Spawn(glt.AnyThread, func(c *glt.Ctx) { c.Yield() })
	}
	for _, u := range us {
		u.Join()
	}
	s := rt.Stats()
	if s.ULTsStarted != n || s.ULTsCompleted != n {
		t.Errorf("started/completed = %d/%d, want %d/%d", s.ULTsStarted, s.ULTsCompleted, n, n)
	}
	if s.Yields < n {
		t.Errorf("yields = %d, want >= %d", s.Yields, n)
	}
	rt.ResetStats()
	if s := rt.Stats(); s.ULTsStarted != 0 || s.Yields != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

func TestConfigFromEnv(t *testing.T) {
	t.Setenv("GLT_IMPL", "qth")
	t.Setenv("GLT_NUM_THREADS", "3")
	t.Setenv("GLT_SHARED_QUEUES", "1")
	c := glt.Config{}.FromEnv()
	if c.Backend != "qth" || c.NumThreads != 3 || !c.SharedQueues {
		t.Errorf("FromEnv = %+v", c)
	}
	// Explicit settings win over the environment.
	c2 := glt.Config{Backend: "abt", NumThreads: 7}.FromEnv()
	if c2.Backend != "abt" || c2.NumThreads != 7 {
		t.Errorf("FromEnv override = %+v", c2)
	}
	// GLT_BACKEND is a synonym for GLT_IMPL, which wins when both are set.
	t.Setenv("GLT_IMPL", "")
	t.Setenv("GLT_BACKEND", "ws")
	if c3 := (glt.Config{}).FromEnv(); c3.Backend != "ws" {
		t.Errorf("GLT_BACKEND not honoured: %+v", c3)
	}
	t.Setenv("GLT_IMPL", "mth")
	if c4 := (glt.Config{}).FromEnv(); c4.Backend != "mth" {
		t.Errorf("GLT_IMPL should win over GLT_BACKEND: %+v", c4)
	}
}

// TestStealingMovesWorkWS mirrors the mth stealing check on the lock-free
// backend: children spawned on a busy stream must be executed elsewhere.
func TestStealingMovesWorkWS(t *testing.T) {
	rt := newRT(t, "ws", 4, false)
	w := glttest.NewSpread()
	busy := rt.Spawn(0, func(c *glt.Ctx) {
		w.Mark(c.Rank())
		kids := make([]*glt.Unit, 64)
		for i := range kids {
			kids[i] = c.Spawn(func(c2 *glt.Ctx) { w.Ran(c2.Rank()) })
		}
		c.JoinAll(kids)
	})
	busy.Join()
	if w.Streams() < 2 {
		t.Error("no work was stolen by other streams under ws")
	}
}

// TestPropertyAllSpawnedUnitsComplete is a property-based check: for any
// small mix of ULTs/tasklets, targets and yield counts, every spawned unit
// completes exactly once.
func TestPropertyAllSpawnedUnitsComplete(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b, func(t *testing.T) {
			rt := newRT(t, b, 3, false)
			prop := func(spec []uint8) bool {
				if len(spec) > 64 {
					spec = spec[:64]
				}
				var ran atomic.Int64
				units := make([]*glt.Unit, 0, len(spec))
				for _, s := range spec {
					target := int(s>>2) % rt.NumThreads()
					yields := int(s & 3)
					if s&4 != 0 {
						units = append(units, rt.SpawnTasklet(target, func() { ran.Add(1) }))
					} else {
						units = append(units, rt.Spawn(target, func(c *glt.Ctx) {
							for y := 0; y < yields; y++ {
								c.Yield()
							}
							ran.Add(1)
						}))
					}
				}
				for _, u := range units {
					u.Join()
				}
				return ran.Load() == int64(len(units))
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestShutdownIdempotent(t *testing.T) {
	rt, err := glt.New(glt.Config{Backend: "abt", NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(0, func(*glt.Ctx) {}).Join()
	rt.Shutdown()
	rt.Shutdown() // second call must be a no-op
}
