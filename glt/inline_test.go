package glt

// Tests for the run-to-completion-first execution model: every unit starts
// inline on the goroutine driving its stream, and a ULT gets a private
// goroutine only at its first yield (promotion), when the stream is handed to
// a pooled successor. They run on one private-pool and two stealing backends.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

var inlineBackends = []string{"abt", "mth", "ws"}

func eachInlineBackend(t *testing.T, threads int, fn func(t *testing.T, rt *Runtime)) {
	for _, b := range inlineBackends {
		t.Run(b, func(t *testing.T) {
			rt := MustNew(Config{Backend: b, NumThreads: threads})
			defer shutdownWithTimeout(t, rt)
			fn(t, rt)
		})
	}
}

func shutdownWithTimeout(t *testing.T, rt *Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() { rt.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown wedged: some stream lost its driver")
	}
}

// eventually polls cond for up to ten seconds. Counters bumped by a stream
// after a body's own side effects (completion statistics of detached units)
// are only eventually visible to an observer of those side effects.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestInlineRunToCompletion(t *testing.T) {
	eachInlineBackend(t, 2, func(t *testing.T, rt *Runtime) {
		const joined, batch = 50, 64
		var ran atomic.Int64
		for i := 0; i < joined; i++ {
			u := rt.Spawn(i%2, func(*Ctx) { ran.Add(1) })
			joinWithTimeout(t, u, "non-yielding ULT")
			u.Release()
		}
		targets := make([]int, batch)
		for i := range targets {
			targets[i] = i % 2
		}
		rt.SpawnDetachedBatch(func(*Ctx) { ran.Add(1) }, targets, nil, false)
		eventually(t, "the detached batch", func() bool {
			return rt.Stats().ULTsCompleted == joined+batch
		})
		s := rt.Stats()
		if ran.Load() != joined+batch || s.ULTsStarted != joined+batch {
			t.Errorf("ran %d bodies, started %d ULTs, want %d", ran.Load(), s.ULTsStarted, joined+batch)
		}
		if s.Promotions != 0 || s.Yields != 0 {
			t.Errorf("Promotions = %d, Yields = %d for bodies that never yield", s.Promotions, s.Yields)
		}
	})
}

func TestYieldingULTPromotedOnce(t *testing.T) {
	eachInlineBackend(t, 2, func(t *testing.T, rt *Runtime) {
		const k = 7
		resumed := 0
		u := rt.Spawn(0, func(c *Ctx) {
			for i := 0; i < k; i++ {
				c.Yield()
				resumed++
			}
		})
		joinWithTimeout(t, u, "yielding ULT")
		s := rt.Stats()
		if resumed != k || s.Yields != k {
			t.Errorf("resumed %d times over %d yields, want %d", resumed, s.Yields, k)
		}
		if s.Promotions != 1 || s.ULTsStarted != 1 || s.ULTsCompleted != 1 {
			t.Errorf("Promotions/started/completed = %d/%d/%d, want 1/1/1",
				s.Promotions, s.ULTsStarted, s.ULTsCompleted)
		}
		u.Release()
	})
}

func TestCooperativeJoinPromotesParentOnly(t *testing.T) {
	eachInlineBackend(t, 2, func(t *testing.T, rt *Runtime) {
		childDone := false
		parent := rt.Spawn(0, func(c *Ctx) {
			child := c.Spawn(func(*Ctx) { childDone = true })
			c.Join(child) // the child is behind us on this stream: must yield
			if !child.Done() {
				t.Error("Ctx.Join returned before the child completed")
			}
			child.Release()
		})
		joinWithTimeout(t, parent, "joining parent")
		if !childDone {
			t.Error("child never ran")
		}
		if s := rt.Stats(); s.Promotions != 1 {
			t.Errorf("Promotions = %d, want 1 (the parent; the child ran inline)", s.Promotions)
		}
		parent.Release()
	})
}

func TestMigrateToPromotesAndMoves(t *testing.T) {
	eachInlineBackend(t, 2, func(t *testing.T, rt *Runtime) {
		after := -1
		u := rt.Spawn(0, func(c *Ctx) {
			c.MigrateTo(1)
			after = c.Rank()
		})
		joinWithTimeout(t, u, "migrating ULT")
		s := rt.Stats()
		if s.Migrations != 1 || s.Promotions != 1 {
			t.Errorf("Migrations/Promotions = %d/%d, want 1/1", s.Migrations, s.Promotions)
		}
		// Only a private-pool backend guarantees where the continuation runs:
		// mth places by the pushing stream and both stealers may move it on.
		if rt.Backend() == "abt" && after != 1 {
			t.Errorf("resumed on stream %d after MigrateTo(1)", after)
		}
		u.Release()
	})
}

// TestHandoffChurn moves one stream between goroutines ten thousand times.
// Every promotion must find its successor in the pool, every finished ULT's
// goroutine must go back to it, and Shutdown must still find exactly one
// driver per stream to release its WaitGroup.
func TestHandoffChurn(t *testing.T) {
	for _, b := range inlineBackends {
		t.Run(b, func(t *testing.T) {
			const handoffs = 10000
			base := runtime.NumGoroutine()
			rt := MustNew(Config{Backend: b, NumThreads: 2})
			limit := base + int(rt.shells.cap)
			for i := 0; i < handoffs; i++ {
				u := rt.Spawn(0, func(c *Ctx) { c.Yield() })
				u.Join()
				u.Release()
			}
			if got := rt.Stats().Promotions; got != handoffs {
				t.Errorf("Promotions = %d, want %d", got, handoffs)
			}
			if n := runtime.NumGoroutine(); n > limit+len(rt.threads) {
				t.Errorf("%d goroutines while running, want <= %d", n, limit+len(rt.threads))
			}
			if idle := idleShells(rt, 1); idle > int(rt.shells.cap) {
				t.Errorf("idle shells %d exceed cap %d", idle, rt.shells.cap)
			}
			shutdownWithTimeout(t, rt)
			eventually(t, "goroutines to retire", func() bool { return runtime.NumGoroutine() <= limit })
		})
	}
}

// TestPromotedPanicContained is TestULTPanicContained past the promotion
// point: the panic unwinds a private goroutine, which must still hand the
// token back tagged done.
func TestPromotedPanicContained(t *testing.T) {
	eachInlineBackend(t, 2, func(t *testing.T, rt *Runtime) {
		u := rt.Spawn(0, func(c *Ctx) {
			c.Yield()
			panic("promoted boom")
		})
		joinWithTimeout(t, u, "panicking promoted ULT")
		u.Release()
		v := rt.Spawn(0, func(*Ctx) {})
		joinWithTimeout(t, v, "post-panic ULT")
		v.Release()
		if s := rt.Stats(); s.PanicsRecovered != 1 || s.ULTsCompleted != 2 {
			t.Errorf("PanicsRecovered/ULTsCompleted = %d/%d, want 1/2", s.PanicsRecovered, s.ULTsCompleted)
		}
	})
}

// TestGoexitInBody covers a body that ends in runtime.Goexit (a t.FailNow
// inside a ULT), both inline — where the dying goroutine is the stream's
// driver and must appoint a successor — and after promotion. Either way the
// unit completes, its descriptor recycles, and the stream keeps scheduling.
func TestGoexitInBody(t *testing.T) {
	for _, promoted := range []bool{false, true} {
		name := "inline"
		if promoted {
			name = "promoted"
		}
		t.Run(name, func(t *testing.T) {
			EnableUnitCensus(true)
			defer EnableUnitCensus(false)
			for _, b := range inlineBackends {
				t.Run(b, func(t *testing.T) {
					live := LiveUnits()
					rt := MustNew(Config{Backend: b, NumThreads: 1})
					u := rt.Spawn(0, func(c *Ctx) {
						if promoted {
							c.Yield()
						}
						runtime.Goexit()
					})
					joinWithTimeout(t, u, "Goexit ULT")
					u.Release()
					v := rt.Spawn(0, func(c *Ctx) { c.Yield() })
					joinWithTimeout(t, v, "post-Goexit ULT")
					v.Release()
					s := rt.Stats()
					if s.PanicsRecovered != 0 || s.ULTsCompleted != 2 {
						t.Errorf("PanicsRecovered/ULTsCompleted = %d/%d, want 0/2", s.PanicsRecovered, s.ULTsCompleted)
					}
					// The streams drop their references just after releasing
					// the joiners; Shutdown orders the census read after that.
					shutdownWithTimeout(t, rt)
					if got := LiveUnits(); got != live {
						t.Errorf("census residue: %d live descriptors, baseline %d", got, live)
					}
				})
			}
		})
	}
}

// TestPinnedMainStaysInline: under mth the primary ULT's yields are
// suppressed (paper §IV-G), so it never reaches a promotion point and
// occupies its stream's driving goroutine for its whole lifetime.
func TestPinnedMainStaysInline(t *testing.T) {
	rt := MustNew(Config{Backend: "mth", NumThreads: 2})
	defer shutdownWithTimeout(t, rt)
	var kidsRan atomic.Int64
	main := rt.SpawnMain(0, func(c *Ctx) {
		kids := make([]*Unit, 16)
		for i := range kids {
			kids[i] = c.Spawn(func(*Ctx) {
				// Hold the join open until the main has had to wait for it.
				for rt.Stats().PinnedYields == 0 {
					runtime.Gosched()
				}
				kidsRan.Add(1)
			})
		}
		c.JoinAll(kids) // pinned: spins while the other stream steals the kids
	})
	joinWithTimeout(t, main, "pinned main")
	s := rt.Stats()
	if kidsRan.Load() != 16 || s.PinnedYields == 0 {
		t.Errorf("kids ran %d of 16 with %d pinned yields", kidsRan.Load(), s.PinnedYields)
	}
	if s.Promotions != 0 || s.Yields != 0 {
		t.Errorf("Promotions/Yields = %d/%d, want 0/0: the pinned main left the inline path", s.Promotions, s.Yields)
	}
}
