package glt

// Tests for the run-to-completion-first execution model: every unit starts
// inline on the goroutine holding its stream's token, a ULT keeps that
// goroutine as its private stack from its first yield (promotion) on, and a
// yielding ULT runs its stream's next scheduling step itself. They run on one
// private-pool and two stealing backends.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/glt/trace"
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

// TestHandoffChurn promotes ten thousand ULTs on one stream. However the
// token moved meanwhile, goroutines must not accumulate, parked shells must
// stay within the pool's cap, and Shutdown must still find exactly one token
// holder per stream to release its WaitGroup.
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
			// A lone yielder pops itself and parks no shell, so read the
			// count as it is rather than wait for one.
			if idle := int(rt.shells.n.Load()); idle > int(rt.shells.cap) {
				t.Errorf("idle shells %d exceed cap %d", idle, rt.shells.cap)
			}
			shutdownWithTimeout(t, rt)
			eventually(t, "goroutines to retire", func() bool { return runtime.NumGoroutine() <= limit })
		})
	}
}

// TestPromotedPanicContained is TestULTPanicContained past the promotion
// point: the panic unwinds a resumed body, which must still complete the unit
// and leave its goroutine scheduling the stream.
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

// holdStream occupies the stream with the given rank with an inline unit
// until release is called, so units spawned meanwhile queue behind it.
func holdStream(rt *Runtime, rank int) (release func()) {
	started, gate := make(chan struct{}), make(chan struct{})
	hold := rt.Spawn(rank, func(*Ctx) { close(started); <-gate })
	<-started
	return func() { close(gate); hold.Join(); hold.Release() }
}

// handoffCounts is the part of Stats the token-handoff tests pin exactly.
type handoffCounts struct{ Handoffs, Yields, Promotions, Migrations int64 }

// TestHandoffCounts pins where the execution token moves. A yielding ULT runs
// its stream's next scheduling step itself, so Handoffs counts exactly the
// direct signals to suspended ULTs plus the streams handed to shells, while a
// yield that pops its own unit moves nothing. Every scenario also runs traced,
// and every stream's unit_start/unit_end events must pair up.
func TestHandoffCounts(t *testing.T) {
	const k, n = 3, 4
	for _, sc := range []struct {
		name    string
		threads int
		run     func(t *testing.T, rt *Runtime)
		want    map[string]handoffCounts // by backend
	}{{
		// One ULT alone on one stream: each of its k yields requeues it and
		// pops it straight back — k yields, one promotion, no handoff.
		name: "lone-yielder-pops-itself", threads: 1,
		run: func(t *testing.T, rt *Runtime) {
			u := rt.Spawn(0, func(c *Ctx) {
				for i := 0; i < k; i++ {
					c.Yield()
				}
			})
			joinWithTimeout(t, u, "lone yielder")
			u.Release()
		},
		want: map[string]handoffCounts{"abt": {0, k, 1, 0}, "mth": {0, k, 1, 0}, "ws": {0, k, 1, 0}},
	}, {
		// P queues a fresh child C on its own stream and yields once. P's
		// scheduling step pops C, which must not run nested on P's stack, so
		// the stream goes to a shell with C first (1). That shell then pops
		// the suspended P and signals it (2). P's body returns on the
		// goroutine it started on, which goes on driving the stream: the
		// later spawn w runs there with no further handoff.
		name: "yield-pops-fresh-unit-then-body-drives-on", threads: 1,
		run: func(t *testing.T, rt *Runtime) {
			p := rt.Spawn(0, yieldPastChild)
			joinWithTimeout(t, p, "parent")
			p.Release()
			w := rt.Spawn(0, func(*Ctx) {})
			joinWithTimeout(t, w, "follow-up unit")
			w.Release()
		},
		want: map[string]handoffCounts{"abt": {2, 1, 1, 0}, "mth": {2, 1, 1, 0}, "ws": {2, 1, 1, 0}},
	}, {
		// A and B, queued together behind a hold, yield n times each. The
		// first to run (X) pops the other (Y) fresh: a shell handoff. From
		// then on abt (FIFO) and mth (continuations to the cold end, pops
		// from the hot end) alternate strictly, so each of the 2n yields
		// moves the token, and X's return hands it to the still-suspended Y
		// once more: 2n+1. ws requeues continuations through the inbox and
		// drains it LIFO, so a turn is two yields — the first pops the
		// yielder itself, the second signals the peer: X's n yields move the
		// token ceil(n/2) times, Y's floor(n/2), plus the final one: n+1.
		name: "ping-pong", threads: 1,
		run: func(t *testing.T, rt *Runtime) {
			body := func(c *Ctx) {
				for i := 0; i < n; i++ {
					c.Yield()
				}
			}
			release := holdStream(rt, 0)
			a, b := rt.Spawn(0, body), rt.Spawn(0, body)
			release()
			joinWithTimeout(t, a, "A")
			joinWithTimeout(t, b, "B")
			a.Release()
			b.Release()
		},
		want: map[string]handoffCounts{"abt": {2*n + 1, 2 * n, 2, 0}, "mth": {2*n + 1, 2 * n, 2, 0}, "ws": {n + 1, 2 * n, 2, 0}},
	}, {
		// u migrates to the stream it did not start on (a stealer may have
		// started it on either). On abt and ws that pushes u to the other
		// stream, so its scheduling step pops nothing and hands its start
		// stream to a shell (1); whichever stream then pops u signals it (2).
		// u's body returns there and its goroutine drives that stream on: w,
		// spawned to it, runs with no handoff. mth places a continuation on
		// the pushing stream (work-first), so u's yield pops itself; one
		// stream is held meanwhile so no thief takes u between push and pop.
		name: "migrate-pops-nothing", threads: 2,
		run: func(t *testing.T, rt *Runtime) {
			var release func()
			if rt.Backend() == "mth" {
				release = holdStream(rt, 1)
			}
			end := -1
			u := rt.Spawn(0, func(c *Ctx) {
				c.MigrateTo(1 - c.Rank())
				end = c.Rank()
			})
			joinWithTimeout(t, u, "migrating ULT")
			u.Release()
			if release != nil {
				release()
			}
			w := rt.Spawn(end, func(*Ctx) {})
			joinWithTimeout(t, w, "follow-up unit")
			w.Release()
		},
		want: map[string]handoffCounts{"abt": {2, 1, 1, 1}, "mth": {0, 1, 1, 1}, "ws": {2, 1, 1, 1}},
	}} {
		t.Run(sc.name, func(t *testing.T) {
			eachInlineBackend(t, sc.threads, func(t *testing.T, rt *Runtime) {
				rec := trace.Start(sc.threads, 1<<12)
				sc.run(t, rt)
				trace.Stop()
				s := rt.Stats()
				if got, want := (handoffCounts{s.Handoffs, s.Yields, s.Promotions, s.Migrations}), sc.want[rt.Backend()]; got != want {
					t.Errorf("Handoffs/Yields/Promotions/Migrations = %v, want %v", got, want)
				}
				checkSlicesBracketed(t, rec)
			})
		})
	}
}

// checkSlicesBracketed asserts that on every stream unit_start and unit_end
// alternate, each end closing the slice its start opened.
func checkSlicesBracketed(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	events, dropped := rec.Drain()
	open := map[int32]int64{} // stream -> tag+1 of its open slice, 0 if none
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindUnitStart:
			if open[ev.Stream] != 0 {
				t.Fatalf("stream %d: unit %d starts inside unit %d's slice", ev.Stream, ev.Arg, open[ev.Stream]-1)
			}
			open[ev.Stream] = int64(ev.Arg) + 1
		case trace.KindUnitEnd:
			if open[ev.Stream] != int64(ev.Arg)+1 {
				t.Fatalf("stream %d: unit %d ends a slice it did not start (open: %d)", ev.Stream, ev.Arg, open[ev.Stream]-1)
			}
			open[ev.Stream] = 0
		}
	}
	if dropped != 0 {
		t.Fatalf("%d trace events dropped", dropped)
	}
}

// TestTokenTripwire: under -tags gltdebug every token transfer sets and
// clears the stream's held flag, so a second goroutine taking a held stream
// panics at once.
func TestTokenTripwire(t *testing.T) {
	if !debugChecks {
		t.Skip("the token tripwire is compiled in only under -tags gltdebug")
	}
	rt := MustNew(Config{Backend: "abt", NumThreads: 1})
	defer shutdownWithTimeout(t, rt)
	defer holdStream(rt, 0)() // its goroutine holds stream 0's token
	defer func() {
		if recover() == nil {
			t.Error("taking a held stream's token did not panic")
		}
	}()
	rt.threads[0].take()
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
