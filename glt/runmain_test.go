package glt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// runMainWithTimeout calls rt.RunMain(0, fn) on a fresh goroutine and fails
// the test if the call has not ended within thirty seconds. It reports
// whether RunMain returned (false: the goroutine exited inside it).
func runMainWithTimeout(t *testing.T, rt *Runtime, what string, fn Func) bool {
	t.Helper()
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.RunMain(0, fn)
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never ended — stream 0 wedged", what)
	}
	return returned
}

// TestRunMainEndsContained covers a RunMain body that panics and one that
// ends in runtime.Goexit. The panic is contained and counted, as on a
// stream, and RunMain returns; Goexit cannot be contained, so the caller's
// goroutine dies inside RunMain. Either way the unit completes and stream 0's
// token passes on: the next RunMain, which yields, and a plain spawn on
// stream 0 both complete.
func TestRunMainEndsContained(t *testing.T) {
	for _, end := range []string{"panic", "goexit"} {
		t.Run(end, func(t *testing.T) {
			eachInlineBackend(t, 2, func(t *testing.T, rt *Runtime) {
				returned := runMainWithTimeout(t, rt, "ending main", func(*Ctx) {
					if end == "panic" {
						panic("main boom")
					}
					runtime.Goexit()
				})
				if returned != (end == "panic") {
					t.Errorf("RunMain returned = %v after a %s", returned, end)
				}
				ran := false
				runMainWithTimeout(t, rt, "next main", func(c *Ctx) {
					c.Yield()
					ran = true
				})
				u := rt.Spawn(0, func(*Ctx) {})
				joinWithTimeout(t, u, "post-main ULT")
				u.Release()
				want := int64(0)
				if end == "panic" {
					want = 1
				}
				s := rt.Stats()
				if !ran || s.PanicsRecovered != want || s.ULTsStarted != 3 || s.ULTsCompleted != 3 {
					t.Errorf("next main ran = %v, PanicsRecovered = %d (want %d), ULTs started/completed = %d/%d (want 3/3)",
						ran, s.PanicsRecovered, want, s.ULTsStarted, s.ULTsCompleted)
				}
			})
		})
	}
}

// TestRunMainStealableUntilStarted pins the pinned-main rule for an adopted
// main under mth (paper §IV-G): pinning starts with the main's first run, not
// at its push. Stream 0 runs a unit that never yields until the main has
// run, so only stream 1 can resume the main, by stealing it from stream 0's
// deque; once running, the main's yield is suppressed.
func TestRunMainStealableUntilStarted(t *testing.T) {
	rt := MustNew(Config{Backend: "mth", NumThreads: 2})
	defer shutdownWithTimeout(t, rt)
	var mainRan atomic.Bool
	var hold *Unit
	for attempt := 0; ; attempt++ {
		// The holder itself is stealable before it starts: respawn it until
		// stream 0 is the one running it.
		if attempt == 1000 {
			t.Fatal("stream 1 stole every holder meant for stream 0")
		}
		onZero := make(chan bool)
		hold = rt.Spawn(0, func(c *Ctx) {
			onZero <- c.Rank() == 0
			for c.Rank() == 0 && !mainRan.Load() {
				runtime.Gosched()
			}
		})
		if <-onZero {
			break
		}
		joinWithTimeout(t, hold, "stolen holder")
		hold.Release()
	}
	rank, isMain := -1, false
	runMainWithTimeout(t, rt, "main behind a busy stream 0", func(c *Ctx) {
		rank, isMain = c.Rank(), c.IsMain()
		mainRan.Store(true)
		c.Yield()
	})
	joinWithTimeout(t, hold, "stream 0's unit")
	hold.Release()
	s := rt.Stats()
	if rank != 1 || !isMain || s.PinnedYields != 1 || s.Yields != 0 {
		t.Errorf("main ran on stream %d (want 1), IsMain = %v, PinnedYields/Yields = %d/%d (want 1/0)",
			rank, isMain, s.PinnedYields, s.Yields)
	}
}
