package glt

// White-box tests for the engine internals: the token gate and the pool of
// stream-driving shell goroutines.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateSignalThenWait(t *testing.T) {
	g := &gate{}
	g.signal()
	done := make(chan struct{})
	go func() { g.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("wait did not consume a pre-delivered signal")
	}
}

func TestGateWaitThenSignal(t *testing.T) {
	g := &gate{}
	done := make(chan struct{})
	go func() { g.wait(); close(done) }()
	time.Sleep(2 * time.Millisecond) // let the waiter reach the slow path
	g.signal()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("signal did not wake a parked waiter")
	}
}

func TestGatePingPongMany(t *testing.T) {
	// Alternating token protocol over many rounds, the exec/yield pattern.
	a, b := &gate{}, &gate{}
	const rounds = 10000
	var sum atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.signal()
			b.wait()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.wait()
			sum.Add(1)
			b.signal()
		}
	}()
	wg.Wait()
	if sum.Load() != rounds {
		t.Fatalf("completed %d rounds, want %d", sum.Load(), rounds)
	}
}

func TestGateDoubleSignalTolerated(t *testing.T) {
	g := &gate{}
	g.signal()
	g.signal() // protocol violation; must not wedge the gate
	g.wait()
	// A second wait must still be serviceable by a later signal.
	done := make(chan struct{})
	go func() { g.wait(); close(done) }()
	g.signal()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("gate wedged after double signal")
	}
}

// idleShells reports the number of parked shells, waiting (up to a second)
// for at least min: a shell returns to the pool just after handing the token
// to the unit it resumed, so a joiner can get there first.
func idleShells(rt *Runtime, min int) int {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(100 * time.Microsecond) {
		idle := int(rt.shells.n.Load())
		if idle >= min || time.Now().After(deadline) {
			return idle
		}
	}
}

// yieldPastChild is a body whose one yield hands its stream to a shell: the
// fresh unit it queued first is what its scheduling step pops. (A lone
// yielder pops itself and moves no token.)
func yieldPastChild(c *Ctx) {
	c.SpawnDetached(c.Rank(), func(*Ctx) {}, false)
	c.Yield()
}

func TestShellsAreReused(t *testing.T) {
	rt := MustNew(Config{Backend: "abt", NumThreads: 1})
	defer rt.Shutdown()
	// Sequential promotions on one stream must reuse a small set of shells
	// rather than start a goroutine per yielding unit.
	for i := 0; i < 100; i++ {
		rt.Spawn(0, yieldPastChild).Join()
	}
	idle := idleShells(rt, 1)
	if idle == 0 {
		t.Error("no shells parked for reuse after sequential promotions")
	}
	if idle > int(rt.shells.cap) {
		t.Errorf("idle shells %d exceed cap %d", idle, rt.shells.cap)
	}
	if s := rt.Stats(); s.Promotions != 100 {
		t.Errorf("Promotions = %d, want 100", s.Promotions)
	}
}

func TestShellPoolBounded(t *testing.T) {
	rt := MustNew(Config{Backend: "abt", NumThreads: 2})
	defer rt.Shutdown()
	// Burst of concurrently suspended ULTs, then settle: parked shells must
	// respect cap.
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		u := rt.Spawn(i%2, func(c *Ctx) { c.Yield() })
		wg.Add(1)
		go func() { defer wg.Done(); u.Join() }()
	}
	wg.Wait()
	if idle := idleShells(rt, 1); idle > int(rt.shells.cap) {
		t.Errorf("idle shells %d exceed cap %d", idle, rt.shells.cap)
	}
}

func TestShutdownReleasesIdleShells(t *testing.T) {
	rt := MustNew(Config{Backend: "abt", NumThreads: 1})
	rt.Spawn(0, yieldPastChild).Join()
	if idleShells(rt, 1) == 0 {
		t.Fatal("no shell parked after a promotion")
	}
	rt.Shutdown()
	for deadline := time.Now().Add(time.Second); rt.shells.n.Load() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d shells still parked after Shutdown", rt.shells.n.Load())
		}
	}
}

func TestJoinAfterCompletionReturnsImmediately(t *testing.T) {
	rt := MustNew(Config{Backend: "abt", NumThreads: 1})
	defer rt.Shutdown()
	u := rt.Spawn(0, func(*Ctx) {})
	u.Join()
	// Second and third joins on a finished unit must not block.
	done := make(chan struct{})
	go func() { u.Join(); u.Join(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("repeated Join blocked on a finished unit")
	}
}

func TestConcurrentJoiners(t *testing.T) {
	rt := MustNew(Config{Backend: "abt", NumThreads: 2})
	defer rt.Shutdown()
	gate := make(chan struct{})
	u := rt.Spawn(0, func(*Ctx) { <-gate })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); u.Join() }()
	}
	close(gate)
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("concurrent joiners did not all wake")
	}
}
