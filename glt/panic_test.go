package glt

import (
	"testing"
	"time"
)

// TestULTPanicContained pins the inline recover boundary for ULTs: a body
// that panics on its stream's driving goroutine still completes — joiners
// release — and the stream keeps scheduling. (TestPromotedPanicContained
// covers a panic after the ULT got its own goroutine.)
func TestULTPanicContained(t *testing.T) {
	rt := MustNew(Config{NumThreads: 2, Backend: "abt"})
	defer rt.Shutdown()
	u := rt.Spawn(0, func(*Ctx) { panic("ult boom") })
	joinWithTimeout(t, u, "panicking ULT")
	u.Release()
	// The stream that ran the panicking unit must still execute new work.
	v := rt.Spawn(0, func(*Ctx) {})
	joinWithTimeout(t, v, "post-panic ULT")
	v.Release()
	if got := rt.Stats().PanicsRecovered; got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
}

// TestTaskletPanicContained pins the same boundary for tasklets: an
// uncontained panic would kill the stream and wedge Shutdown.
func TestTaskletPanicContained(t *testing.T) {
	rt := MustNew(Config{NumThreads: 2, Backend: "abt"})
	defer rt.Shutdown()
	u := rt.SpawnTasklet(1, func() { panic("tasklet boom") })
	joinWithTimeout(t, u, "panicking tasklet")
	u.Release()
	v := rt.SpawnTasklet(1, func() {})
	joinWithTimeout(t, v, "post-panic tasklet")
	v.Release()
	if got := rt.Stats().PanicsRecovered; got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
}

// TestRefUnderflowCounted pins the refcount-underflow check: an extra unref
// (a double Release) must be detected — counted in release builds (panic
// under -tags gltdebug, which this test is skipped for).
func TestRefUnderflowCounted(t *testing.T) {
	if debugChecks {
		t.Skip("gltdebug build: underflow panics instead of counting")
	}
	rt := MustNew(Config{NumThreads: 1, Backend: "abt"})
	defer rt.Shutdown()
	u := rt.Spawn(0, func(*Ctx) {})
	joinWithTimeout(t, u, "ULT")
	u.Release()
	// The descriptor is recycled now; a second unref on the stale handle is
	// the bug class the counter exists for. Drive it through unref directly
	// (Release would trip its finished assertion first on a recycled node).
	u.unref()
	if got := rt.Stats().RefUnderflows; got < 1 {
		t.Errorf("RefUnderflows = %d, want >= 1", got)
	}
	// Repair the count so the trailing Shutdown path sees no poisoned state.
	u.refs.Store(0)
}

// TestUnitCensusBalances pins the census hooks: spawn-and-release traffic
// must return the live count to its baseline.
func TestUnitCensusBalances(t *testing.T) {
	EnableUnitCensus(true)
	defer EnableUnitCensus(false)
	rt := MustNew(Config{NumThreads: 2, Backend: "abt"})
	base := LiveUnits()
	for i := 0; i < 100; i++ {
		u := rt.Spawn(i%2, func(*Ctx) {})
		joinWithTimeout(t, u, "census ULT")
		u.Release()
	}
	rt.Shutdown()
	if live := LiveUnits(); live != base {
		t.Errorf("census residue: %d live after 100 spawn/release (baseline %d)", live, base)
	}
}

func joinWithTimeout(t *testing.T, u *Unit, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { u.Join(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never completed — stream wedged", what)
	}
}
