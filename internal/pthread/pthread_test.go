package pthread

import (
	"sync/atomic"
	"testing"
)

func TestCreateJoinRuns(t *testing.T) {
	var ran atomic.Bool
	th := Create(func() { ran.Store(true) })
	th.Join()
	if !ran.Load() {
		t.Error("thread body did not run")
	}
}

func TestCountersTrackLifecycle(t *testing.T) {
	ResetCounters()
	base := Alive()
	const n = 8
	ths := make([]*Thread, n)
	gate := make(chan struct{})
	for i := range ths {
		ths[i] = Create(func() { <-gate })
	}
	if got := Created(); got != n {
		t.Errorf("Created = %d, want %d", got, n)
	}
	if got := Alive(); got != base+n {
		t.Errorf("Alive = %d, want %d", got, base+n)
	}
	if got := Peak(); got < base+n {
		t.Errorf("Peak = %d, want >= %d", got, base+n)
	}
	close(gate)
	for _, th := range ths {
		th.Join()
	}
	if got := Alive(); got != base {
		t.Errorf("Alive after join = %d, want %d", got, base)
	}
}
