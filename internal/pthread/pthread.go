// Package pthread is the POSIX-threads substrate used by the pthread-based
// OpenMP runtimes in this reproduction (the GNU-like runtime in
// internal/gomp and the Intel-like runtime in internal/iomp).
//
// A Thread created here is not an emulation with tuned delays: Create starts
// a goroutine that immediately calls runtime.LockOSThread, so for its whole
// lifetime the thread occupies a dedicated kernel thread. Creation therefore
// pays real OS-thread start-up cost, context switches between Threads are
// real kernel context switches, and creating more Threads than cores
// produces genuine oversubscription — which is precisely the mechanism the
// GLTO paper blames for the nested-parallelism collapse of the pthread-based
// OpenMP runtimes (Figs. 8 and 9, Table II).
//
// The package also keeps the global creation counters, which the experiment
// harness reads to regenerate Table II. How a pool thread waits for work is
// not decided here: internal/ptpool spins the omp.WaitPolicy's budget.
package pthread

import (
	"runtime"
	"sync/atomic"
)

// Counters aggregates global thread accounting. The GLTO paper's Table II is
// the number of threads each OpenMP runtime creates/reuses in the nested
// benchmark; these counters are its data source.
var counters struct {
	created atomic.Int64
	alive   atomic.Int64
	peak    atomic.Int64
}

// Created reports the total number of Threads created since the last
// ResetCounters.
func Created() int64 { return counters.created.Load() }

// Alive reports the number of Threads currently running.
func Alive() int64 { return counters.alive.Load() }

// Peak reports the maximum number of simultaneously alive Threads observed
// since the last ResetCounters.
func Peak() int64 { return counters.peak.Load() }

// ResetCounters zeroes the creation counters. The alive gauge is preserved
// (threads do not stop existing because accounting restarted), but the peak
// is reset to the current alive value.
func ResetCounters() {
	counters.created.Store(0)
	counters.peak.Store(counters.alive.Load())
}

// Thread is an OS-thread-backed thread of execution, the analogue of a
// pthread_t. It runs one function and terminates; use Join to wait for it.
type Thread struct {
	done chan struct{}
}

// Create starts fn on a new Thread, as pthread_create does. The underlying
// goroutine locks itself to an OS thread before running fn, so the kernel
// sees one runnable thread per live Thread.
func Create(fn func()) *Thread {
	t := &Thread{done: make(chan struct{})}
	counters.created.Add(1)
	updatePeak(counters.alive.Add(1))
	go func() {
		// Locking before fn and never unlocking means the kernel thread is
		// destroyed when the goroutine exits — matching the create/destroy
		// cost profile of a real pthread.
		runtime.LockOSThread()
		defer func() {
			counters.alive.Add(-1)
			close(t.done)
		}()
		fn()
	}()
	return t
}

func updatePeak(alive int64) {
	for {
		p := counters.peak.Load()
		if alive <= p || counters.peak.CompareAndSwap(p, alive) {
			return
		}
	}
}

// Join blocks until the thread's function has returned, as pthread_join.
func (t *Thread) Join() { <-t.done }
