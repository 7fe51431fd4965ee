// Package glttest holds helpers shared by the glt engine's and backends'
// tests.
package glttest

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Spread makes "this burst was served by more than one stream" an event
// rather than a race against the clock: every body of the burst calls Ran,
// which holds its stream until a second stream has been seen (or a generous
// deadline passes). Trivial bodies run inline faster than a parked peer
// goroutine gets a CPU, so a fixed amount of work per body proves nothing
// either way. A steal test Marks the burst's home stream first, so that one
// body running anywhere else is the second stream.
type Spread struct {
	seen     [64]atomic.Bool
	streams  atomic.Int64
	deadline time.Time
}

// NewSpread returns a Spread whose holds give up ten seconds from now.
func NewSpread() *Spread {
	return &Spread{deadline: time.Now().Add(10 * time.Second)}
}

// Mark records that the stream with the given rank served part of the burst.
func (s *Spread) Mark(rank int) {
	if !s.seen[rank].Swap(true) {
		s.streams.Add(1)
	}
}

// Ran is Mark followed by the hold.
func (s *Spread) Ran(rank int) {
	s.Mark(rank)
	for s.streams.Load() < 2 && time.Now().Before(s.deadline) {
		runtime.Gosched()
	}
}

// Streams reports how many distinct streams have been seen.
func (s *Spread) Streams() int { return int(s.streams.Load()) }
