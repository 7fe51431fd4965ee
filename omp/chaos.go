package omp

import "repro/internal/chaos"

// This file bridges the omp construct layer to the internal/chaos
// fault-injection harness. Each wrapper is one atomic load when chaos is
// off, so the hooks may sit directly on spawn/barrier/dep-release hot paths
// without disturbing the 0 allocs/op guards.
//
// Site/flavour pairing is deliberate (see the chaos package comment):
// panics fire only at spawn entry — before a descriptor is acquired, inside
// the member-body recover boundary, so nothing pooled leaks — while
// scheduler-internal sites (barrier entry, dependence release, raids) get
// delays only.

// chaosTask fires at task spawn entry, before PrepareTask, so an injected
// panic leaks no descriptor and is contained exactly like a panic in the
// spawning member's body.
func chaosTask(*TC) { chaos.MaybePanic(chaos.SiteSpawn) }

// chaosBarrier fires at barrier entry, stretching the window between a
// member's last task flush and its arrival.
func chaosBarrier() { chaos.MaybeDelay(chaos.SiteBarrier) }

// chaosDepRelease fires when a release walk dispatches a freed successor,
// stretching the window between the predecessor's decrement and the
// successor's enqueue.
func chaosDepRelease() { chaos.MaybeDelay(chaos.SiteDepRelease) }

// chaosRaid fires inside the shared overflow-ring raid tour, stretching the
// claim window the cancellation-vs-raid exactly-once test races against.
func chaosRaid() { chaos.MaybeDelay(chaos.SiteRaid) }
