//go:build gltdebug

package glt

// debugChecks enables fail-stop invariant checking: build with
// `-tags gltdebug` and a reference-count underflow on a unit descriptor
// panics at the offending unref instead of being counted (see
// Unit.unrefOn), and every execution-token transfer is checked against the
// stream's held flag, so two goroutines holding one stream panic at once
// (see Thread.take). Release builds keep the underflow check as a counter so
// production runs never crash on an accounting bug, but tests can still
// assert it is zero.
const debugChecks = true
