//go:build !gltdebug

package glt

// debugChecks is off in normal builds: invariant violations increment
// Stats counters (RefUnderflows) instead of panicking, and the token
// tripwire compiles away. Build with `-tags gltdebug` to turn them into
// fail-stop panics.
const debugChecks = false
