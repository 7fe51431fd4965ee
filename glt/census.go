package glt

import "sync/atomic"

// Unit-descriptor census: a leak detector for the pooled Unit lifecycle,
// mirroring the omp layer's task-slot census. When enabled, every descriptor
// handed out by the free list (recycled or freshly allocated) increments the
// live count and every recycle decrements it, so a soak test can snapshot
// the count around a workload and assert it returns to its baseline — any
// residue is a descriptor whose last reference was never dropped. Off by
// default; the gate is one atomic load on the spawn path.
//
// The counter is process-wide (descriptors never migrate between Runtime
// instances, but tests routinely build several runtimes) and tracks relative
// deltas only: enable, snapshot, run, drain, compare.

var (
	unitCensusOn atomic.Bool
	liveUnits    atomic.Int64
)

// EnableUnitCensus turns the unit-descriptor census on or off. Enable it
// while the fabric is quiescent: descriptors checked out before enabling
// were never counted, so their recycle would be spurious residue — which is
// why the census tracks deltas against a caller-taken baseline rather than
// absolute zero.
func EnableUnitCensus(on bool) { unitCensusOn.Store(on) }

// LiveUnits reports the current live unit-descriptor count (meaningful as a
// delta against a baseline taken after EnableUnitCensus(true)).
func LiveUnits() int64 { return liveUnits.Load() }

// censusGet records n descriptors handed out by the free list.
func censusGet(n int64) {
	if unitCensusOn.Load() {
		liveUnits.Add(n)
	}
}

// censusPut records n descriptors recycled (or dropped).
func censusPut(n int64) {
	if unitCensusOn.Load() {
		liveUnits.Add(-n)
	}
}
