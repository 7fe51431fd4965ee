package omp

import "testing"

// TestTaskPlacementRule pins TaskNode.Place, the one task-placement rule
// (§IV-D): with no hot releaser a task goes to its creator and is spread iff
// it was created inside single/master; released hot it goes to the releaser
// and is spread only if it is also fan-out. One row per combination of the
// single/master snapshot, the fan-out mark and the hot rank's sign.
func TestTaskPlacementRule(t *testing.T) {
	const creator, releaser = 2, 5
	for _, row := range []struct {
		inSM, fanOut bool
		hot          int
		rank         int
		spread       bool
	}{
		{false, false, -1, creator, false},
		{false, true, -1, creator, false},
		{true, false, -1, creator, true},
		{true, true, -1, creator, true},
		{false, false, releaser, releaser, false},
		{false, true, releaser, releaser, false},
		{true, false, releaser, releaser, false},
		{true, true, releaser, releaser, true},
	} {
		n := newTaskNode(nil, nil, creator)
		n.inSingleMaster, n.fanOut = row.inSM, row.fanOut
		rank, spread := n.Place(row.hot)
		if rank != row.rank || spread != row.spread {
			t.Errorf("inSingleMaster=%v fanOut=%v: Place(%d) = (%d, %v), want (%d, %v)",
				row.inSM, row.fanOut, row.hot, rank, spread, row.rank, row.spread)
		}
	}
}
