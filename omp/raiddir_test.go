package omp

// White-box tests for the contention-free consumer path: the per-rank ring
// directories behind the wait step's raid (TC.raid) and the lock-free single-
// construct claim table. These are the targeted tests behind the "no mutex
// acquisition on the steady-state raid path" guarantee — they drive the
// exact concurrency shapes the mutex registry used to serialize (and, for
// claimTable, the reset-vs-grow recycle race the mutex version had), so the
// race detector certifies the lock-free rewrites. Run under -race, as CI
// does.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tour"
)

// raidTeam builds a quiescent team of the given size with engineless TCs:
// bufferTask, the ring directories and execTask never touch EngineOps, so a
// nil-ops TC is enough to drive the producer and consumer halves directly.
func raidTeam(size int) (*Team, []*TC) {
	team := NewTeam(size, 0, Config{}, func(*TC) {})
	tcs := make([]*TC, size)
	for i := range tcs {
		tcs[i] = NewTC(team, i, nil, nil, nil)
	}
	return team, tcs
}

// TestRingDirectoryTwoProducersOneRaider is the deterministic directory
// test: two producers on different ranks publish their overflow rings
// concurrently (each ring enlists in its own rank's directory on the first
// push) while a third rank raids through the per-consumer rotor. Every task
// must surface exactly once across all claims, and the raid must find both
// producers' rings — which fails if publishes on one rank can clobber the
// other's directory, or if the rotor tour skips a populated rank.
func TestRingDirectoryTwoProducersOneRaider(t *testing.T) {
	const (
		limit    = 64
		perRank  = 300 // several ring laps per producer
		deadline = 10 * time.Second
	)
	team, tcs := raidTeam(4)
	var seen [2 * perRank]atomic.Int32
	var claimed atomic.Int32

	produce := func(tc *TC, base int) {
		for i := 0; i < perRank; {
			// Only this producer pushes its ring, so the size read is an
			// upper bound and the capacity guard cannot trip.
			if tc.BufferedTasks() >= limit-1 {
				runtime.Gosched()
				continue
			}
			tag := base + i
			node := PrepareTask(tc, func(*TC) { seen[tag].Add(1) })
			tc.bufferTask(node, limit)
			i++
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); produce(tcs[0], 0) }()
	go func() { defer wg.Done(); produce(tcs[1], perRank) }()

	// The raider is rank 2: its rotor starts on its own (ringless) rank, so
	// the tour must walk to the producers' directories.
	raider := tcs[2]
	start := time.Now()
	for claimed.Load() < 2*perRank {
		if node, _ := raider.raid(); node != nil {
			execTask(raider, node)
			claimed.Add(1)
			continue
		}
		if time.Since(start) > deadline {
			t.Fatalf("raider claimed %d of %d buffered tasks", claimed.Load(), 2*perRank)
		}
		runtime.Gosched()
	}
	wg.Wait()
	for tag := range seen {
		if got := seen[tag].Load(); got != 1 {
			t.Fatalf("task %d executed %d times, want exactly once", tag, got)
		}
	}
	if n := team.Tasks.Load(); n != 0 {
		t.Fatalf("team task count = %d after all tasks finished, want 0", n)
	}
	if n := team.BufferedTaskCount(); n != 0 {
		t.Fatalf("BufferedTaskCount = %d after drain, want 0", n)
	}
}

// TestRingDirectorySurplusUnlisted drives one rank past its directory's
// capacity: of more than tour.DirSlots simultaneously buffering producers on
// one rank, the surplus stays unlisted, so a raid finds only the listed
// rings' tasks, and the surplus tasks run exactly once through their
// producers' own flush at a scheduling point. A listed producer's
// scheduling point retires its slot, even though a raider already emptied
// its ring, and the next push of a surplus producer takes the slot it
// freed. A region reset unlists whatever is still listed.
func TestRingDirectorySurplusUnlisted(t *testing.T) {
	const producers = tour.DirSlots + 4
	team, _ := raidTeam(2)
	e := &recycleEngine{}
	tcs := make([]*TC, producers)
	var ran [producers + 1]atomic.Int32
	for i := range tcs {
		// All producers sit on rank 0, so every ring competes for the same
		// directory.
		tcs[i] = NewTC(team, 0, e, nil, nil)
		node := PrepareTask(tcs[i], func(*TC) { ran[i].Add(1) })
		tcs[i].bufferTask(node, 8)
	}
	for i, tc := range tcs {
		if listed := tc.ring.slot >= 0; listed != (i < tour.DirSlots) {
			t.Fatalf("producer %d listed = %v with %d slots per rank", i, listed, tour.DirSlots)
		}
	}
	if got := team.BufferedTaskCount(); got != tour.DirSlots {
		t.Fatalf("BufferedTaskCount = %d, want %d (the listed rings only)", got, tour.DirSlots)
	}
	consumer := NewTC(team, 1, e, nil, nil)
	for i := 0; i < tour.DirSlots; i++ {
		node, _ := consumer.raid()
		if node == nil {
			t.Fatalf("raided %d of %d listed rings' tasks", i, tour.DirSlots)
		}
		execTask(consumer, node)
	}
	if node, _ := consumer.raid(); node != nil {
		t.Fatal("a raid reached an unlisted ring's task")
	}
	for _, tc := range tcs[tour.DirSlots:] {
		tc.flushPending() // the surplus producers' scheduling points
	}
	for e.TryRunTask(consumer) {
	}
	for i := 0; i < producers; i++ {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("producer %d's task ran %d times, want exactly once", i, got)
		}
	}

	// tcs[0]'s ring was emptied by the raid; its scheduling point still
	// retires the slot, and the next surplus push takes it.
	dir := &(*team.rings.dirs.Load())[0]
	tcs[0].flushPending()
	if tcs[0].ring.slot >= 0 || dir.At(0) != nil {
		t.Fatal("a scheduling point left its producer's slot listed")
	}
	late := tcs[tour.DirSlots]
	late.bufferTask(PrepareTask(late, func(*TC) { ran[producers].Add(1) }), 8)
	if late.ring.slot != 0 || dir.At(0) != late.ring {
		t.Fatalf("a surplus push listed at slot %d, want the retired slot 0", late.ring.slot)
	}
	if node, _ := consumer.raid(); node == nil {
		t.Fatal("the newly listed ring's task is not raidable")
	} else {
		execTask(consumer, node)
	}
	if got := ran[producers].Load(); got != 1 {
		t.Fatalf("the newly listed task ran %d times, want exactly once", got)
	}

	team.prepare(2, 0, Config{}, func(*TC) {})
	for i, tc := range tcs {
		if tc.ring.slot >= 0 {
			t.Fatalf("producer %d still listed after a region reset", i)
		}
	}
	dirs := *team.rings.dirs.Load()
	for rank := range dirs {
		if d := &dirs[rank]; d.Len() != 0 {
			t.Fatalf("rank %d's directory holds a mark of %d after a reset", rank, d.Len())
		}
	}
}

// TestRingDirectoryOccupancy pins where rings retire: at their producer's
// scheduling point, not at region reset. In TestTaskDescriptorRecycling's
// shape — every task buffers one child and waits for it — a rank's
// directory holds at most its implicit task's ring and the ring of the task
// it runs, so no directory's high-water mark passes 2 in any region. If
// rings retired only at region reset, every task that ever buffered on a
// rank would keep its slot and fill the directory.
func TestRingDirectoryOccupancy(t *testing.T) {
	const (
		regions = 25
		ranks   = 4
		perRank = 12
	)
	e := &recycleEngine{}
	var ran atomic.Int64
	body := func(tc *TC) {
		for i := 0; i < perRank; i++ {
			tc.Task(func(ttc *TC) {
				ttc.Task(func(*TC) { ran.Add(1) })
				ttc.Taskwait()
				ran.Add(1)
			})
		}
		tc.Taskwait()
	}
	team := NewTeam(ranks, 0, Config{NumThreads: ranks, TaskBuffer: 8}.WithDefaults(), body)
	for r := 0; r < regions; r++ {
		if r > 0 {
			team.prepare(ranks, 0, team.Cfg, body)
		}
		var wg sync.WaitGroup
		for rank := 0; rank < ranks; rank++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				team.Run(rank, e, nil)
			}()
		}
		wg.Wait()
		dirs := *team.rings.dirs.Load()
		for rank := range dirs {
			d := &dirs[rank]
			if d.Len() > 2 {
				t.Fatalf("region %d: rank %d's directory held %d rings at once, want at most 2", r, rank, d.Len())
			}
			for j := 0; j < d.Len(); j++ {
				if d.At(j) != nil {
					t.Fatalf("region %d: rank %d's slot %d still listed after the region", r, rank, j)
				}
			}
		}
	}
	if got, want := ran.Load(), int64(regions*ranks*perRank*2); got != want {
		t.Fatalf("%d of %d tasks ran", got, want)
	}
}

// TestStealBufferedTaskStaleTeamSafe models the shape the epoch stamp
// exists for: a raider keeps raiding a Team pointer while the descriptor is
// recycled into new regions (prepare racing stealBuffered).
// The raid path must stay race-free against prepare's directory resizing
// and ring retirement — every structure it touches is atomic — and any task
// it does claim must execute exactly once. Run under -race; without the
// atomic directory publication this is the race the old activeMu serialized.
func TestStealBufferedTaskStaleTeamSafe(t *testing.T) {
	team, _ := raidTeam(2)
	var stop atomic.Bool
	var raids sync.WaitGroup
	raids.Add(1)
	go func() {
		defer raids.Done()
		for !stop.Load() {
			if node, _, _ := team.stealBuffered(1); node != nil {
				// Claimed across a recycle boundary: execute it on a fresh
				// consumer TC.
				execTask(NewTC(team, 1, nil, nil, nil), node)
			}
		}
	}()
	var ran atomic.Int32
	for round := 0; round < 200; round++ {
		sizes := []int{2, 3, 5}
		team.prepare(sizes[round%len(sizes)], 0, Config{}, func(*TC) {})
		tc := NewTC(team, 0, nil, nil, nil)
		const burst = 16
		for i := 0; i < burst; i++ {
			node := PrepareTask(tc, func(*TC) { ran.Add(1) })
			tc.bufferTask(node, burst*2)
		}
		// Drain what the raider did not take, as a scheduling point would.
		for {
			node, _ := tc.raid()
			if node == nil {
				break
			}
			execTask(tc, node)
		}
		// The region may only end once its tasks finished (the raider's
		// in-flight executions included), as the real end barrier enforces.
		for team.Tasks.Load() > 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	raids.Wait()
	if got := ran.Load(); got != 200*16 {
		t.Fatalf("%d of %d tasks ran exactly once", got, 200*16)
	}
}

// TestClaimTableConcurrentRecycle is the satellite regression test for the
// reset-vs-grow race: the mutex-era reset iterated the slice with no lock
// while claim appended. The lock-free table must survive claimers growing
// the table concurrently with resets (race-freedom, under -race), and in
// quiesced rounds every seq must elect exactly one winner.
func TestClaimTableConcurrentRecycle(t *testing.T) {
	var ct claimTable

	// Quiesced rounds: concurrent claimers, reset only between rounds.
	const seqs, claimers = 64, 4
	for round := 0; round < 20; round++ {
		var winners [seqs]atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < claimers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := int64(1); seq <= seqs; seq++ {
					if ct.claim(seq) {
						winners[seq-1].Add(1)
					}
				}
			}()
		}
		wg.Wait()
		for seq := range winners {
			if got := winners[seq].Load(); got != 1 {
				t.Fatalf("round %d: seq %d elected %d winners, want 1", round, seq+1, got)
			}
		}
		ct.reset()
	}

	// Recycle race: resets interleaved with claims that keep growing the
	// table. No election invariant holds mid-reset; the property is that
	// the race detector stays silent and the table still functions after.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			ct.reset()
			runtime.Gosched()
		}
	}()
	for g := 0; g < claimers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := int64(1); seq < 2000; seq += int64(g + 1) {
				ct.claim(seq)
			}
			stop.Store(true)
		}(g)
	}
	wg.Wait()
	ct.reset()
	if !ct.claim(1) {
		t.Fatal("claim(1) after final reset should win")
	}
	if ct.claim(1) {
		t.Fatal("second claim(1) should lose")
	}
}
