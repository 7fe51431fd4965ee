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
)

// raidTeam builds a quiescent team of the given size with engineless TCs:
// BufferTask, the ring directories and ExecTask never touch EngineOps, so a
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
			tc.BufferTask(node, limit)
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
			ExecTask(raider, node)
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

// TestRingDirectorySpill drives one rank past its directory capacity: more
// simultaneously-published rings than ringDirSlots must spill to the
// registry's fallback list and still be claimable, and a region reset must
// retire directory and spill entries alike (the rings' listed flags clear,
// so the next region re-enlists from scratch).
func TestRingDirectorySpill(t *testing.T) {
	const producers = ringDirSlots + 4
	team, _ := raidTeam(2)
	tcs := make([]*TC, producers)
	for i := range tcs {
		// All producers sit on rank 0, so every ring lands in (or spills
		// from) the same directory.
		tcs[i] = NewTC(team, 0, nil, nil, nil)
	}
	var ran atomic.Int32
	for _, tc := range tcs {
		node := PrepareTask(tc, func(*TC) { ran.Add(1) })
		tc.BufferTask(node, 8)
	}
	if got := team.BufferedTaskCount(); got != producers {
		t.Fatalf("BufferedTaskCount = %d, want %d (spilled rings must be visible)", got, producers)
	}
	consumer := NewTC(team, 1, nil, nil, nil)
	for i := 0; i < producers; i++ {
		node, _ := consumer.raid()
		if node == nil {
			t.Fatalf("claimed %d of %d rings' tasks (spill entries unreachable?)", i, producers)
		}
		ExecTask(consumer, node)
	}
	if node, _ := consumer.raid(); node != nil {
		t.Fatal("claim after drain returned a task")
	}
	if got := ran.Load(); got != producers {
		t.Fatalf("%d of %d tasks ran", got, producers)
	}
	// Recycle the descriptor: every ring (slotted and spilled) must retire.
	team.prepare(2, 0, Config{}, func(*TC) {})
	for _, tc := range tcs {
		if tc.ring.listed.Load() {
			t.Fatal("ring still listed after region reset")
		}
	}
	if got := team.BufferedTaskCount(); got != 0 {
		t.Fatalf("BufferedTaskCount = %d after reset, want 0", got)
	}
}

// TestStealBufferedTaskStaleTeamSafe models the GLTO idle-drain shape the
// epoch stamp exists for: a raider keeps raiding a Team pointer while the
// descriptor is recycled into new regions (prepare racing stealBuffered).
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
			if node := team.StealBufferedTaskFrom(1); node != nil {
				// Claimed across a recycle boundary: execute it on a fresh
				// consumer TC, as the drain hook respawn would.
				ExecTask(NewTC(team, 1, nil, nil, nil), node)
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
			tc.BufferTask(node, burst*2)
		}
		// Drain what the raider did not take, as a scheduling point would.
		for {
			node, _ := tc.raid()
			if node == nil {
				break
			}
			ExecTask(tc, node)
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
