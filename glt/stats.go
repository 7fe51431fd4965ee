package glt

import "sync/atomic"

// Stats is a snapshot of scheduling activity aggregated over all execution
// streams. The OpenMP-level experiments (Table II of the paper, the
// work-assignment analysis of Fig. 7) are derived from these counters.
type Stats struct {
	// Threads is the number of execution streams (GLT_threads).
	Threads int
	// ULTsStarted counts ULTs whose body began executing.
	ULTsStarted int64
	// ULTsCompleted counts ULTs that ran to completion.
	ULTsCompleted int64
	// Promotions counts ULTs that left the inline path at their first yield
	// (see Ctx.Yield); ULTsStarted − Promotions ran to completion inline.
	Promotions int64
	// TaskletsRun counts tasklets executed.
	TaskletsRun int64
	// Yields counts cooperative yields of a still-unfinished ULT. A faster
	// polling waiter yields more often, so this is not a cost; Handoffs is.
	Yields int64
	// Handoffs counts execution-token moves between goroutines: a suspended
	// ULT handed its stream directly (its sched gate), or a stream handed to
	// a pooled shell. A yield that pops its own unit moves nothing.
	Handoffs int64
	// PinnedYields counts yields suppressed because the unit was the pinned
	// main execution (paper §IV-G, MassiveThreads).
	PinnedYields int64
	// Migrations counts units requeued onto a different stream at yield.
	Migrations int64
	// Parks counts times a stream went to sleep for lack of work.
	Parks int64
	// IdleSteals counts idle-path steal rescues: episodes in which a stream
	// that would otherwise have parked took work from a peer through the
	// policy's Stealer capability (see glt.Stealer). Always zero for
	// backends without the capability.
	IdleSteals int64
	// BufferSteals counts idle-path drain-hook rescues: episodes in which a
	// stream with no poppable or stealable unit recovered work through the
	// engine-registered drain hook (Runtime.SetIdleDrain) — for GLTO, a raid
	// of some producer's overflow ring of buffered OpenMP tasks. Always zero
	// when no hook is registered.
	BufferSteals int64
	// LocalSpawns counts rank-targeted hot spawns (SpawnDetachedOn): units
	// created through a stream's own descriptor cache and aimed back at a
	// chosen stream — for GLTO, dependence-released tasks placed on their
	// releaser's stream instead of their creator's.
	LocalSpawns int64
	// BatchPushes counts batch dispatch episodes: each SpawnTeam/SpawnBatch
	// that reached Policy.PushBatch contributes one, however many units it
	// carried. Zero under Config.PerUnitDispatch.
	BatchPushes int64
	// UnitsReused counts unit descriptors recycled from the runtime's free
	// list instead of freshly allocated. Zero under Config.PerUnitDispatch.
	UnitsReused int64
	// PanicsRecovered counts unit bodies (ULT or tasklet) whose panic was
	// contained by the worker's recover boundary: the unit completes (so
	// joiners release and the descriptor recycles) and the stream keeps
	// scheduling.
	PanicsRecovered int64
	// RefUnderflows counts unit reference counts driven below zero — always
	// an accounting bug (double Release, unref after recycle). Builds with
	// the gltdebug tag panic at the offending unref instead of counting.
	RefUnderflows int64
}

func (s *Stats) add(o Stats) {
	s.ULTsStarted += o.ULTsStarted
	s.ULTsCompleted += o.ULTsCompleted
	s.Promotions += o.Promotions
	s.TaskletsRun += o.TaskletsRun
	s.Yields += o.Yields
	s.Handoffs += o.Handoffs
	s.PinnedYields += o.PinnedYields
	s.Migrations += o.Migrations
	s.Parks += o.Parks
	s.IdleSteals += o.IdleSteals
	s.BufferSteals += o.BufferSteals
	s.LocalSpawns += o.LocalSpawns
}

// threadStats are the per-stream counters. Only the holder of the stream's
// token increments them, but snapshots may be taken concurrently, hence the
// atomics. The padding keeps neighbouring streams' counters out of each
// other's cache lines.
type threadStats struct {
	ultsStarted   atomic.Int64
	ultsCompleted atomic.Int64
	promotions    atomic.Int64
	taskletsRun   atomic.Int64
	yields        atomic.Int64
	handoffs      atomic.Int64
	pinnedYields  atomic.Int64
	migrations    atomic.Int64
	parks         atomic.Int64
	idleSteals    atomic.Int64
	bufferSteals  atomic.Int64
	localSpawns   atomic.Int64
	_             [64]byte
}

func (t *threadStats) snapshot() Stats {
	return Stats{
		ULTsStarted:   t.ultsStarted.Load(),
		ULTsCompleted: t.ultsCompleted.Load(),
		Promotions:    t.promotions.Load(),
		TaskletsRun:   t.taskletsRun.Load(),
		Yields:        t.yields.Load(),
		Handoffs:      t.handoffs.Load(),
		PinnedYields:  t.pinnedYields.Load(),
		Migrations:    t.migrations.Load(),
		Parks:         t.parks.Load(),
		IdleSteals:    t.idleSteals.Load(),
		BufferSteals:  t.bufferSteals.Load(),
		LocalSpawns:   t.localSpawns.Load(),
	}
}

func (t *threadStats) reset() {
	t.ultsStarted.Store(0)
	t.ultsCompleted.Store(0)
	t.promotions.Store(0)
	t.taskletsRun.Store(0)
	t.yields.Store(0)
	t.handoffs.Store(0)
	t.pinnedYields.Store(0)
	t.migrations.Store(0)
	t.parks.Store(0)
	t.idleSteals.Store(0)
	t.bufferSteals.Store(0)
	t.localSpawns.Store(0)
}

// counter is a shared monotonically increasing counter.
type counter struct{ v atomic.Uint64 }

func (c *counter) inc() uint64  { return c.v.Add(1) }
func (c *counter) load() uint64 { return c.v.Load() }
func (c *counter) reset()       { c.v.Store(0) }

// flag is a one-way boolean.
type flag struct{ v atomic.Bool }

// set flips the flag and reports whether this call was the one that did it.
func (f *flag) set() bool   { return f.v.CompareAndSwap(false, true) }
func (f *flag) isSet() bool { return f.v.Load() }
