// Package omp is a runtime-agnostic OpenMP programming model for Go: the
// work-sharing, synchronization and tasking directives of OpenMP expressed
// as library calls over a pluggable runtime engine.
//
// It is the front end of this repository's reproduction of
//
//	Castelló et al., "GLTO: On the Adequacy of Lightweight Thread Approaches
//	for OpenMP Implementations", ICPP 2017.
//
// The paper compares three OpenMP *runtimes* — GNU's libgomp, the Intel
// OpenMP runtime (both pthread-based) and GLTO (lightweight-thread based) —
// under identical application code. This package plays the role of the
// compiler-generated calls: application code is written once against TC (the
// per-thread context inside a parallel region) and executes unchanged over
// any registered runtime, exactly as the paper links the same binary against
// different runtime libraries (paper Fig. 2).
//
// # Mapping from OpenMP pragmas
//
//	#pragma omp parallel                 rt.Parallel(func(tc *omp.TC) { ... })
//	#pragma omp parallel num_threads(n)  rt.ParallelN(n, func(tc *omp.TC) { ... })
//	#pragma omp for                      tc.For(lo, hi, func(i int) { ... })
//	#pragma omp for schedule(dynamic,c)  tc.ForSpec(lo, hi, omp.ForOpts{Sched: omp.Dynamic, Chunk: c}, ...)
//	reduction(+:x)                       x := tc.ForReduceFloat64(...)
//	#pragma omp barrier                  tc.Barrier()
//	#pragma omp single                   tc.Single(func() { ... })
//	#pragma omp master                   tc.Master(func() { ... })
//	#pragma omp critical(name)           tc.Critical("name", func() { ... })
//	#pragma omp sections                 tc.Sections(f1, f2, ...)
//	#pragma omp task                     tc.Task(func(tc *omp.TC) { ... })
//	#pragma omp taskwait                 tc.Taskwait()
//	#pragma omp taskyield                tc.Taskyield()
//	nested #pragma omp parallel          tc.Parallel(n, func(tc *omp.TC) { ... })
//
// # Architecture: user API versus runtime SPI
//
// Two boundaries meet in this package, and since the SPI redesign they are
// distinct:
//
//   - The user-facing API — the Runtime interface, Parallel/ParallelN, and
//     every TC construct — is what applications program against. It is
//     unchanged by the redesign.
//   - The runtime SPI is what a runtime implements: RegionEngine (region
//     placement over pre-built teams) plus EngineOps (tasking, nesting and
//     the two hooks of the wait step for the shared construct code).
//
// The Frontend type sits between them. It owns the Team/TC lifecycle —
// descriptors are pooled and recycled across regions, the way the glt engine
// pools unit descriptors — so every runtime's steady-state region path is
// allocation-free by construction rather than by per-runtime effort.
// Runtimes receive teams that are already built (body bound, member slots
// rearmed) and only decide where the members execute. The Frontend also owns
// the runtime's one counter block (Counters): engines credit the cells only
// they can decide, and Stats/ResetStats are the one snapshot and reset.
//
// # Runtimes
//
// Runtime implementations register themselves with RegisterRuntime, each
// embedding a Frontend next to its engine; the repro/openmp package imports
// the three of this repository (GNU-like "gomp", Intel-like "iomp", and the
// paper's contribution "glto") and provides convenience constructors.
package omp

import (
	"fmt"
	"sort"
	"sync"
)

// Runtime is an instantiated OpenMP runtime as applications see it: a
// persistent set of worker threads (or execution streams) plus the policies
// for work sharing, nested parallelism and tasking. Implementations must be
// safe for use from a single "initial thread" goroutine, matching OpenMP's
// host model. This interface is the stable user-facing API; runtimes
// implement the much narrower RegionEngine SPI and obtain the rest from a
// Frontend.
type Runtime interface {
	// Name identifies the runtime ("gomp", "iomp", "glto", ...).
	Name() string
	// Config returns the configuration the runtime was built with, with
	// defaults resolved.
	Config() Config
	// SetNumThreads changes the default team size for subsequent parallel
	// regions (omp_set_num_threads).
	SetNumThreads(n int)
	// Parallel executes body on a team of Config().NumThreads threads and
	// returns when the region (including its implicit barrier) completes.
	Parallel(body func(*TC))
	// ParallelN is Parallel with an explicit team size, the library
	// equivalent of the num_threads clause.
	ParallelN(n int, body func(*TC))
	// Shutdown releases the runtime's threads. The runtime must not be used
	// afterwards.
	Shutdown()
	// Stats returns a snapshot of the runtime's accounting counters.
	Stats() Stats
	// ResetStats zeroes the accounting counters.
	ResetStats()
}

// RegionEngine is the runtime SPI: the whole contract a runtime must
// implement to execute parallel regions. The front end owns the Team/TC
// lifecycle — RunRegion receives a fully built, pooled team and only decides
// where its members run, each member calling t.Run(rank, ops, ectx).
// Engines additionally implement EngineOps to back the constructs their TCs
// execute.
type RegionEngine interface {
	// Name identifies the engine ("gomp", "iomp", "glto", ...).
	Name() string
	// RunRegion executes a pre-built top-level team: t.Size members, each
	// invoking t.Run exactly once, returning after the region's implicit
	// barrier. The team descriptor is recycled by the caller afterwards.
	RunRegion(t *Team)
	// Shutdown releases the engine's threads.
	Shutdown()
	// EngineStats is the engine's one hook into the front end's counter
	// block, for values only the engine can read. Frontend.Stats calls it
	// with the snapshot to complete (the pthread runtimes set PeakThreads,
	// GLTO folds its substrate's migrations into TasksStolen);
	// Frontend.ResetStats calls it with nil, to zero whatever engine-side
	// source resets with the block (GLTO's glt.Stats).
	EngineStats(s *Stats)
}

// Frontend implements the user-facing Runtime API over a RegionEngine. It
// owns the region-descriptor pool: ParallelN fetches a Team (recycled when
// possible), hands it to the engine, and returns it to the pool when the
// region completes — the front-end half of the allocation-free region path.
// It also owns the runtime's counter block, behind the one Stats snapshot
// and the one ResetStats. Runtime packages embed a Frontend next to their
// engine so one type serves both boundaries.
type Frontend struct {
	eng RegionEngine
	cfg Config
	// teams recycles region descriptors. sync.Pool gives per-P caches, so
	// concurrent nested regions do not contend on a shared free-list lock.
	teams sync.Pool
	// Counters is the counter block behind Stats; see Counters for who
	// credits which cell.
	Counters Counters
}

// NewFrontend builds a front end over eng with the given configuration
// (defaults resolved here, so engines and Config() agree).
func NewFrontend(eng RegionEngine, cfg Config) *Frontend {
	return &Frontend{eng: eng, cfg: cfg.WithDefaults()}
}

// Name reports the engine's name.
func (f *Frontend) Name() string { return f.eng.Name() }

// Config returns the resolved configuration.
func (f *Frontend) Config() Config { return f.cfg }

// Engine exposes the runtime SPI implementation behind this front end, for
// tooling that needs engine-specific facilities.
func (f *Frontend) Engine() RegionEngine { return f.eng }

// SetNumThreads changes the default team size for subsequent parallel
// regions. The team-size ICV lives in the front end; engines see it as
// Team.Size.
func (f *Frontend) SetNumThreads(n int) {
	if n > 0 {
		f.cfg.NumThreads = n
	}
}

// Parallel runs a top-level region with the default team size.
func (f *Frontend) Parallel(body func(*TC)) { f.ParallelN(f.cfg.NumThreads, body) }

// ParallelN runs a top-level region of n threads on the engine, using a
// pooled team descriptor.
func (f *Frontend) ParallelN(n int, body func(*TC)) {
	if n < 1 {
		n = 1
	}
	t := f.getTeam(n, 0, f.cfg, body)
	f.Counters.Regions.Add(1)
	f.eng.RunRegion(t)
	perr := t.TakePanic()
	f.putTeam(t)
	if perr != nil {
		// A task or member body panicked inside the region. The region itself
		// completed (cancelled and fully drained, every rank through the end
		// rendezvous, descriptor recycled above) — now the recorded panic
		// resurfaces on the initial thread, as if the region call itself
		// panicked, wrapped so callers can recover(*TaskPanicError).
		panic(perr)
	}
}

// Shutdown stops the engine.
func (f *Frontend) Shutdown() { f.eng.Shutdown() }

// getTeam fetches a recycled descriptor (or builds one) and prepares it for
// a region. Nested regions reach it through Team.newNested.
func (f *Frontend) getTeam(size, level int, cfg Config, body func(*TC)) *Team {
	t, _ := f.teams.Get().(*Team)
	if t == nil {
		t = &Team{}
	}
	t.owner = f
	t.prepare(size, level, cfg, body)
	return t
}

// putTeam returns a quiescent descriptor to the pool. The region body is
// dropped so pooled descriptors do not retain user closures.
func (f *Frontend) putTeam(t *Team) {
	t.body = nil
	f.teams.Put(t)
}

// Stats is a snapshot of runtime accounting, built by Frontend.Stats from
// the runtime's counter block (see Counters). The nested-parallelism thread
// accounting of the paper's Table II and the task-queueing percentages of
// Table III are read from here.
type Stats struct {
	// Regions counts top-level parallel regions executed.
	Regions int64
	// NestedRegions counts nested (non-serialized) parallel regions.
	NestedRegions int64
	// SerializedRegions counts parallel regions executed serially because
	// nesting was disabled or the active-level limit was reached.
	SerializedRegions int64
	// ThreadsCreated counts OS-backed threads created (pthread runtimes).
	ThreadsCreated int64
	// ThreadsReused counts nested-team slots satisfied by an existing idle
	// thread instead of a new one (Intel-like hot teams).
	ThreadsReused int64
	// PeakThreads is the maximum number of simultaneously alive OS-backed
	// threads observed.
	PeakThreads int64
	// ULTsCreated counts user-level threads created (GLTO).
	ULTsCreated int64
	// TasksQueued counts explicit tasks that were deferred into a queue
	// (including tasks currently sitting in a producer-side buffer, which
	// are queued-in-flight: the deferral decision has been made).
	TasksQueued int64
	// TasksDirect counts explicit tasks executed immediately at the spawn
	// site (the Intel cut-off mechanism, if(0) clauses, or serialization).
	TasksDirect int64
	// TasksStolen counts tasks executed by a thread other than their
	// creator.
	TasksStolen int64
	// TasksStolenFromBuffer counts tasks consumers claimed directly from a
	// producer's overflow ring — work that became visible *between* the
	// producer's scheduling points instead of waiting for its next flush.
	// Zero when batching is disabled or no consumer ever ran dry.
	TasksStolenFromBuffer int64
	// StealAttempts counts queue inspections on other threads' queues,
	// successful or not (a proxy for task-system contention).
	StealAttempts int64
	// TaskFlushes counts producer-side buffer flushes: batched task
	// submission episodes (each covering one or more tasks). Zero when
	// batching is disabled (Config.TaskBuffer < 0).
	TaskFlushes int64
	// TasksWithDeps counts explicit tasks created with at least one depend
	// clause (In/Out/InOut), i.e. tasks that went through dependence
	// registration.
	TasksWithDeps int64
	// DepReleases counts parked tasks handed to the engine by a
	// predecessor's last-ref drop (EngineOps.Enqueue) — dependence-graph
	// edges that actually deferred execution, as opposed to dependences that
	// were already satisfied at creation.
	DepReleases int64
	// TasksChained counts released tasks that ran inline on the releasing
	// thread (release-to-self chaining): the enqueue/dequeue/wakeup round
	// trip was skipped entirely. A subset of DepReleases.
	TasksChained int64
	// LocalReleases counts released tasks handed to the engine hot, with the
	// releasing thread's rank and context: routed to its own
	// deque/stream/release-slot rather than the creator's — except fan-out
	// that TaskNode.Place spreads, which GLTO deals round-robin over its
	// streams. A subset of DepReleases, disjoint from TasksChained.
	LocalReleases int64
	// TasksCancelled counts tasks drained without executing because their
	// taskgroup or region was cancelled (explicitly, by a recovered panic, or
	// by an expired region deadline).
	TasksCancelled int64
	// PanicsRecovered counts task and member bodies whose panic was contained
	// at the runtime's recover boundaries instead of crashing the process.
	PanicsRecovered int64
	// GroupsCancelled counts taskgroup/region cancellations (each cancel
	// counted once, however many tasks it drained).
	GroupsCancelled int64
	// InlineFallbacks counts deferred spawns degraded to undeferred inline
	// execution by the Config.MaxInflightTasks backpressure budget.
	InlineFallbacks int64
}

// QueuedTaskPercent reports the share of explicit tasks that went through a
// queue rather than executing directly — the quantity of the paper's
// Table III.
func (s Stats) QueuedTaskPercent() float64 {
	total := s.TasksQueued + s.TasksDirect
	if total == 0 {
		return 0
	}
	return 100 * float64(s.TasksQueued) / float64(total)
}

var (
	runtimesMu sync.Mutex
	runtimes   = map[string]func(Config) (Runtime, error){}
)

// RegisterRuntime makes a runtime constructor available to NewRuntime under
// the given name. Runtime packages call it from init.
func RegisterRuntime(name string, mk func(Config) (Runtime, error)) {
	runtimesMu.Lock()
	defer runtimesMu.Unlock()
	if _, dup := runtimes[name]; dup {
		panic("omp: duplicate runtime registration: " + name)
	}
	runtimes[name] = mk
}

// NewRuntime instantiates a registered runtime by name.
func NewRuntime(name string, cfg Config) (Runtime, error) {
	runtimesMu.Lock()
	mk, ok := runtimes[name]
	runtimesMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("omp: unknown runtime %q (registered: %v)", name, RegisteredRuntimes())
	}
	return mk(cfg)
}

// RegisteredRuntimes lists registered runtime names in sorted order.
func RegisteredRuntimes() []string {
	runtimesMu.Lock()
	defer runtimesMu.Unlock()
	names := make([]string, 0, len(runtimes))
	for n := range runtimes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
