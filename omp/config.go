package omp

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Schedule selects a loop scheduling kind, as the schedule clause does.
type Schedule int

const (
	// Static divides iterations into contiguous blocks assigned round-robin
	// to threads before the loop starts; with Chunk 0 each thread gets one
	// nearly equal block. No synchronization is needed during the loop.
	Static Schedule = iota
	// Dynamic hands out chunks of Chunk iterations (default 1) from a
	// shared counter as threads become free.
	Dynamic
	// Guided hands out chunks that start large and decay exponentially to
	// Chunk (default 1), trading dispatch overhead against load balance.
	Guided
)

// String returns the lowercase clause spelling of the schedule kind.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return "unknown"
}

// WaitPolicy mirrors OMP_WAIT_POLICY: what idle threads do while waiting for
// work or at barriers. The paper sets it to active for work-sharing codes
// (lower wake-up latency) and passive/default for task parallelism (spinning
// consumers aggravate contention on the producer's queue, §VI-A).
type WaitPolicy int

const (
	// PassiveWait lets waiting threads release the processor.
	PassiveWait WaitPolicy = iota
	// ActiveWait makes waiting threads spin.
	ActiveWait
)

// String returns the OMP_WAIT_POLICY spelling.
func (w WaitPolicy) String() string {
	if w == ActiveWait {
		return "active"
	}
	return "passive"
}

// SpinBudget is the pure-spin budget a waiter burns between wait steps: a
// constant per policy, so every waiting round has a stated bound. Passive
// waiters release the processor quickly (§VI-A: spinning consumers
// aggravate contention for task parallelism); active waiters burn cycles
// for wake-up latency, as the user asked. The team's barriers and region
// end spin it, and so do the pthread pool's workers and its dispatcher.
func (w WaitPolicy) SpinBudget() int {
	if w == ActiveWait {
		return 4096
	}
	return 64
}

// Config holds the internal control variables (ICVs) of a runtime instance,
// the library-level equivalent of the OMP_* environment.
type Config struct {
	// NumThreads is the default team size (OMP_NUM_THREADS).
	// Zero means runtime.NumCPU().
	NumThreads int
	// Nested enables nested parallelism (OMP_NESTED). When false, inner
	// parallel regions are serialized onto the encountering thread. The
	// paper's experiments run with OMP_NESTED=true.
	Nested bool
	// MaxActiveLevels bounds the depth of nested *parallel* execution
	// (OMP_MAX_ACTIVE_LEVELS). Zero means unlimited.
	MaxActiveLevels int
	// WaitPolicy is OMP_WAIT_POLICY.
	WaitPolicy WaitPolicy
	// Schedule and Chunk set the default loop schedule (OMP_SCHEDULE).
	Schedule Schedule
	// Chunk is the default chunk size for the default schedule; zero picks
	// the kind's natural default.
	Chunk int
	// BindProc requests thread-to-core binding (OMP_PROC_BIND). The Go
	// runtime cannot pin goroutines to specific cores; the pthread substrate
	// instead guarantees a dedicated kernel thread per OpenMP thread, which
	// is the property the paper's analysis relies on.
	BindProc bool

	// TaskCutoff is the Intel runtime's bound on queued tasks per thread:
	// beyond it, new tasks execute immediately ("undeferred") instead of
	// being queued. The paper measures 256 as the default and studies 16
	// and 4096 in Fig. 14. Zero means 256; use a negative value for "no
	// cut-off". Only the iomp runtime honours it.
	TaskCutoff int

	// TaskBuffer is the capacity of the per-thread producer-side task
	// buffer: deferred tasks accumulate on their creating thread and are
	// submitted to the engine in one batch at OpenMP task scheduling points
	// (barriers, taskwait, taskyield, taskgroup end) or when the buffer
	// fills — one engine synchronization episode per batch instead of one
	// locked push per task. Zero means DefaultTaskBuffer; a negative value
	// disables batching, restoring the seed's task-at-a-time dispatch.
	// Undeferred tasks (final, if(0), cut-off overflow) never enter the
	// buffer, and the Intel cut-off counts buffered tasks as queue length,
	// so Fig. 14's deferral decisions are unchanged (OMP_TASK_BUFFER).
	TaskBuffer int

	// Backend selects the GLT backend for the glto runtime: "abt", "qth",
	// "mth" or the lock-free work-stealing "ws" (GLT_BACKEND).
	Backend string
	// SharedQueues is GLT_SHARED_QUEUES (glto runtime only).
	SharedQueues bool

	// DepChain bounds release-to-self chaining: when a finishing task's
	// last-ref drop releases a ready successor, the releasing thread runs it
	// inline — skipping enqueue/dequeue/wakeup — up to this many links deep
	// before falling back to EngineOps.Enqueue (which keeps the tail of
	// a long chain raidable and bounds stack growth). Zero means
	// DefaultDepChain; a negative value disables chaining, restoring the
	// every-release-is-a-queueing-event behaviour.
	DepChain int

	// MaxInflightTasks is the backpressure budget: when a region's
	// outstanding explicit tasks (Team.Tasks — queued, buffered, parked and
	// running alike) exceed it, new deferred spawns degrade gracefully to
	// undeferred inline execution, bounding queue and descriptor-pool growth
	// under saturation. Zero disables the budget; counted per region.
	MaxInflightTasks int

	// RegionDeadline arms a cooperative deadline on every top-level region:
	// once exceeded, the region cancels — queued tasks drain without
	// executing and the region completes through its normal rendezvous.
	// Zero means no deadline; omp.WithDeadline arms a deadline per call
	// site instead.
	RegionDeadline time.Duration
}

// DefaultTaskCutoff is the Intel runtime's default task queue bound.
const DefaultTaskCutoff = 256

// DefaultTaskBuffer is the default producer-side task buffer capacity. Small
// enough that consumers parked at a barrier see work within one burst
// (Fig. 14's producer creates thousands of tasks), large enough to amortize
// the engine's per-batch synchronization.
const DefaultTaskBuffer = 64

// DefaultDepChain is the default release-to-self chain depth: deep enough
// that a dependence chain's links mostly run back to back on the cache that
// just produced their inputs, shallow enough that the recursion stays within
// a few stack frames and a long 1-wide chain periodically re-surfaces
// through EngineOps.Enqueue where idle threads can claim it.
const DefaultDepChain = 8

// WithDefaults resolves zero fields to their defaults.
func (c Config) WithDefaults() Config {
	if c.NumThreads <= 0 {
		c.NumThreads = runtime.NumCPU()
	}
	if c.TaskCutoff == 0 {
		c.TaskCutoff = DefaultTaskCutoff
	}
	if c.Backend == "" {
		c.Backend = "abt"
	}
	return c
}

// EffectiveTaskBuffer returns the producer-side task buffer capacity, or 0
// when batched task submission is disabled (negative TaskBuffer).
func (c Config) EffectiveTaskBuffer() int {
	if c.TaskBuffer < 0 {
		return 0
	}
	if c.TaskBuffer == 0 {
		return DefaultTaskBuffer
	}
	return c.TaskBuffer
}

// EffectiveDepChain returns the release-to-self chain depth bound, or 0 when
// chaining is disabled (negative DepChain).
func (c Config) EffectiveDepChain() int {
	if c.DepChain < 0 {
		return 0
	}
	if c.DepChain == 0 {
		return DefaultDepChain
	}
	return c.DepChain
}

// EffectiveCutoff returns the task cut-off bound, with negative meaning "no
// bound" translated to a huge value.
func (c Config) EffectiveCutoff() int {
	if c.TaskCutoff < 0 {
		return int(^uint(0) >> 1)
	}
	if c.TaskCutoff == 0 {
		return DefaultTaskCutoff
	}
	return c.TaskCutoff
}

// FromEnv fills unset fields from the OMP_* (and GLT_*/KMP_*) environment
// variables and returns the result. As the OpenMP specification requires,
// values are case-insensitive and may carry surrounding whitespace.
func (c Config) FromEnv() Config {
	if c.NumThreads == 0 {
		if v, err := strconv.Atoi(strings.TrimSpace(os.Getenv("OMP_NUM_THREADS"))); err == nil && v > 0 {
			c.NumThreads = v
		}
	}
	if !c.Nested && envBool("OMP_NESTED") {
		c.Nested = true
	}
	if c.MaxActiveLevels == 0 {
		if v, err := strconv.Atoi(strings.TrimSpace(os.Getenv("OMP_MAX_ACTIVE_LEVELS"))); err == nil && v > 0 {
			c.MaxActiveLevels = v
		}
	}
	if strings.EqualFold(strings.TrimSpace(os.Getenv("OMP_WAIT_POLICY")), "active") {
		c.WaitPolicy = ActiveWait
	}
	if s := os.Getenv("OMP_SCHEDULE"); s != "" {
		kind, chunk := parseSchedule(s)
		c.Schedule = kind
		if c.Chunk == 0 {
			c.Chunk = chunk
		}
	}
	if !c.BindProc && envBool("OMP_PROC_BIND") {
		c.BindProc = true
	}
	if c.TaskCutoff == 0 {
		if v, err := strconv.Atoi(strings.TrimSpace(os.Getenv("KMP_TASK_CUTOFF"))); err == nil && v != 0 {
			c.TaskCutoff = v
		}
	}
	if c.Backend == "" {
		c.Backend = strings.ToLower(strings.TrimSpace(os.Getenv("GLT_BACKEND")))
	}
	if !c.SharedQueues && envBool("GLT_SHARED_QUEUES") {
		c.SharedQueues = true
	}
	if c.TaskBuffer == 0 {
		if v, err := strconv.Atoi(strings.TrimSpace(os.Getenv("OMP_TASK_BUFFER"))); err == nil && v != 0 {
			c.TaskBuffer = v
		}
	}
	return c
}

func envBool(name string) bool {
	switch strings.ToLower(strings.TrimSpace(os.Getenv(name))) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// parseSchedule parses an OMP_SCHEDULE value like "dynamic,4".
func parseSchedule(s string) (Schedule, int) {
	kind := Static
	chunk := 0
	parts := strings.SplitN(s, ",", 2)
	switch strings.TrimSpace(strings.ToLower(parts[0])) {
	case "dynamic":
		kind = Dynamic
	case "guided":
		kind = Guided
	}
	if len(parts) == 2 {
		if v, err := strconv.Atoi(strings.TrimSpace(parts[1])); err == nil && v > 0 {
			chunk = v
		}
	}
	return kind, chunk
}
