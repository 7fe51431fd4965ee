// Package trace is the flight-recorder tracing layer of the runtime: a
// process-wide set of per-stream fixed-capacity rings of compact binary
// event records (monotonic-nanosecond timestamp, stream, kind, arg), written
// by the execution streams and drained by a collector.
//
// The design goals mirror the paper's Fig. 7 methodology — decompose where
// time goes *inside* the runtime — without perturbing what is being
// measured:
//
//   - Disabled hooks cost one atomic load. The recorder is installed through
//     a process-global atomic pointer (Start/Stop); every Emit call loads it
//     and returns when nil, so instrumented hot paths (the glt thread loop,
//     the OpenMP construct code) stay allocation-free and branch-predictable
//     when tracing is off.
//   - Enabled hooks are allocation-free too. Rings are fixed-capacity arrays
//     of fixed-size slots allocated once at Start; an emit is a reservation
//     fetch-add plus four word stores. The 0 allocs/op region and task spawn
//     guards hold with tracing on.
//   - Overflow keeps the newest events (flight-recorder semantics): when a
//     ring wraps, the oldest records are overwritten and counted, and the
//     drop count is deterministic for a given event sequence — Drain reports
//     reserved-minus-capacity exactly.
//
// Each ring is owner-written in steady state — stream i's scheduler loop is
// the single producer of ring i, and the collector is the single consumer —
// but the slot protocol (a reservation counter plus per-slot sequence
// stamps, all fields atomic) stays safe if an event is ever emitted from a
// foreign context (nested pthread teams reusing a rank, events emitted
// before a stream identity exists), and lets the collector drain
// concurrently with writers without locks: a torn slot fails its sequence
// re-check and is skipped, never misread.
package trace

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Kind identifies one event type. The glt kinds are emitted by the execution
// streams and the ws backend; the omp kinds by the OpenMP construct layer
// (through omp.FlightTracer).
type Kind uint8

const (
	KindNone Kind = iota

	// glt layer: scheduler-loop events, stream = execution-stream rank.

	// KindUnitStart/KindUnitEnd bracket one execution slice of a work unit
	// (a tasklet run, or a ULT dispatch up to its next yield). Arg is the
	// unit's tag (the OpenMP team rank for GLTO team members).
	KindUnitStart
	KindUnitEnd
	// KindPark/KindUnpark bracket an idle stream's sleep.
	KindPark
	KindUnpark
	// KindStealAttempt/KindStealHit record an idle stream entering the
	// backend's steal path and coming back with work.
	KindStealAttempt
	KindStealHit
	// KindInboxDrain records the ws backend moving the foreign-push inbox
	// backlog into the owner's deque; Arg is the number of units moved.
	KindInboxDrain
	// KindRaid records a successful ws steal-tour raid by an idle stream
	// (deque top or inbox front of a victim), Arg the victim's stream rank.
	KindRaid

	// omp layer: construct events, stream = team rank where one exists.

	// KindRegionBegin/KindRegionEnd mark a parallel region forming (before
	// dispatch) and its last member leaving the implicit barrier. Arg is the
	// team size.
	KindRegionBegin
	KindRegionEnd
	// KindMemberStart/KindMemberEnd bracket one member's execution of the
	// region body — everything before MemberStart is the runtime's work
	// assignment step (paper Fig. 7), everything inside is execution.
	KindMemberStart
	KindMemberEnd
	// KindTaskCreate/KindTaskStart/KindTaskEnd are the explicit-task
	// lifecycle; create→start is the task's queue residency.
	KindTaskCreate
	KindTaskStart
	KindTaskEnd
	// KindTaskCancel marks a task drained without executing because its
	// taskgroup or region was cancelled — it replaces the start/end pair in
	// that task's lifecycle.
	KindTaskCancel
	// KindDepRelease records a dependence-parked task being handed to the
	// engine by its final predecessor's completion.
	KindDepRelease
	// KindBarrierEnter/KindBarrierExit bracket one thread's wait at a team
	// barrier.
	KindBarrierEnter
	KindBarrierExit
	// KindStealTour records a completed tour over the team's buffered-task
	// ring directories; Arg packs the visited count with tourFoundBit when
	// the tour claimed a task.
	KindStealTour

	numKinds
)

// TourFoundBit is set in a KindStealTour event's Arg when the tour found a
// task; the low bits carry the number of queues visited.
const TourFoundBit = uint64(1) << 63

// DepPathShift positions the dispatch-path code (omp.DepPath: fallback,
// local, chained) in a KindDepRelease event's Arg; the low 32 bits carry the
// task descriptor's generation.
const DepPathShift = 32

var kindNames = [numKinds]string{
	KindNone:         "none",
	KindUnitStart:    "unit_start",
	KindUnitEnd:      "unit_end",
	KindPark:         "park",
	KindUnpark:       "unpark",
	KindStealAttempt: "steal_attempt",
	KindStealHit:     "steal_hit",
	KindInboxDrain:   "inbox_drain",
	KindRaid:         "raid",
	KindRegionBegin:  "region_begin",
	KindRegionEnd:    "region_end",
	KindMemberStart:  "member_start",
	KindMemberEnd:    "member_end",
	KindTaskCreate:   "task_create",
	KindTaskStart:    "task_start",
	KindTaskEnd:      "task_end",
	KindTaskCancel:   "task_cancel",
	KindDepRelease:   "dep_release",
	KindBarrierEnter: "barrier_enter",
	KindBarrierExit:  "barrier_exit",
	KindStealTour:    "steal_tour",
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one drained trace record.
type Event struct {
	// TS is the event time in monotonic nanoseconds since the process trace
	// epoch (see Since).
	TS int64
	// Stream is the ring the event was recorded on: the execution-stream
	// rank for glt events, the team rank for omp events.
	Stream int32
	// Kind is the event type.
	Kind Kind
	// Arg is the kind-specific payload.
	Arg uint64
}

// epoch is the process trace epoch: every timestamp is monotonic nanoseconds
// since it, so events from every stream and the histogram observations share
// one clock.
var epoch = time.Now()

// Since returns the current monotonic-nanosecond trace timestamp. It is the
// clock of every Event.TS and of the duration observations omp.FlightTracer
// feeds into Metrics.
func Since() int64 { return int64(time.Since(epoch)) }

// slot is one ring entry. All fields are atomics so the collector may drain
// concurrently with a writer: seq is 0 while a write is in flight and
// index+1 once published, so a reader that observes the same valid seq
// before and after copying the payload knows the copy is whole.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	kind atomic.Uint64
	arg  atomic.Uint64
}

// ring is one stream's fixed-capacity event buffer. pos is the reservation
// counter: it only grows, writers claim slot pos&mask, and overflow
// overwrites the oldest record (pos-capacity), which is exactly the drop
// count Drain reports.
type ring struct {
	pos   atomic.Uint64
	slots []slot
	mask  uint64
	// pad keeps neighbouring rings' reservation counters off one cache
	// line, so two streams emitting concurrently do not false-share.
	_ [48]byte
}

func (g *ring) put(ts int64, k Kind, arg uint64) {
	i := g.pos.Add(1) - 1
	s := &g.slots[i&g.mask]
	s.seq.Store(0) // invalidate while the payload is replaced
	s.ts.Store(ts)
	s.kind.Store(uint64(k))
	s.arg.Store(arg)
	s.seq.Store(i + 1) // publish
}

// drain appends the ring's currently valid window to into and returns it
// together with the number of overwritten (dropped) records. Non-destructive
// and safe to run concurrently with writers: slots being overwritten under
// the read fail the sequence re-check and are skipped.
func (g *ring) drain(stream int32, into []Event) ([]Event, uint64) {
	end := g.pos.Load()
	capacity := g.mask + 1
	begin, dropped := uint64(0), uint64(0)
	if end > capacity {
		begin = end - capacity
		dropped = begin
	}
	for i := begin; i < end; i++ {
		s := &g.slots[i&g.mask]
		if s.seq.Load() != i+1 {
			continue // in-flight or already overwritten by a newer event
		}
		ev := Event{TS: s.ts.Load(), Stream: stream, Kind: Kind(s.kind.Load()), Arg: s.arg.Load()}
		if s.seq.Load() != i+1 {
			continue // torn by a concurrent overwrite: discard the copy
		}
		into = append(into, ev)
	}
	return into, dropped
}

// Recorder is one flight-recorder instance: a fixed set of per-stream rings.
// Build one with NewRecorder (or install a global one with Start); emits are
// concurrent-safe, and Drain may run at any time.
type Recorder struct {
	rings []ring
}

// NewRecorder builds a recorder with one ring per stream, each holding
// perStream events (rounded up to a power of two, minimum 64).
func NewRecorder(streams, perStream int) *Recorder {
	if streams < 1 {
		streams = 1
	}
	capacity := 64
	for capacity < perStream {
		capacity *= 2
	}
	r := &Recorder{rings: make([]ring, streams)}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, capacity)
		r.rings[i].mask = uint64(capacity - 1)
	}
	return r
}

// Streams reports the number of per-stream rings.
func (r *Recorder) Streams() int { return len(r.rings) }

// Emit records one event on stream's ring, stamped with the current trace
// time. Out-of-range streams fold into the ring set (the rings tolerate
// cross-writers), so an event is never silently lost for lack of a lane.
func (r *Recorder) Emit(stream int, k Kind, arg uint64) {
	r.EmitAt(Since(), stream, k, arg)
}

// EmitAt is Emit with a caller-provided timestamp (taken from Since), for
// hooks that already read the clock for a histogram observation.
func (r *Recorder) EmitAt(ts int64, stream int, k Kind, arg uint64) {
	if stream < 0 {
		stream = 0
	}
	if stream >= len(r.rings) {
		stream %= len(r.rings)
	}
	r.rings[stream].put(ts, k, arg)
}

// Drain snapshots every ring and returns the surviving events sorted by
// timestamp, plus the total number of overwritten (dropped) records. It is
// non-destructive — a flight recorder keeps flying — and safe to call while
// streams are still emitting.
func (r *Recorder) Drain() ([]Event, uint64) {
	var events []Event
	var dropped uint64
	for i := range r.rings {
		var d uint64
		events, d = r.rings[i].drain(int32(i), events)
		dropped += d
	}
	sortEvents(events)
	return events, dropped
}

// Dropped reports the total number of records overwritten so far across all
// rings (without draining).
func (r *Recorder) Dropped() uint64 {
	var dropped uint64
	for i := range r.rings {
		if pos, capacity := r.rings[i].pos.Load(), r.rings[i].mask+1; pos > capacity {
			dropped += pos - capacity
		}
	}
	return dropped
}

// sortEvents orders by timestamp, stably, so events with equal stamps keep
// ring order. Drain is a cold collector path; the sort's allocations are
// irrelevant there.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
}

// active is the installed process-wide recorder; nil means tracing is off.
// Emit and Enabled load it once — the entire disabled-path cost.
var active atomic.Pointer[Recorder]

// Start builds a recorder (streams rings of perStream events each) and
// installs it as the process-wide flight recorder, returning it for later
// Drain. Any previously installed recorder is replaced.
func Start(streams, perStream int) *Recorder {
	r := NewRecorder(streams, perStream)
	active.Store(r)
	return r
}

// Stop uninstalls the process-wide recorder and returns it (nil if tracing
// was off). The recorder stays drainable after Stop.
func Stop() *Recorder { return active.Swap(nil) }

// Active returns the installed recorder, or nil.
func Active() *Recorder { return active.Load() }

// Enabled reports whether a recorder is installed: one atomic load, the
// guard instrumented hot paths use.
func Enabled() bool { return active.Load() != nil }

// Emit records one event on the installed recorder; a no-op (one atomic
// load) when tracing is off.
func Emit(stream int, k Kind, arg uint64) {
	if r := active.Load(); r != nil {
		r.Emit(stream, k, arg)
	}
}

// bucketOf maps a non-negative value to its log2 histogram bucket (0..63).
func bucketOf(v int64) int {
	if v < 1 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}
