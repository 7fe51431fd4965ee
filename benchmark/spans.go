package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/glt/trace"
	"repro/omp"
)

// The traced run. spanTracer is the benchmark's own omp.Tracer: it forwards
// every hook to an omp.FlightTracer (whose trace.Metrics histograms give the
// queue-residency, dep-release and steal-tour numbers) and records the hooks
// that open or close a span as events in preallocated buffers. Spans are
// assembled after the slice, off the clock:
//
//	op      around the benchmark's call into the workload
//	region  RegionBegin..RegionEnd, child of the op (or, nested, of a member)
//	member  MemberStart..MemberEnd, child of its team's region
//	barrier BarrierEnter..BarrierExit, child of the member, or of the region
//	        for the implicit barrier that follows MemberEnd
//	task    TaskStart..TaskEnd, child of whatever its thread was inside
//
// A span's self time is its duration minus what its children cover.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanRegion
	spanMember
	spanBarrier
	spanTask
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "region", "member", "barrier", "task"}

// span is one assembled interval. lanes is how many threads the span's
// duration stands for: a region's team size, 1 for everything else. parent
// indexes the slice the span lives in, -1 for none.
type span struct {
	kind       spanKind
	start, end int64 // ns on the tracer's clock
	parent     int32
	op         int32
	lanes      int32
}

// selfTimes sums, per span kind, the thread time spans spend outside their
// children: lanes x duration minus each child's duration, the child clipped
// to its parent's interval. Children of one parent sit on distinct lanes or
// follow one another, so no interval is subtracted twice.
func selfTimes(spans []span) (self [numSpanKinds]float64) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if d := min(s.end, p.end) - max(s.start, p.start); d > 0 {
			covered[s.parent] += d
		}
	}
	for i, s := range spans {
		if d := int64(s.lanes)*(s.end-s.start) - covered[i]; d > 0 {
			self[s.kind] += float64(d)
		}
	}
	return self
}

type eventKind uint8

const (
	evRegionBegin eventKind = iota
	evRegionEnd
	evMemberStart
	evMemberEnd
	evBarrierEnter
	evBarrierExit
	evTaskStart
	evTaskEnd
)

// event is one hook firing. rank is the team rank the hook ran for; region
// events carry the team size there instead.
type event struct {
	ts    int64
	team  *omp.Team
	op    int32
	rank  int16
	level int8
	kind  eventKind
}

// evShard is one preallocated event buffer. Writers reserve a slot with one
// atomic add, so any thread may write any shard; sharding by rank only keeps
// them off each other's cache lines.
type evShard struct {
	n  atomic.Int64
	ev []event
	_  [64]byte
}

const (
	spanShards = 8
	// shardEvents bounds one traced slice: 8 x 128 Ki events of 32 bytes.
	shardEvents = 1 << 17
	// spanOpsWritten operations per runtime have their spans written out.
	spanOpsWritten = 16
)

// spanDir is where the spans of a traced run are written when it ends,
// relative to the repository root the benchmark is run from.
var spanDir = filepath.Join("benchmark", "out")

type spanTracer struct {
	fl      *omp.FlightTracer // forwards into the visited runtime's histograms
	shards  [spanShards]evShard
	dropped atomic.Int64
	curOp   atomic.Int32
	epoch   time.Time
	ops     []span // one per traced operation of the current visit
	rt      string
	tot     *tracedTotals  // the visited runtime's totals
	written map[string]int // per runtime: operations whose spans are in the file
	file    *os.File       // span file, nil when it could not be created
	out     *bufio.Writer
}

func newSpanTracer(workload string) *spanTracer {
	t := &spanTracer{epoch: time.Now(), written: map[string]int{}}
	for i := range t.shards {
		t.shards[i].ev = make([]event, shardEvents)
	}
	err := os.MkdirAll(spanDir, 0o755)
	if err == nil {
		t.file, err = os.Create(filepath.Join(spanDir, workload+".spans.jsonl"))
	}
	if err != nil {
		fmt.Fprintf(stderr, "spans not written: %v\n", err)
		return t
	}
	t.out = bufio.NewWriter(t.file)
	return t
}

// close flushes and closes the span file.
func (t *spanTracer) close() error {
	if t.file == nil {
		return nil
	}
	if err := t.out.Flush(); err != nil {
		t.file.Close()
		return err
	}
	return t.file.Close()
}

func (t *spanTracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *spanTracer) record(k eventKind, team *omp.Team, rank int) {
	s := &t.shards[rank%spanShards]
	i := s.n.Add(1) - 1
	if i >= int64(len(s.ev)) {
		t.dropped.Add(1)
		return
	}
	s.ev[i] = event{ts: t.now(), team: team, op: t.curOp.Load(), rank: int16(rank), level: int8(team.Level), kind: k}
}

// full reports that some buffer is half used: the traced slice ends there,
// so a slice normally drops nothing.
func (t *spanTracer) full() bool {
	for i := range t.shards {
		if t.shards[i].n.Load() >= shardEvents/2 {
			return true
		}
	}
	return false
}

// begin readies the tracer for one traced visit of runtime rt, whose
// latency histograms live in tot.
func (t *spanTracer) begin(rt string, tot *tracedTotals) {
	t.rt, t.tot = rt, tot
	t.fl = omp.NewFlightTracer(nil, &tot.met)
	t.dropped.Store(0)
	t.ops = t.ops[:0]
	for i := range t.shards {
		t.shards[i].n.Store(0)
	}
}

func (t *spanTracer) opBegin() {
	t.curOp.Store(int32(len(t.ops)))
	t.ops = append(t.ops, span{kind: spanOp, start: t.now(), parent: -1, op: int32(len(t.ops)), lanes: 1})
}

func (t *spanTracer) opEnd() { t.ops[len(t.ops)-1].end = t.now() }

// omp.Tracer. Region events carry the team size in place of a rank.

func (t *spanTracer) RegionBegin(team *omp.Team) {
	t.fl.RegionBegin(team)
	t.record(evRegionBegin, team, team.Size)
}
func (t *spanTracer) RegionEnd(team *omp.Team) {
	t.record(evRegionEnd, team, team.Size)
	t.fl.RegionEnd(team)
}
func (t *spanTracer) MemberStart(tc *omp.TC) {
	t.fl.MemberStart(tc)
	t.record(evMemberStart, tc.Team(), tc.ThreadNum())
}
func (t *spanTracer) MemberEnd(tc *omp.TC) {
	t.record(evMemberEnd, tc.Team(), tc.ThreadNum())
	t.fl.MemberEnd(tc)
}
func (t *spanTracer) BarrierEnter(tc *omp.TC) {
	t.fl.BarrierEnter(tc)
	t.record(evBarrierEnter, tc.Team(), tc.ThreadNum())
}
func (t *spanTracer) BarrierExit(tc *omp.TC) {
	t.record(evBarrierExit, tc.Team(), tc.ThreadNum())
	t.fl.BarrierExit(tc)
}
func (t *spanTracer) TaskStart(team *omp.Team, n *omp.TaskNode) {
	t.fl.TaskStart(team, n)
	t.record(evTaskStart, team, int(n.StartedBy.Load()))
}
func (t *spanTracer) TaskEnd(team *omp.Team, n *omp.TaskNode) {
	t.record(evTaskEnd, team, int(n.StartedBy.Load()))
	t.fl.TaskEnd(team, n)
}
func (t *spanTracer) TaskCreate(team *omp.Team, n *omp.TaskNode) { t.fl.TaskCreate(team, n) }
func (t *spanTracer) TaskCancel(team *omp.Team, n *omp.TaskNode) { t.fl.TaskCancel(team, n) }
func (t *spanTracer) DepRelease(team *omp.Team, n *omp.TaskNode, p omp.DepPath) {
	t.fl.DepRelease(team, n, p)
}
func (t *spanTracer) StealTour(team *omp.Team, visited int, found bool) {
	t.fl.StealTour(team, visited, found)
}

// tracedTotals accumulates one runtime's traced visits.
type tracedTotals struct {
	samples  []float64 // per-op wall time under the tracer, µs
	threadNs float64   // Σ op wall x threads: the denominator of the shares
	self     [numSpanKinds]float64
	met      trace.Metrics // filled by the FlightTracer the span tracer forwards to
	dropped  int64
}

// end assembles the visit's spans, adds them to tot and writes the first few
// operations' spans out.
func (t *spanTracer) end(threads int) {
	tot := t.tot
	spans := assemble(t.ops, t.events())
	for k, ns := range selfTimes(spans) {
		tot.self[k] += ns
	}
	for _, o := range t.ops {
		tot.threadNs += float64(o.end-o.start) * float64(threads)
	}
	tot.dropped += t.dropped.Load()
	if t.file == nil {
		return
	}
	done := t.written[t.rt]
	keep := spanOpsWritten - done
	for i, s := range spans {
		if int(s.op) < keep {
			fmt.Fprintf(t.out, `{"rt":%q,"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				t.rt, done+int(s.op), i, s.parent, spanNames[s.kind], s.start, s.end)
		}
	}
	t.written[t.rt] = done + min(len(t.ops), keep)
}

func (t *spanTracer) events() []event {
	var evs []event
	for i := range t.shards {
		s := &t.shards[i]
		evs = append(evs, s.ev[:min(s.n.Load(), int64(len(s.ev)))]...)
	}
	slices.SortStableFunc(evs, func(a, b event) int { return cmp.Compare(a.ts, b.ts) })
	return evs
}

// spanOf maps a span-opening or span-closing event to its span kind.
var spanOf = [...]spanKind{
	evMemberStart: spanMember, evMemberEnd: spanMember,
	evBarrierEnter: spanBarrier, evBarrierExit: spanBarrier,
	evTaskStart: spanTask, evTaskEnd: spanTask,
}

// laneKey names one lane: the events one team member's thread emits.
type laneKey struct {
	team *omp.Team
	rank int16
}

// assemble turns time-ordered events into spans and links each to its
// parent. Events of one lane — one (team, rank) — come from one thread at a
// time, so they nest and a stack per lane pairs them; an end event with no
// matching start on its lane is dropped. A span whose end event was lost to
// a full buffer stays empty and adds nothing.
func assemble(ops []span, evs []event) []span {
	spans := append([]span(nil), ops...)

	type levelKey struct{ op, level int32 }
	open := map[laneKey][]int32{}    // per lane: stack of open span indices
	region := map[*omp.Team]int32{}  // per team: its open region span
	inBody := map[levelKey][]int32{} // open member spans by operation and nesting level
	nestedUntil := map[int32]int64{} // member span -> end of its latest nested region

	push := func(k spanKind, e event, parent, lanes int32) int32 {
		spans = append(spans, span{kind: k, start: e.ts, end: e.ts, parent: parent, op: e.op, lanes: lanes})
		return int32(len(spans) - 1)
	}
	for _, e := range evs {
		lane := laneKey{e.team, e.rank}
		level := levelKey{e.op, int32(e.level)}
		switch e.kind {
		case evRegionBegin:
			parent := e.op // a top-level region belongs to its operation
			if e.level > 0 {
				// The tracer API does not say which member encountered a
				// nested region: take a member one level up, of the same
				// operation, that is in its body and not inside another
				// nested region.
				parent = -1
				for _, m := range inBody[levelKey{e.op, int32(e.level) - 1}] {
					if nestedUntil[m] <= e.ts {
						parent = m
						nestedUntil[m] = 1<<63 - 1
						break
					}
				}
			}
			region[e.team] = push(spanRegion, e, parent, int32(e.rank))
		case evRegionEnd:
			if r, ok := region[e.team]; ok {
				spans[r].end = e.ts
				if p := spans[r].parent; p >= 0 && spans[p].kind == spanMember {
					nestedUntil[p] = e.ts
				}
				delete(region, e.team)
			}
		case evMemberStart, evBarrierEnter, evTaskStart:
			parent := int32(-1)
			if st := open[lane]; len(st) > 0 {
				parent = st[len(st)-1]
			} else if r, ok := region[e.team]; ok {
				parent = r
			}
			i := push(spanOf[e.kind], e, parent, 1)
			open[lane] = append(open[lane], i)
			if e.kind == evMemberStart {
				inBody[level] = append(inBody[level], i)
			}
		case evMemberEnd, evBarrierExit, evTaskEnd:
			if i, ok := closeLatest(open, lane, spans, spanOf[e.kind]); ok {
				spans[i].end = e.ts
				if e.kind == evMemberEnd {
					inBody[level] = slices.DeleteFunc(inBody[level], func(m int32) bool { return m == i })
				}
			}
		}
	}
	return spans
}

// closeLatest pops the innermost open span of the given kind off the lane's
// stack.
func closeLatest(open map[laneKey][]int32, lane laneKey, spans []span, kind spanKind) (int32, bool) {
	st := open[lane]
	for j := len(st) - 1; j >= 0; j-- {
		if i := st[j]; spans[i].kind == kind {
			open[lane] = append(st[:j], st[j+1:]...)
			return i, true
		}
	}
	return 0, false
}
