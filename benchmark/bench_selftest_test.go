package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/omp"
)

func TestPercentileRule(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	// Ten slices with medians 1..10: the slowest three are left out and the
	// remaining seven pooled, whatever order they came in.
	var visits [][]float64
	for _, m := range []float64{9, 2, 7, 10, 1, 4, 3, 8, 6, 5} {
		visits = append(visits, []float64{m - 0.5, m, m + 0.5})
	}
	if got := quietMedian(visits); got != 4 {
		t.Errorf("quietMedian = %v, want 4 (the median of slices 1..7)", got)
	}
	if got := quietMedian(visits[:2]); got != 5.5 {
		t.Errorf("quietMedian of two slices = %v, want their pooled median 5.5", got)
	}
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{99, 50, 50},       // 9 samples beyond p90: too few, fall back to the median
		{100, 90, 90},      // exactly 10 beyond p90
		{999, 90, 900},     // 9 beyond p99: stay at p90
		{1000, 99, 990},    // exactly 10 beyond p99
		{20000, 99, 19800}, // p99 is the ceiling however many samples there are
	} {
		pct, val := tailPercentile(ramp(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		0: {kind: spanOp, start: 0, end: 1000, parent: -1, lanes: 1},
		1: {kind: spanRegion, start: 100, end: 900, parent: 0, lanes: 2},
		2: {kind: spanMember, start: 150, end: 700, parent: 1, lanes: 1},
		3: {kind: spanMember, start: 200, end: 600, parent: 1, lanes: 1},
		4: {kind: spanBarrier, start: 300, end: 400, parent: 2, lanes: 1},
		5: {kind: spanTask, start: 320, end: 380, parent: 4, lanes: 1},
		6: {kind: spanBarrier, start: 700, end: 880, parent: 1, lanes: 1}, // region-end barrier, rank 0
		7: {kind: spanBarrier, start: 600, end: 890, parent: 1, lanes: 1}, // region-end barrier, rank 1
		8: {kind: spanTask, start: 850, end: 950, parent: 7, lanes: 1},    // runs past its parent: clipped to 40
	}
	want := [numSpanKinds]float64{
		spanOp:      1000 - 800,
		spanRegion:  2*800 - (550 + 400 + 180 + 290),
		spanMember:  (550 - 100) + 400,
		spanBarrier: (100 - 60) + 180 + (290 - 40),
		spanTask:    60 + 100,
	}
	if got := selfTimes(spans); got != want {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestAssembleSpans(t *testing.T) {
	outer, inner := &omp.Team{Size: 2}, &omp.Team{Size: 2, Level: 1}
	ev := func(ts int64, k eventKind, team *omp.Team, rank int) event {
		return event{ts: ts, team: team, rank: int16(rank), level: int8(team.Level), kind: k}
	}
	evs := []event{
		ev(10, evRegionBegin, outer, 2),
		ev(20, evMemberStart, outer, 0),
		ev(25, evMemberStart, outer, 1),
		ev(30, evRegionBegin, inner, 2), // nested: encountered by a member of outer
		ev(32, evMemberStart, inner, 0),
		ev(40, evMemberEnd, inner, 0),
		ev(41, evBarrierEnter, inner, 0),
		ev(45, evBarrierExit, inner, 0),
		ev(46, evRegionEnd, inner, 2),
		ev(50, evBarrierEnter, outer, 1),
		ev(52, evTaskStart, outer, 1),
		ev(58, evTaskEnd, outer, 1),
		ev(60, evBarrierExit, outer, 1),
		ev(70, evMemberEnd, outer, 0),
		ev(71, evMemberEnd, outer, 1),
		ev(72, evBarrierEnter, outer, 0),
		ev(80, evBarrierExit, outer, 0),
		ev(81, evTaskEnd, outer, 0), // end with no start on its lane: dropped
		ev(90, evRegionEnd, outer, 2),
	}
	spans := assemble([]span{{kind: spanOp, start: 0, end: 100, parent: -1, lanes: 1}}, evs)
	type row struct {
		kind       spanKind
		start, end int64
		parent     int32
	}
	want := []row{
		{spanOp, 0, 100, -1},
		{spanRegion, 10, 90, 0},
		{spanMember, 20, 70, 1},
		{spanMember, 25, 71, 1},
		{spanRegion, 30, 46, 2}, // attached to the first member in its body
		{spanMember, 32, 40, 4},
		{spanBarrier, 41, 45, 4}, // after MemberEnd: the region's implicit barrier
		{spanBarrier, 50, 60, 3},
		{spanTask, 52, 58, 7},
		{spanBarrier, 72, 80, 1},
	}
	if len(spans) != len(want) {
		t.Fatalf("assembled %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		s := spans[i]
		if (row{s.kind, s.start, s.end, s.parent}) != w {
			t.Errorf("span %d = %+v, want %+v", i, s, w)
		}
	}
	if spans[1].lanes != 2 || spans[2].lanes != 1 {
		t.Errorf("lanes: region %d member %d, want 2 and 1", spans[1].lanes, spans[2].lanes)
	}
}

// benchmarkJSON mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSmokeRun holds BENCHMARK.json and the program
// together: every workload and metric the file names is emitted by a smoke
// run and the other way round, with the same units, bounds and run length,
// inside the contract's limits.
func TestBenchmarkJSONMatchesSmokeRun(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec benchmarkJSON
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, runSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	var gotW, wantW []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		wantW = append(wantW, w.Name)
	}
	for _, w := range workloads {
		gotW = append(gotW, w.name)
	}
	if !slices.Equal(gotW, wantW) {
		t.Errorf("workloads: program has %v, BENCHMARK.json %v", gotW, wantW)
	}

	var wantE2E, wantLayer []metricDef
	setup := false
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		wantE2E = append(wantE2E, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		wantLayer = append(wantLayer, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	for _, m := range append(append([]metricDef(nil), wantE2E...), wantLayer...) {
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}

	stderr = io.Discard
	spanDir = t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := wantE2E
			if trace {
				want = wantLayer
			}
			r, err := runWorkload(w, smokeConfig(1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, r.failed, r.attempted)
			}
			res := r.result()
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for i, m := range want {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s is in BENCHMARK.json but not emitted", w.name, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s: emitted in %s, BENCHMARK.json says %s", m.name, got.Unit, m.unit)
				case i < len(r.defs) && r.defs[i] != m:
					t.Errorf("%s: program defines %+v, BENCHMARK.json %+v", m.name, r.defs[i], m)
				}
				if _, computed := r.values[m.name]; ok && !computed {
					t.Errorf("%s trace=%v: %s is emitted but was never measured", w.name, trace, m.name)
				}
			}
		}
	}
}
