package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/omp"
)

func TestMeasureStatistics(t *testing.T) {
	s := Measure(5, func() { time.Sleep(time.Millisecond) })
	if s.N != 5 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean < 0.0009 || s.Mean > 0.1 {
		t.Errorf("mean %v out of range for a 1ms sleep", s.Mean)
	}
	if s.Std < 0 {
		t.Errorf("negative std %v", s.Std)
	}
}

func TestSampleFormatting(t *testing.T) {
	cases := []struct {
		s    Sample
		want string
	}{
		{Sample{}, "-"},
		{Sample{Mean: 2.5, Std: 0.25, N: 3}, "2.500s±10%"},
		{Sample{Mean: 0.0025, Std: 0, N: 3}, "2.500ms±0%"},
		{Sample{Mean: 2.5e-6, Std: 0, N: 3}, "2.5µs±0%"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.s, got, c.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo", "threads", []string{"A", "B"})
	tbl.Set("1", "A", "10")
	tbl.Set("1", "B", "20")
	tbl.Set("2", "A", "30")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "threads", "A", "B", "10", "30"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultThreadsShape(t *testing.T) {
	ts := DefaultThreads()
	if len(ts) == 0 || ts[0] != 1 {
		t.Fatalf("DefaultThreads = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Errorf("sweep not increasing: %v", ts)
		}
	}
}

// TestAllPaperExperimentsRegistered pins the exact experiment set: every
// figure and table of the paper's evaluation section plus the Fig. 7
// breakdown, and nothing else.
func TestAllPaperExperimentsRegistered(t *testing.T) {
	want := []string{
		"assign",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"table1", "table2", "table3",
	}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
		if _, ok := Lookup(e.ID); !ok {
			t.Errorf("Lookup(%q) misses a listed experiment", e.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("registered experiments = %v, want %v", got, want)
	}
}

func TestVariantNewAppliesConfig(t *testing.T) {
	v := Variant{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"}
	rt, err := v.New(2, func(c *omp.Config) { c.TaskCutoff = 99 })
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	cfg := rt.Config()
	if cfg.NumThreads != 2 || cfg.Backend != "abt" || !cfg.Nested || cfg.TaskCutoff != 99 {
		t.Errorf("config %+v", cfg)
	}
}

// TestExperimentsSmoke runs every registered experiment at the smallest
// possible size: this is the integration test that every figure and table
// generator completes end to end.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke skipped in -short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{Threads: []int{2}, Reps: 1, Scale: 0.05, Out: &buf}
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

// TestTable2PaperNumbers checks the thread-accounting identities of Table II
// at a reduced scale: with n threads and outer=100 iterations,
// GCC creates 100*(n-1) + n threads and GLTO creates 100*(n-1) ULTs on n
// streams.
func TestTable2PaperNumbers(t *testing.T) {
	const n, outer = 6, 20
	// GNU-like: fresh inner teams, no reuse.
	gcc, err := Variant{Label: "GCC", Runtime: "gomp"}.New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	runNested(gcc, n, outer)
	s := gcc.Stats()
	gcc.Shutdown()
	wantCreated := int64(outer*(n-1) + n - 1) // nested + top workers (master excluded)
	if s.ThreadsCreated != wantCreated {
		t.Errorf("GCC created %d threads, want %d", s.ThreadsCreated, wantCreated)
	}
	if s.ThreadsReused != 0 {
		t.Errorf("GCC reused %d threads, want 0", s.ThreadsReused)
	}

	// Intel-like: created + reused must cover all nested slots.
	icc, err := Variant{Label: "ICC", Runtime: "iomp"}.New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	runNested(icc, n, outer)
	s = icc.Stats()
	icc.Shutdown()
	slots := int64(outer * (n - 1))
	nestedCreated := s.ThreadsCreated - int64(n-1) // exclude top pool workers
	if nestedCreated+s.ThreadsReused != slots {
		t.Errorf("Intel created(nested) %d + reused %d != %d slots", nestedCreated, s.ThreadsReused, slots)
	}
	if s.ThreadsReused == 0 {
		t.Error("Intel reused no threads; hot-team cache inactive")
	}
	if nestedCreated >= slots {
		t.Error("Intel created as many threads as GNU; no reuse benefit")
	}

	// GLTO: only ULTs.
	glto, err := Variant{Label: "GLTO(ABT)", Runtime: "glto", Backend: "abt"}.New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	runNested(glto, n, outer)
	s = glto.Stats()
	glto.Shutdown()
	wantULTs := int64(outer*(n-1) + n) // nested ULTs + the top-level team
	if s.ULTsCreated != wantULTs {
		t.Errorf("GLTO created %d ULTs, want %d", s.ULTsCreated, wantULTs)
	}
	if s.ThreadsCreated != 0 {
		t.Errorf("GLTO created %d OS threads, want 0", s.ThreadsCreated)
	}
}
