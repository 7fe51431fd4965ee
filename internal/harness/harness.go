// Package harness runs the paper's experiments: parameter sweeps over
// runtime variants and thread counts, with repetition, averaging and
// paper-style table output. Every figure and table of the evaluation section
// (Figs. 4-14, Tables I-III) has a generator here, plus "assign", the
// flight-recorder breakdown of Fig. 7; nothing else is registered. Each is
// indexed by experiment ID and invoked by cmd/glto-bench (`go run
// ./cmd/glto-bench -list`). Measurements the paper does not report live as
// tests and benchmarks beside the code they cover, and end-to-end numbers
// come from `go run ./benchmark`.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/omp"
	"repro/openmp"
)

// Variant is one runtime configuration under comparison, labelled as in the
// paper's figures.
type Variant struct {
	// Label is the paper's series name: GCC, ICC, GLTO(ABT), ...
	Label string
	// Runtime is the registered runtime name; Backend the GLT backend for
	// glto.
	Runtime string
	Backend string
}

// PaperVariants are the paper's five series of Figs. 4, 6, 8 and 9 plus
// GLTO over the lock-free work-stealing backend, so every experiment
// reports all four GLT backends side by side.
var PaperVariants = []Variant{
	{"GCC", "gomp", ""},
	{"ICC", "iomp", ""},
	{"GLTO(ABT)", "glto", "abt"},
	{"GLTO(QTH)", "glto", "qth"},
	{"GLTO(MTH)", "glto", "mth"},
	{"GLTO(WS)", "glto", "ws"},
}

// TaskVariants are the series of the CG task experiments (Figs. 10-13),
// which omit GCC as the paper does (§VI-E).
var TaskVariants = []Variant{
	{"ICC", "iomp", ""},
	{"GLTO(ABT)", "glto", "abt"},
	{"GLTO(QTH)", "glto", "qth"},
	{"GLTO(MTH)", "glto", "mth"},
	{"GLTO(WS)", "glto", "ws"},
}

// New instantiates the variant's runtime with the given team size and extra
// configuration applied.
func (v Variant) New(threads int, mutate func(*omp.Config)) (omp.Runtime, error) {
	cfg := omp.Config{
		NumThreads: threads,
		Backend:    v.Backend,
		Nested:     true, // OMP_NESTED=true, as in §VI-A
		BindProc:   true, // OMP_PROC_BIND=true
	}
	// The harness pins the paper's ICVs, but the dispatch mode stays
	// env-switchable so cmd/glto-bench can reproduce the deliberate
	// per-unit work-assignment cost of Fig. 7 (GLTO_PER_UNIT_DISPATCH=1)
	// against the default batched engine.
	cfg.PerUnitDispatch = omp.PerUnitDispatchFromEnv()
	if mutate != nil {
		mutate(&cfg)
	}
	return openmp.New(v.Runtime, cfg)
}

// Config controls a harness run.
type Config struct {
	// Threads is the sweep of team sizes. Empty picks DefaultThreads().
	Threads []int
	// Reps is the number of timed repetitions per point (the paper uses 50
	// for the applications, 1000 for the microbenchmarks; defaults here are
	// per-experiment and scaled down).
	Reps int
	// Scale in (0,1] shrinks problem sizes for quick runs; 1 is the full
	// scaled-for-laptop size.
	Scale float64
	// Out receives the rendered tables.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if len(c.Threads) == 0 {
		c.Threads = DefaultThreads()
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	return c
}

// DefaultThreads builds the sweep 1,2,4,... up to twice the host cores,
// mirroring the paper's 1..72 sweep on 36 cores (oversubscribed points
// included deliberately).
func DefaultThreads() []int {
	max := 2 * runtime.NumCPU()
	var ts []int
	for t := 1; t <= max; t *= 2 {
		ts = append(ts, t)
	}
	if ts[len(ts)-1] != max {
		ts = append(ts, max)
	}
	return ts
}

// Sample is a repeated measurement.
type Sample struct {
	Mean, Std float64 // seconds
	N         int
}

func (s Sample) String() string {
	switch {
	case s.N == 0:
		return "-"
	case s.Mean >= 1:
		return fmt.Sprintf("%.3fs±%.0f%%", s.Mean, 100*s.Std/s.Mean)
	case s.Mean >= 1e-3:
		return fmt.Sprintf("%.3fms±%.0f%%", s.Mean*1e3, 100*s.Std/s.Mean)
	default:
		return fmt.Sprintf("%.1fµs±%.0f%%", s.Mean*1e6, 100*s.Std/s.Mean)
	}
}

// Measure times fn reps times and returns mean/std of the wall-clock
// seconds.
func Measure(reps int, fn func()) Sample {
	if reps < 1 {
		reps = 1
	}
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start).Seconds()
	}
	var sum float64
	for _, t := range times {
		sum += t
	}
	mean := sum / float64(reps)
	var vs float64
	for _, t := range times {
		vs += (t - mean) * (t - mean)
	}
	std := 0.0
	if reps > 1 {
		std = math.Sqrt(vs / float64(reps-1))
	}
	return Sample{Mean: mean, Std: std, N: reps}
}

// Table renders a threads-by-series result grid in the paper's layout: one
// row per thread count, one column per series.
type Table struct {
	Title   string
	XHeader string
	Series  []string
	rows    []tableRow
}

type tableRow struct {
	x     string
	cells map[string]string
}

// NewTable creates a table with the given series (column) names.
func NewTable(title, xheader string, series []string) *Table {
	return &Table{Title: title, XHeader: xheader, Series: series}
}

// Set records the cell for row x, column series.
func (t *Table) Set(x, series, value string) {
	for i := range t.rows {
		if t.rows[i].x == x {
			t.rows[i].cells[series] = value
			return
		}
	}
	t.rows = append(t.rows, tableRow{x: x, cells: map[string]string{series: value}})
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	fmt.Fprintln(w, strings.Repeat("-", len(t.Title)))
	widths := make([]int, len(t.Series)+1)
	widths[0] = len(t.XHeader)
	for i, s := range t.Series {
		widths[i+1] = len(s)
	}
	for _, r := range t.rows {
		if len(r.x) > widths[0] {
			widths[0] = len(r.x)
		}
		for i, s := range t.Series {
			if c := r.cells[s]; len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	cells := []string{pad(t.XHeader, widths[0])}
	for i, s := range t.Series {
		cells = append(cells, pad(s, widths[i+1]))
	}
	fmt.Fprintln(w, strings.Join(cells, "  "))
	for _, r := range t.rows {
		cells = cells[:0]
		cells = append(cells, pad(r.x, widths[0]))
		for i, s := range t.Series {
			c := r.cells[s]
			if c == "" {
				c = "-"
			}
			cells = append(cells, pad(c, widths[i+1]))
		}
		fmt.Fprintln(w, strings.Join(cells, "  "))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the experiment id cmd/glto-bench -list prints: "fig4" ... "fig14",
	// "table1"-"table3" and "assign".
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment and writes its table(s).
	Run func(cfg Config) error
}

var experiments []Experiment

func register(e Experiment) { experiments = append(experiments, e) }

// Experiments lists all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), experiments...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
