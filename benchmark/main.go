// Command benchmark is the repository's benchmark: six paper-shaped workloads
// on the four OpenMP runtimes, median operation time end to end, probes,
// counters and spans per layer. README.md in this directory says why each
// workload and metric is there; BENCHMARK.json at the repository root is the
// contract the numbers are gated on.
//
//	go run ./benchmark -seed 1            every workload, every metric
//	go run ./benchmark -sets 2            the end-to-end runs twice, compared
//	go run ./benchmark -workload cg_tasks_fine -seed 1 -seconds 14 -trace 0
//
// With -workload the last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runSeconds is the measuring time of one run; BENCHMARK.json's run_seconds
// repeats it.
const runSeconds = 14

// stderr takes the diagnostics; the self-test silences it.
var stderr io.Writer = os.Stderr

// result is the JSON object a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result() result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		res.Metrics[d.name] = metricValue{r.values[d.name], d.unit}
	}
	return res
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and end with the JSON result line")
		seed    = flag.Uint64("seed", 1, "seed of the input generators")
		seconds = flag.Float64("seconds", runSeconds, "measuring time of one run")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures end to end untraced, 1 measures the layers")
		sets    = flag.Int("sets", 1, "without -workload: repeat the end-to-end runs this many times and compare them")
		smoke   = flag.Bool("smoke", false, "shrink every run to a fraction of a second (checks plumbing, not speed)")
	)
	flag.Parse()
	scrubEnv()
	// The four runtimes size themselves by threads, not by GOMAXPROCS; pin it
	// to the hardware so a container quota or an inherited setting cannot
	// change what is measured.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case flag.NArg() > 0 || *seconds <= 0 || *sets < 1 || *trace < 0 || *trace > 1:
		flag.Usage()
		os.Exit(2)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, *smoke)
	default:
		err = runAll(*seed, *seconds, *sets, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// scrubEnv unsets the runtimes' environment knobs and says so. The benchmark
// builds every runtime from a literal omp.Config, so none of them is read;
// unsetting keeps it that way for anything a later change might consult.
func scrubEnv() {
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		for _, p := range []string{"GLT_", "GLTO_", "OMP_", "KMP_"} {
			if strings.HasPrefix(k, p) {
				fmt.Fprintf(stderr, "benchmark: ignoring and unsetting %s\n", k)
				os.Unsetenv(k)
			}
		}
	}
}

func runOne(name string, seed uint64, seconds float64, trace, smoke bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := newConfig(seed, seconds, trace)
	if smoke {
		cfg = smokeConfig(seed, trace)
	}
	r, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// runAll runs every workload the way the driver does — one process per run —
// so each has its own peak RSS and a cold start. One set prints every metric
// of both groups; more sets repeat the end-to-end runs and compare each set
// with the first.
func runAll(seed uint64, seconds float64, sets int, smoke bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traces := []int{0, 1}
	if sets > 1 {
		traces = []int{0}
	}
	results := make([]map[string]result, sets)
	correct := true
	for s := range results {
		results[s] = map[string]result{}
		for _, w := range workloads {
			for _, tr := range traces {
				args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(tr)}
				if smoke {
					args = append(args, "-smoke")
				}
				res, err := runChild(exe, args)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				correct = correct && res.Correct
				if tr == 0 {
					results[s][w.name] = res
				}
			}
		}
	}
	agree := true
	for s := 1; s < sets; s++ {
		fmt.Printf("# set %d against set 1: relative difference beside its bound\n", s+1)
		for _, w := range workloads {
			for _, d := range endToEnd {
				a, b := results[0][w.name].Metrics[d.name].Value, results[s][w.name].Metrics[d.name].Value
				diff := (b - a) / a
				verdict := "ok"
				if !(math.Abs(diff) <= d.bound) {
					verdict, agree = "DISAGREE", false
				}
				fmt.Printf("%-16s %-22s %12.4f %12.4f %s %+7.2f%% bound %4.0f%% %s\n",
					w.name, d.name, a, b, d.unit, 100*diff, 100*d.bound, verdict)
			}
		}
	}
	switch {
	case !correct:
		return fmt.Errorf("operations failed their oracle check")
	case !agree:
		return fmt.Errorf("sets disagree beyond the bounds")
	}
	return nil
}

// runChild runs this binary on one workload, passes its report through and
// returns the result on its last line.
func runChild(exe string, args []string) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last))
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
