package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json. The lists below are the
// benchmark's side of that file; the self-test holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd is what a user of the runtimes sees: how long one operation
// takes on each, what set-up costs, and how much memory the run needs.
// Bounds are the issue's starting values widened to twice the same-code
// spread measured on the recording host (README.md), which for the times
// means the contract's cap of 25 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"gomp.op_us_p50", "us", "lower", 0.25},
	{"iomp.op_us_p50", "us", "lower", 0.25},
	{"glto_abt.op_us_p50", "us", "lower", 0.25},
	{"glto_ws.op_us_p50", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

var gltBackends = []string{"abt", "ws"}

// perLayer lists the per-layer metrics in report order.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(prefix string, ms ...metricDef) {
		for _, m := range ms {
			m.name = prefix + m.name
			defs = append(defs, m)
		}
	}
	for _, b := range gltBackends {
		add("glt."+b+".",
			metricDef{"spawn_join_ns", "ns", "lower", 0},
			metricDef{"team_spawn_ns", "ns", "lower", 0},
			metricDef{"detached_batch_ns_per_unit", "ns", "lower", 0},
			metricDef{"yield_ns", "ns", "lower", 0},
			metricDef{"uts_native_op_us", "us", "lower", 0},
			metricDef{"parks_per_op", "count", "lower", 0},
			metricDef{"idle_steals_per_op", "count", "lower", 0},
			metricDef{"yields_per_op", "count", "lower", 0},
			metricDef{"units_reused_share", "ratio", "higher", 0},
		)
	}
	for _, rt := range runtimes {
		add("omp."+rt.name+".",
			metricDef{"region_ns", "ns", "lower", 0},
			metricDef{"barrier_ns", "ns", "lower", 0},
			metricDef{"for_static_ns", "ns", "lower", 0},
			metricDef{"nested_region_ns", "ns", "lower", 0},
			metricDef{"task_spawn_ns", "ns", "lower", 0},
			metricDef{"dep_chain_ns", "ns", "lower", 0},
			metricDef{"dep_fan_ns", "ns", "lower", 0},
			metricDef{"tasks_stolen_per_op", "count", "lower", 0},
			metricDef{"buffer_steals_per_op", "count", "lower", 0},
			metricDef{"task_flushes_per_op", "count", "lower", 0},
			metricDef{"steal_attempts_per_op", "count", "lower", 0},
			metricDef{"steal_hit_ratio", "ratio", "higher", 0},
			metricDef{"chained_share", "ratio", "higher", 0},
			metricDef{"local_share", "ratio", "higher", 0},
			metricDef{"units_created_per_op", "count", "lower", 0},
		)
	}
	add("", metricDef{"body.serial_op_us", "us", "lower", 0})
	for _, rt := range runtimes {
		add("", metricDef{"eff." + rt.name, "ratio", "higher", 0})
	}
	for _, rt := range runtimes {
		add("trace."+rt.name+".",
			metricDef{"assign_share", "ratio", "lower", 0},
			metricDef{"exec_share", "ratio", "higher", 0},
			metricDef{"barrier_share", "ratio", "lower", 0},
			metricDef{"task_body_share", "ratio", "higher", 0},
			metricDef{"task_queue_ns_p50", "ns", "lower", 0},
			metricDef{"dep_release_ns_p50", "ns", "lower", 0},
			metricDef{"steal_tour_len_mean", "count", "lower", 0},
			metricDef{"overhead_ratio", "ratio", "lower", 0},
		)
	}
	add("", metricDef{"trace.dropped_spans", "count", "lower", 0})
	for _, rt := range runtimes {
		add("", metricDef{"tail." + rt.name + ".op_us_p99", "us", "lower", 0})
	}
	add("",
		metricDef{"host.gc_cycles_per_s", "1/s", "lower", 0},
		metricDef{"host.sched_latency_us_p99", "us", "lower", 0},
	)
	// The contract admits no end-to-end metric that can read 0, which the
	// issue's allocation and failure metrics do on a healthy tree; they are
	// reported here, unbounded, instead.
	for _, rt := range runtimes {
		add("", metricDef{rt.name + ".allocs_per_op", "count", "lower", 0})
	}
	add("", metricDef{"ops_failed_ratio", "ratio", "lower", 0})
	return defs
}

// hostProbe reads the Go runtime's own signals over a run: the runtime is
// this system's OS, and on a shared host the main confounder.
type hostProbe struct {
	start    time.Time
	gcCycles uint64
	sched    []uint64
}

const (
	gcCyclesMetric     = "/gc/cycles/total:gc-cycles"
	schedLatencyMetric = "/sched/latencies:seconds"
)

func readHost() (gc uint64, sched *metrics.Float64Histogram) {
	s := []metrics.Sample{{Name: gcCyclesMetric}, {Name: schedLatencyMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64Histogram()
}

func startHostProbe() hostProbe {
	gc, sched := readHost()
	return hostProbe{start: time.Now(), gcCycles: gc, sched: append([]uint64(nil), sched.Counts...)}
}

// stop returns GC cycles per second and the p99 goroutine scheduling latency
// (µs, upper bucket edge) since the probe started.
func (h hostProbe) stop() (gcPerSec, schedP99us float64) {
	gc, sched := readHost()
	gcPerSec = float64(gc-h.gcCycles) / time.Since(h.start).Seconds()
	var total uint64
	delta := make([]uint64, len(sched.Counts))
	for i, c := range sched.Counts {
		delta[i] = c - h.sched[i]
		total += delta[i]
	}
	var cum uint64
	for i, c := range delta {
		cum += c
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			// Buckets[i+1] is bucket i's upper edge; the last one is +Inf.
			edge := sched.Buckets[i+1]
			if i+1 == len(sched.Buckets)-1 {
				edge = sched.Buckets[i]
			}
			return gcPerSec, edge * 1e6
		}
	}
	return gcPerSec, 0
}

// peakRSSMB reads the process's resident-set high-water mark; where /proc
// does not give it, what the Go runtime has obtained from the OS stands in.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
