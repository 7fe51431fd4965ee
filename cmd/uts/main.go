// Command uts runs the Unbalanced Tree Search benchmark over a chosen
// OpenMP runtime or native threading substrate.
//
// Usage:
//
//	uts -rt glto -backend abt -threads 8
//	uts -native pthreads -threads 8
//	uts -native ws -tasks -threads 8
//	uts -preset t3 -serial
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/glt"
	_ "repro/glt/backends"
	"repro/internal/uts"
	"repro/omp"
	"repro/openmp"
)

func main() {
	var (
		rtName  = flag.String("rt", "glto", "OpenMP runtime: gomp, iomp, glto")
		backend = flag.String("backend", "abt", "GLT backend for glto: abt, qth, mth, ws")
		threads = flag.Int("threads", 0, "thread count (0 = host cores)")
		preset  = flag.String("preset", "t1xxl", "tree preset: t1xxl, t3, tiny")
		native  = flag.String("native", "", "bypass OpenMP: pthreads, abt, qth, mth, ws")
		tasks   = flag.Bool("tasks", false, "with -native <backend>: task-parallel driver (one detached ULT per node batch; the backend's stealing — ws steal-half, engine idle raids — does the load balancing)")
		serial  = flag.Bool("serial", false, "run the serial reference traversal")
	)
	flag.Parse()

	params, ok := map[string]uts.Params{
		"t1xxl": uts.T1XXLScaled,
		"t3":    uts.T3Scaled,
		"tiny":  uts.Tiny,
	}[*preset]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
		os.Exit(2)
	}
	n := *threads
	if n <= 0 {
		n = omp.NumProcs()
	}

	start := time.Now()
	var result uts.Result
	var how string
	switch {
	case *serial:
		result = params.CountSerial()
		how = "serial"
	case *native == "pthreads":
		result = params.CountPthreads(n)
		how = fmt.Sprintf("native pthreads x%d", n)
	case *native != "":
		g, err := glt.New(glt.Config{Backend: *native, NumThreads: n})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer g.Shutdown()
		if *tasks {
			result = params.CountGLTTasks(g)
			how = fmt.Sprintf("native %s task-parallel x%d", *native, n)
			if sp, ok := g.Policy().(interface{ StealsObserved() uint64 }); ok {
				how += fmt.Sprintf(" (%d units stolen)", sp.StealsObserved())
			}
		} else {
			result = params.CountGLT(g)
			how = fmt.Sprintf("native %s x%d", *native, n)
		}
	default:
		rt, err := openmp.New(*rtName, omp.Config{NumThreads: n, Backend: *backend})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer rt.Shutdown()
		result = params.CountOpenMP(rt, n)
		how = fmt.Sprintf("%s", label(*rtName, *backend))
	}
	elapsed := time.Since(start)

	want := params.CountSerial()
	status := "OK"
	if result.Nodes != want.Nodes || result.Leaves != want.Leaves {
		status = fmt.Sprintf("MISMATCH (serial says %d nodes)", want.Nodes)
	}
	fmt.Printf("UTS %s via %s\n", params, how)
	fmt.Printf("  nodes=%d leaves=%d maxdepth=%d\n", result.Nodes, result.Leaves, result.MaxDepth)
	fmt.Printf("  time=%.3fs  throughput=%.2f Mnodes/s  verify=%s\n",
		elapsed.Seconds(), float64(result.Nodes)/elapsed.Seconds()/1e6, status)
}

func label(rt, backend string) string {
	if rt == "glto" {
		return fmt.Sprintf("glto(%s)", backend)
	}
	return rt
}
