package validation

import (
	"os"
	"strings"
	"testing"

	"repro/omp"
	"repro/openmp"
)

// TestDependenceSuite runs the depend-clause extension suite on the
// four-runtime matrix. Unlike the Table I suite there is no failure budget:
// the dependence subsystem is shared construct code, so every runtime must
// pass every test. GLT_SHARED_QUEUES=1 additionally runs the glto rows over
// the collapsed shared-queue pools, and OMP_WAIT_POLICY narrows the wait
// policy — the combination CI uses to certify the release path under the
// ws backend's lock-free MPMC pool.
func TestDependenceSuite(t *testing.T) {
	shared := os.Getenv("GLT_SHARED_QUEUES") == "1"
	var policy omp.WaitPolicy
	if env := strings.TrimSpace(os.Getenv("OMP_WAIT_POLICY")); strings.EqualFold(env, "active") {
		policy = omp.ActiveWait
	} else if env != "" {
		policy = omp.PassiveWait
	}
	runtimes := []struct {
		rtName, backend string
	}{
		{"gomp", ""},
		{"iomp", ""},
		{"glto", "abt"},
		{"glto", "ws"},
	}
	for _, rtc := range runtimes {
		label := rtc.rtName
		if rtc.backend != "" {
			label += "-" + rtc.backend
			if shared {
				label += "-shared"
			}
		}
		t.Run(label, func(t *testing.T) {
			rt, err := openmp.New(rtc.rtName, omp.Config{
				NumThreads: 4, Backend: rtc.backend, Nested: true,
				SharedQueues: shared && rtc.backend != "", WaitPolicy: policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			rep := RunExtSuite(rt, 4)
			t.Logf("%s: %d/%d passed; failed: %v",
				label, rep.Passed(), len(rep.Outcomes), rep.FailedNames())
			if rep.Failed() != 0 {
				t.Errorf("%s failed dependence tests: %v", label, rep.FailedNames())
			}
		})
	}
}

// TestDependenceSuiteDispatchModes re-runs the extension suite with task
// buffering off and with release-to-self chaining off: a released task
// enters the engine through EngineOps.Enqueue in every mode, and dependence order must be mode-invariant exactly as construct
// semantics are. The chain-off row (Config.DepChain < 0) sends every release
// through the queues, so no successor runs inline on its releaser.
func TestDependenceSuiteDispatchModes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	modes := []struct {
		name   string
		mutate func(*omp.Config)
	}{
		{"unbuffered", func(c *omp.Config) { c.TaskBuffer = -1 }},
		{"chain-off", func(c *omp.Config) { c.DepChain = -1 }},
	}
	runtimes := []struct {
		rtName, backend string
	}{
		{"gomp", ""},
		{"iomp", ""},
		{"glto", "abt"},
		{"glto", "ws"},
	}
	for _, rtc := range runtimes {
		for _, mode := range modes {
			label := rtc.rtName
			if rtc.backend != "" {
				label += "-" + rtc.backend
			}
			t.Run(label+"/"+mode.name, func(t *testing.T) {
				cfg := omp.Config{NumThreads: 4, Backend: rtc.backend, Nested: true}
				mode.mutate(&cfg)
				rt, err := openmp.New(rtc.rtName, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Shutdown()
				rep := RunExtSuite(rt, 4)
				if rep.Failed() != 0 {
					t.Errorf("%s/%s failed: %v", label, mode.name, rep.FailedNames())
				}
			})
		}
	}
}
