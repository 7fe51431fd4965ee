package validation

import (
	"os"
	"strings"
	"testing"

	"repro/omp"
	"repro/openmp"
)

func TestSuiteShapeMatchesPaper(t *testing.T) {
	// Table I: "OpenMP constructs 62, Used tests 123".
	if got := NumTests(); got != 123 {
		t.Errorf("suite has %d tests, want 123", got)
	}
	if got := NumConstructs(); got != 62 {
		t.Errorf("suite covers %d constructs, want 62", got)
	}
}

func TestNoDuplicateTestModePairs(t *testing.T) {
	seen := map[string]bool{}
	for _, tt := range Tests() {
		key := tt.Name + "/" + string(tt.Mode)
		if seen[key] {
			t.Errorf("duplicate test entry %s", key)
		}
		seen[key] = true
	}
}

// runtimeExpectations capture the paper's Table I failure analysis: which of
// the discriminating tests each runtime must fail, by mechanism.
var runtimeExpectations = []struct {
	name      string
	rtName    string
	backend   string
	mustFail  []string // test names that must fail in every mode they run in
	mustPass  []string // discriminating names that must pass
	threshold int      // minimum passes overall (sanity floor)
}{
	{
		name: "gomp", rtName: "gomp",
		mustFail:  []string{"omp_taskyield", "omp_task_untied", "omp_task_final"},
		threshold: 115,
	},
	{
		name: "iomp", rtName: "iomp",
		mustFail:  []string{"omp_taskyield", "omp_task_untied", "omp_task_final"},
		threshold: 115,
	},
	{
		name: "glto-abt", rtName: "glto", backend: "abt",
		mustFail:  []string{"omp_taskyield", "omp_task_untied"},
		mustPass:  []string{"omp_task_final"},
		threshold: 118,
	},
	{
		name: "glto-qth", rtName: "glto", backend: "qth",
		mustFail:  []string{"omp_taskyield", "omp_task_untied"},
		mustPass:  []string{"omp_task_final"},
		threshold: 118,
	},
	{
		name: "glto-mth", rtName: "glto", backend: "mth",
		// MassiveThreads steals, so untied tasks migrate; the paper's MTH
		// column fails only taskyield, and there only because "not enough
		// tasks change" — a statistical outcome we do not pin down.
		mustPass:  []string{"omp_task_untied", "omp_task_final"},
		threshold: 119,
	},
	{
		name: "glto-ws", rtName: "glto", backend: "ws",
		// The lock-free work-stealing backend migrates suspended task ULTs
		// like mth (thieves take started continuations off a loaded stream),
		// so untied tasks pass; taskyield remains statistical, as for mth.
		mustPass:  []string{"omp_task_untied", "omp_task_final"},
		threshold: 119,
	},
}

func TestTable1RuntimeOutcomes(t *testing.T) {
	for _, exp := range runtimeExpectations {
		t.Run(exp.name, func(t *testing.T) {
			rt, err := openmp.New(exp.rtName, omp.Config{
				NumThreads: 4,
				Backend:    exp.backend,
				Nested:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			rep := RunSuite(rt, 4)
			t.Logf("%s: %d/%d passed; failed: %v", exp.name, rep.Passed(), len(rep.Outcomes), rep.FailedNames())
			if rep.Constructs() != 62 {
				t.Errorf("report covers %d constructs", rep.Constructs())
			}
			if rep.Passed() < exp.threshold {
				t.Errorf("passed %d, expected at least %d", rep.Passed(), exp.threshold)
			}
			failed := map[string]bool{}
			for _, o := range rep.Outcomes {
				if !o.Pass() {
					failed[o.Name] = true
				}
			}
			for _, name := range exp.mustFail {
				if !failed[name] {
					t.Errorf("expected %s to fail on %s (mechanism check), but it passed", name, exp.name)
				}
			}
			for _, name := range exp.mustPass {
				if failed[name] {
					t.Errorf("expected %s to pass on %s, but it failed", name, exp.name)
				}
			}
			// No unexpected failures beyond the discriminating set.
			for name := range failed {
				ok := false
				for _, f := range exp.mustFail {
					if name == f {
						ok = true
					}
				}
				if !ok && name != "omp_taskyield" { // mth's statistical case
					t.Errorf("unexpected failure on %s: %s", exp.name, name)
				}
			}
		})
	}
}

// TestEnvBackendSuite runs the full validation suite on GLTO over the
// backend named by GLT_BACKEND, so CI (or a developer) can certify a single
// backend end to end: GLT_BACKEND=ws go test ./internal/validation. Skipped
// when the variable is unset — the expectation table above already covers
// the in-tree backends. GLT_SHARED_QUEUES=1 additionally collapses the
// backend's pools into the shared queue (§IV-F), which is how CI certifies
// ws's lock-free MPMC pool against the whole construct surface.
func TestEnvBackendSuite(t *testing.T) {
	backend := os.Getenv("GLT_BACKEND")
	if backend == "" {
		t.Skip("GLT_BACKEND not set")
	}
	shared := os.Getenv("GLT_SHARED_QUEUES") == "1"
	label := "glto-" + backend
	if shared {
		label += "-shared"
	}
	rt, err := openmp.New("glto", omp.Config{
		NumThreads: 4, Backend: backend, Nested: true, SharedQueues: shared,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	rep := RunSuite(rt, 4)
	t.Logf("%s: %d/%d passed; failed: %v", label, rep.Passed(), len(rep.Outcomes), rep.FailedNames())
	if rep.Passed() < 118 {
		t.Errorf("%s passed %d, expected at least 118", label, rep.Passed())
	}
}

// TestWaitPolicySuite runs the full Table I suite on all four runtimes under
// both OMP_WAIT_POLICY settings. The wait policy only reshapes *how* threads
// wait — the adaptive spin budget's clamp and, through it, how eagerly
// barrier waiters fall back to task execution or a scheduler yield — so
// construct outcomes must be policy-invariant: the same 123 tests run and
// each runtime meets its Table I floor in both modes. OMP_WAIT_POLICY in the
// environment (read as omp.Config.FromEnv reads it: case-insensitive,
// surrounding whitespace ignored) narrows the sweep to the named policy.
func TestWaitPolicySuite(t *testing.T) {
	policies := []omp.WaitPolicy{omp.PassiveWait, omp.ActiveWait}
	if env := strings.TrimSpace(os.Getenv("OMP_WAIT_POLICY")); env != "" {
		if strings.EqualFold(env, "active") {
			policies = []omp.WaitPolicy{omp.ActiveWait}
		} else {
			policies = []omp.WaitPolicy{omp.PassiveWait}
		}
	}
	runtimes := []struct {
		rtName, backend string
		threshold       int
	}{
		{"gomp", "", 115},
		{"iomp", "", 115},
		{"glto", "abt", 118},
		{"glto", "ws", 119},
	}
	for _, rtc := range runtimes {
		for _, policy := range policies {
			label := rtc.rtName
			if rtc.backend != "" {
				label += "-" + rtc.backend
			}
			t.Run(label+"/"+policy.String(), func(t *testing.T) {
				rt, err := openmp.New(rtc.rtName, omp.Config{
					NumThreads: 4, Backend: rtc.backend, Nested: true,
					WaitPolicy: policy,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Shutdown()
				rep := RunSuite(rt, 4)
				t.Logf("%s/%s: %d/%d passed; failed: %v",
					label, policy, rep.Passed(), len(rep.Outcomes), rep.FailedNames())
				if got := len(rep.Outcomes); got != 123 {
					t.Errorf("%s/%s: ran %d tests, want 123", label, policy, got)
				}
				if rep.Passed() < rtc.threshold {
					t.Errorf("%s/%s: passed %d, expected at least %d",
						label, policy, rep.Passed(), rtc.threshold)
				}
			})
		}
	}
}

// TestTable1DispatchModes runs the full Table I suite on GLTO under every
// task/region dispatch mode the runtime offers — the default batched path
// (producer-side task buffer + PushBatch), buffering disabled alone, and the
// paper-faithful PerUnitDispatch escape hatch — and on the pthread runtimes
// with batching toggled. Construct semantics must be mode-invariant: the
// batching redesign may change *when* a deferred task becomes visible, never
// what the validation suite observes.
func TestTable1DispatchModes(t *testing.T) {
	modes := []struct {
		name   string
		mutate func(*omp.Config)
	}{
		{"batched", func(c *omp.Config) {}},
		{"unbuffered", func(c *omp.Config) { c.TaskBuffer = -1 }},
		{"per-unit", func(c *omp.Config) { c.PerUnitDispatch = true }},
	}
	runtimes := []struct {
		rtName, backend string
		threshold       int
	}{
		{"glto", "abt", 118},
		{"glto", "ws", 118},
		{"gomp", "", 115},
		{"iomp", "", 115},
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
				rep := RunSuite(rt, 4)
				if rep.Passed() < rtc.threshold {
					t.Errorf("%s/%s: passed %d, expected at least %d; failed: %v",
						rtc.rtName, mode.name, rep.Passed(), rtc.threshold, rep.FailedNames())
				}
			})
		}
	}
}
