package policytest_test

// The four in-tree backends certify themselves against the conformance
// suite — the same entry point a third-party backend would use. The ws
// backend additionally runs the Stealer section (steal-half ownership
// transfer, deque wraparound); the other three skip it. ws and mth, whose
// Pop steals, also run the engine-level spinner case; abt and qth skip it.

import (
	"os"
	"testing"

	_ "repro/glt/backends"
	"repro/glt/policytest"
)

func TestABTConformance(t *testing.T) { policytest.Run(t, "abt") }
func TestQTHConformance(t *testing.T) { policytest.Run(t, "qth") }
func TestMTHConformance(t *testing.T) { policytest.Run(t, "mth") }
func TestWSConformance(t *testing.T)  { policytest.Run(t, "ws") }

// TestEnvBackendConformance lets CI (or a developer) point the suite at one
// backend by name: GLT_BACKEND=ws go test ./glt/policytest. Skipped when the
// variable is unset — the per-backend tests above already cover the in-tree
// set.
func TestEnvBackendConformance(t *testing.T) {
	name := os.Getenv("GLT_BACKEND")
	if name == "" {
		t.Skip("GLT_BACKEND not set")
	}
	policytest.Run(t, name)
}
