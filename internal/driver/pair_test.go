package driver

import (
	"testing"

	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// testPair runs two scaled benchmarks against each other on the test
// machine with a 5-minute horizon.
func testPair(t *testing.T, nameA, nameB string, mode rt.Mode) (*PairResult, *PairResult) {
	t.Helper()
	specA, err := workload.ScaledByName(nameA)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := workload.ScaledByName(nameB)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestRunConfig(mode)
	cfg.Horizon = 5 * 60 * sim.Second
	a, b, err := RunPair(specA, specB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestRunPairCompletes(t *testing.T) {
	a, b := testPair(t, "matvec", "embar", rt.ModePrefetch)
	if !a.Done || !b.Done {
		t.Fatalf("pair did not finish: %v / %v", a.Done, b.Done)
	}
	if a.VM.Touches == 0 || b.VM.Touches == 0 {
		t.Fatal("a side did no work")
	}
}

func TestPairReleasingReducesMutualStealing(t *testing.T) {
	pa, pb := testPair(t, "matvec", "mgrid", rt.ModePrefetch)
	ra, rb := testPair(t, "matvec", "mgrid", rt.ModeAggressive)
	stolenP := pa.VM.StolenPages + pb.VM.StolenPages
	stolenR := ra.VM.StolenPages + rb.VM.StolenPages
	if stolenR > stolenP/2 {
		t.Fatalf("releasing did not cut mutual stealing: P=%d R=%d", stolenP, stolenR)
	}
	// And neither hog should get slower from the other's releases.
	if ra.Elapsed > pa.Elapsed*12/10 {
		t.Fatalf("matvec slower with releasing in the duel: %v vs %v", ra.Elapsed, pa.Elapsed)
	}
}
