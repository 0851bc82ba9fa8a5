package experiments

import (
	"testing"

	"memhogs/internal/rt"
)

// TestTieringParallelMatchesSerial is the tiering campaign's
// determinism oracle, the same contract TestCampaignParallelMatchesSerial
// pins for the headline campaign: the rendered table from a parallel
// run must be byte-identical to the serial one. Run under -race in CI.
func TestTieringParallelMatchesSerial(t *testing.T) {
	o := Quick()
	o.Benches = []string{"fftpde"}

	o.Workers = 1
	serial, err := RunTiering(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	parallel, err := RunTiering(o)
	if err != nil {
		t.Fatal(err)
	}

	a, b := TieringTable(serial).String(), TieringTable(parallel).String()
	if a != b {
		t.Fatalf("tiering table differs between -j1 and -j4:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	checkDigest(t, "tiering fftpde", a, "b8f31d63a832f38de668a21608c59015963e7be169077245cdbf5ea7e81c0e65")
	if err := serial.Check(); err != nil {
		t.Fatal(err)
	}

	// The sweep must not be vacuous: with part of the budget moved a
	// tier down, the buffered version's prioritized releases have to
	// demote pages and take far hits somewhere in the sweep.
	var demoted, farHits int64
	for _, ratio := range serial.Ratios {
		r := serial.Results["fftpde"][rt.ModeBuffered][ratio]
		demoted += r.VM.Demotions
		farHits += r.VM.FarFaults
		if ratio.Far == 0 && (r.VM.Demotions != 0 || r.VM.FarFaults != 0) {
			t.Errorf("ratio %s has no far tier but demoted %d / far hits %d",
				ratio, r.VM.Demotions, r.VM.FarFaults)
		}
	}
	if demoted == 0 || farHits == 0 {
		t.Fatalf("vacuous sweep: demoted=%d farHits=%d across all ratios", demoted, farHits)
	}
}

// TestTierRatioSplit pins the budget arithmetic: the split must
// conserve the total and give DRAM the rounding remainder.
func TestTierRatioSplit(t *testing.T) {
	for _, tc := range []struct {
		ratio     TierRatio
		total     int
		dram, far int
	}{
		{TierRatio{1, 0}, 256, 256, 0},
		{TierRatio{3, 1}, 256, 192, 64},
		{TierRatio{1, 1}, 256, 128, 128},
		{TierRatio{1, 3}, 256, 64, 192},
		{TierRatio{3, 1}, 255, 192, 63}, // remainder stays in DRAM
	} {
		dram, far := tc.ratio.Split(tc.total)
		if dram != tc.dram || far != tc.far {
			t.Errorf("%s.Split(%d) = (%d, %d), want (%d, %d)",
				tc.ratio, tc.total, dram, far, tc.dram, tc.far)
		}
		if dram+far != tc.total {
			t.Errorf("%s.Split(%d) loses pages: %d + %d", tc.ratio, tc.total, dram, far)
		}
	}
}
