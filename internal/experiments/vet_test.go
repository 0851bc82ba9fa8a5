package experiments

import (
	"strings"
	"testing"

	"memhogs/internal/hogvet"
)

// TestVetCrossValidation is the static-vs-dynamic acceptance check:
// every predictive verifier finding must correspond to a nonzero
// simulator counter on the flagged benchmark, the two pathological
// benchmarks must carry their signature warnings, and matvec/embar
// must be diagnostic-clean (no false positives).
func TestVetCrossValidation(t *testing.T) {
	cv, err := RunVetCrossValidation(Quick())
	if err != nil {
		t.Fatal(err)
	}

	if len(cv.Rows) == 0 {
		t.Fatal("no correlations collected")
	}
	for _, row := range cv.Rows {
		if !row.OK {
			t.Errorf("%s: %d %s finding(s) predicted nonzero %q but run observed %d",
				row.Bench, row.Findings, row.Code, row.Counter, row.Observed)
		}
	}

	if len(cv.Reports["fftpde"].ByCode("HV006")) == 0 {
		t.Error("fftpde: missing the false-temporal-reuse warning (HV006)")
	}
	for _, name := range []string{"mgrid", "cgm"} {
		if len(cv.Reports[name].ByCode("HV007")) == 0 {
			t.Errorf("%s: missing the hint-flood warning (HV007)", name)
		}
	}
	if len(cv.Reports["mgrid"].ByCode("HV001")) != 2 {
		t.Errorf("mgrid: want 2 release-before-last-use findings, got %d",
			len(cv.Reports["mgrid"].ByCode("HV001")))
	}
	for _, name := range []string{"matvec", "embar"} {
		if ds := cv.Reports[name].AtLeast(hogvet.Warning); len(ds) != 0 {
			t.Errorf("%s: want zero findings at warning+, got:\n%s", name, ds)
		}
	}
	for _, name := range []string{"matvec", "embar"} {
		found := false
		for _, c := range cv.Clean {
			found = found || c == name
		}
		if !found {
			t.Errorf("%s missing from Clean list %v", name, cv.Clean)
		}
	}

	out := FormatVetCrossValidation(cv).String()
	if !strings.Contains(out, "HV006") || !strings.Contains(out, "hints filtered") {
		t.Errorf("table missing expected content:\n%s", out)
	}
	if strings.Contains(out, "NO") {
		t.Errorf("table shows unconfirmed rows:\n%s", out)
	}
	checkDigest(t, "vet cross-validation", out, "3134b282bdee03c9d56a0769322393941ad33215db8eb547e983fad5b6dc1525")
}
