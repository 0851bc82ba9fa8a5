package experiments

import (
	"strings"
	"sync"
	"testing"

	"memhogs/internal/footprint"
	"memhogs/internal/rt"
)

// quickCertGrid runs the quick cross-validation grid once and shares
// it between the tests below, which check different slices of it.
var quickCertGrid = func() func(t *testing.T) *CertCrossValidation {
	var once sync.Once
	var cv *CertCrossValidation
	var err error
	return func(t *testing.T) *CertCrossValidation {
		t.Helper()
		once.Do(func() { cv, err = RunCertCrossValidation(Quick()) })
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
}()

// TestCertCrossValidation is the hogflow acceptance check: in every
// benchmark × mode × DRAM:far ratio cell, the observed peaks of
// both tiers must stay at or below their certificates, and the grid
// must meet every contract Validate states (empty far tiers for the
// non-releasing versions, HV014 agreement, 1:0 tightness on the affine
// benchmarks, B beating O where the schedule streams, non-vacuity).
func TestCertCrossValidation(t *testing.T) {
	cv := quickCertGrid(t)

	if want := 6 * len(certModes) * len(TieringRatios); len(cv.Rows) != want {
		t.Fatalf("got %d cells, want %d", len(cv.Rows), want)
	}
	if err := cv.Validate(); err != nil {
		t.Errorf("certificate contract violated: %v\n%s", err, FormatCertCrossValidation(cv))
	}
	for _, c := range cv.Rows {
		if c.ObservedPeak <= 0 {
			t.Errorf("%s/%s@%s: observed no resident pages", c.Bench, c.Mode, c.Ratio)
		}
		if c.CertifiedPages <= 0 {
			t.Errorf("%s/%s@%s: empty certificate", c.Bench, c.Mode, c.Ratio)
		}
	}

	out := FormatCertCrossValidation(cv).String()
	for _, col := range []string{"dram cert", "dram obs", "far cert", "HV014"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing column %q:\n%s", col, out)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("table shows violated cells:\n%s", out)
	}
	checkDigest(t, "cert cross-validation", out, "0258027b31af054fe016bcb9b11a85c725a2e543b4fb6baf7815da8331a2f901")
}

// TestModeVersion pins the mode → certificate-version mapping over
// every run-time mode, in particular that Reactive is judged by the
// resident (P) interpretation: it compiles with release hints but
// never issues them pro-actively, so the buffered (B) bound would be
// unsound for its DRAM side and too generous for its far side.
func TestModeVersion(t *testing.T) {
	want := map[rt.Mode]footprint.Version{
		rt.ModeOriginal:   footprint.VersionO,
		rt.ModePrefetch:   footprint.VersionP,
		rt.ModeAggressive: footprint.VersionR,
		rt.ModeReactive:   footprint.VersionP,
		rt.ModeBuffered:   footprint.VersionB,
	}
	if len(certModes) != len(want) {
		t.Fatalf("certModes has %d modes, want all %d", len(certModes), len(want))
	}
	for _, m := range certModes {
		if got := modeVersion(m); got != want[m] {
			t.Errorf("modeVersion(%v) = %v, want %v", m, got, want[m])
		}
	}
}

// TestTierCertCrossValidation checks the far-tier side of the grid: the
// tiering sweep's modes are each run at every far ratio, the 1:0
// baseline has an exactly empty far tier, the sweep exercises both
// arms of HV014 and really fills the far tier, and Validate rejects a
// grid whose far-tier peak outgrows its certificate or whose HV014
// verdict disagrees with the certified far bound.
func TestTierCertCrossValidation(t *testing.T) {
	cv := quickCertGrid(t)

	type key struct {
		bench string
		mode  rt.Mode
		ratio TierRatio
	}
	seen := map[key]bool{}
	for _, c := range cv.Rows {
		seen[key{c.Bench, c.Mode, c.Ratio}] = true
		if (c.FarPages == 0) != (c.Ratio.Far == 0) {
			t.Errorf("%s/%s@%s: far share %d pages does not match the ratio", c.Bench, c.Mode, c.Ratio, c.FarPages)
		}
		if c.FarPages == 0 && (c.FarCertified != 0 || c.ObservedFarPeak != 0) {
			t.Errorf("%s/%s@%s: 1:0 baseline has far cert %d / far obs %d, want 0/0",
				c.Bench, c.Mode, c.Ratio, c.FarCertified, c.ObservedFarPeak)
		}
	}
	specs, err := cv.Opts.specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		for _, m := range TieringModes {
			for _, r := range TieringRatios {
				if !seen[key{spec.Name, m, r}] {
					t.Errorf("%s/%s@%s: tiering cell missing from the grid", spec.Name, m, r)
				}
			}
		}
	}

	// Non-vacuity: at least one buffered cell overflows its far tier,
	// at least one certifies cleanly inside it, and the far tier fills
	// somewhere for the comparison to mean anything.
	var fired, clean, farObserved bool
	overflow, farFilled := -1, -1
	for i, c := range cv.Rows {
		if c.Version == footprint.VersionB && c.FarPages > 0 {
			if c.HV014 {
				fired = true
			} else {
				clean = true
			}
		}
		if c.ObservedFarPeak > 0 {
			farObserved = true
			farFilled = i
		}
		if c.HV014 {
			overflow = i
		}
	}
	if !fired || !clean {
		t.Errorf("vacuous HV014 sweep: fired=%v clean=%v\n%s",
			fired, clean, FormatCertCrossValidation(cv))
	}
	if !farObserved {
		t.Fatal("vacuous run: no cell ever placed a page in the far tier")
	}

	// Validate must catch a far-tier breach and an HV014 disagreement.
	broken := func(i int, mutate func(*CertCell)) *CertCrossValidation {
		rows := append([]CertCell(nil), cv.Rows...)
		mutate(&rows[i])
		return &CertCrossValidation{Opts: cv.Opts, Rows: rows}
	}
	unsound := broken(farFilled, func(c *CertCell) {
		c.ObservedFarPeak = c.FarCertified + 1
		c.SoundFar = false
	})
	if err := unsound.Validate(); err == nil || !strings.Contains(err.Error(), "far peak") {
		t.Errorf("Validate accepted a far peak above its certificate: %v", err)
	}
	if overflow >= 0 {
		silenced := broken(overflow, func(c *CertCell) { c.HV014 = false })
		if err := silenced.Validate(); err == nil || !strings.Contains(err.Error(), "HV014") {
			t.Errorf("Validate accepted a silenced HV014: %v", err)
		}
	}
}

// TestTierModeVersion pins the certificate version each mode of the
// tiering sweep is judged by, and that every such mode is on the
// cross-validation's mode axis. Reactive in particular is judged by P:
// it never releases pro-actively, so it never demotes to the far tier.
func TestTierModeVersion(t *testing.T) {
	want := []footprint.Version{footprint.VersionO, footprint.VersionP, footprint.VersionP, footprint.VersionB}
	if len(TieringModes) != len(want) {
		t.Fatalf("TieringModes has %d modes, want %d", len(TieringModes), len(want))
	}
	for i, m := range TieringModes {
		if got := modeVersion(m); got != want[i] {
			t.Errorf("modeVersion(%v) = %v, want %v", m, got, want[i])
		}
		onAxis := false
		for _, c := range certModes {
			onAxis = onAxis || c == m
		}
		if !onAxis {
			t.Errorf("tiering mode %v is not cross-validated", m)
		}
	}
}
