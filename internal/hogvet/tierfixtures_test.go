package hogvet_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memhogs/internal/hogvet"
)

// tierFixture compiles one two-tier certification fixture and runs
// the verifier with the far-tier checks enabled.
func tierFixture(t *testing.T, name string) hogvet.Diagnostics {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name+".hog"))
	if err != nil {
		t.Fatal(err)
	}
	return hogvet.VetParamsFar(compileSrc(t, string(src)), nil, hogvet.TierFixtureFarPages, hogvet.TierFixtureMinPrio)
}

// TestTierFixtureGoldens locks the diagnostic listings of the three
// two-tier certification fixtures: faroverflow pins HV014, thrash
// HV015, deadthresh HV016. Regenerate intentionally with
// `go run ./cmd/gen-golden`.
func TestTierFixtureGoldens(t *testing.T) {
	for _, name := range []string{"faroverflow", "thrash", "deadthresh"} {
		name := name
		t.Run(name, func(t *testing.T) {
			got := tierFixture(t, name).String()
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (run `go run ./cmd/gen-golden`): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics changed; if intentional run `go run ./cmd/gen-golden`\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}

// TestTierFixtureShapes pins each fixture's finding independently of
// the golden bytes: exactly one diagnostic of the expected code and
// severity, carrying the expected array where the check is per-array.
func TestTierFixtureShapes(t *testing.T) {
	cases := []struct {
		fixture  string
		code     string
		severity hogvet.Severity
		array    string
	}{
		{"faroverflow", "HV014", hogvet.Warning, ""},
		{"thrash", "HV015", hogvet.Warning, "a"},
		{"deadthresh", "HV016", hogvet.Warning, ""},
	}
	for _, c := range cases {
		ds := tierFixture(t, c.fixture)
		if len(ds) != 1 {
			t.Errorf("%s: want exactly 1 diagnostic, got:\n%s", c.fixture, ds)
			continue
		}
		d := ds[0]
		if d.Code != c.code {
			t.Errorf("%s: code = %s, want %s", c.fixture, d.Code, c.code)
		}
		if d.Severity != c.severity {
			t.Errorf("%s: severity = %v, want %v", c.fixture, d.Severity, c.severity)
		}
		if d.Array != c.array {
			t.Errorf("%s: array = %q, want %q", c.fixture, d.Array, c.array)
		}
	}
}

// TestTierChecksQuietWithoutFar pins the gate on the whole HV014–16
// family: the same fixtures certified without a far tier must not
// produce any two-tier diagnostic, so single-tier callers (every
// existing golden) are untouched by the new checks.
func TestTierChecksQuietWithoutFar(t *testing.T) {
	for _, name := range []string{"faroverflow", "thrash", "deadthresh"} {
		src, err := os.ReadFile(filepath.Join("testdata", name+".hog"))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range hogvet.VetParams(compileSrc(t, string(src)), nil) {
			if d.Code == "HV014" || d.Code == "HV015" || d.Code == "HV016" {
				t.Errorf("%s: far-disabled run produced %s: %s", name, d.Code, d.Message)
			}
		}
	}
}

// TestDeadThresholdDemotesEverything covers HV016's other arm: with
// the gate at priority 0 every release demotes, so the gate filters
// nothing and the diagnostic names the opposite failure.
func TestDeadThresholdDemotesEverything(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "deadthresh.hog"))
	if err != nil {
		t.Fatal(err)
	}
	ds := hogvet.VetParamsFar(compileSrc(t, string(src)), nil, hogvet.TierFixtureFarPages, 0)
	found := false
	for _, d := range ds {
		if d.Code == "HV016" {
			found = true
			if want := "demotes everything"; !strings.Contains(d.Message, want) {
				t.Errorf("HV016 message %q does not mention %q", d.Message, want)
			}
		}
	}
	if !found {
		t.Errorf("min-prio 0 gate did not fire HV016; got:\n%s", ds)
	}
}
