package experiments

import (
	"bytes"
	"strings"
	"testing"

	"memhogs/internal/sim"
)

// TestCatalogueRendersEveryID renders every catalogue id, the extras
// included, from one session on a one-benchmark, one-sleep campaign.
// Each campaign runs once, "all" is the paper entries' renderings in
// catalogue order, and an unknown name fails before anything runs.
func TestCatalogueRendersEveryID(t *testing.T) {
	o := Quick()
	o.Benches = []string{"embar"}
	o.SleepTimes = []sim.Time{0}
	var progress bytes.Buffer
	o.Progress = &progress
	s := NewSession(o)

	if _, err := s.Render(&bytes.Buffer{}, []string{"table1", "nosuch"}); err == nil {
		t.Fatal("unknown name accepted")
	}
	var each strings.Builder
	for _, e := range catalogue {
		out, err := s.Experiment(e.id)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		if out == "" {
			t.Errorf("%s renders nothing", e.id)
		}
		if !e.extra {
			each.WriteString(out + "\n")
		}
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if all != each.String() {
		t.Errorf("all differs from its entries rendered one by one:\n%s\nvs\n%s", all, each.String())
	}
	// versions 4 + interactive 1+4 + sweep 1+4 cells.
	if n := strings.Count(progress.String(), "\n"); n != 14 {
		t.Errorf("%d progress lines, want 14: each campaign once\n%s", n, progress.String())
	}
}
