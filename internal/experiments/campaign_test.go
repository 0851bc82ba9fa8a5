package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memhogs/internal/sim"
)

// renderAll renders every figure and table a campaign feeds, so the
// serial-vs-parallel comparison covers the whole presentation layer.
func renderAll(v *Versions, d *Interactive, s *Sweep) string {
	var b strings.Builder
	b.WriteString(Fig1(s).String())
	b.WriteString(Fig7(v))
	b.WriteString(Fig8(v).String())
	b.WriteString(Fig9(v).String())
	b.WriteString(Fig10a(s).String())
	b.WriteString(Fig10b(d).String())
	b.WriteString(Fig10c(d).String())
	b.WriteString(Table3(v).String())
	b.WriteString(LockTable(v).String())
	return b.String()
}

func runCampaign(t *testing.T, o Opts) (*Versions, *Interactive, *Sweep) {
	t.Helper()
	v, err := RunVersions(o)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunInteractive(o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	return v, d, s
}

// The tentpole acceptance oracle: a parallel campaign's rendered
// figures and tables are byte-identical to a serial campaign's. Run
// with -race; the container may have GOMAXPROCS=1, so the parallel
// side pins Workers explicitly.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	o := Quick()
	o.Benches = []string{"matvec", "embar"}
	o.Horizon = 5 * sim.Second
	// The fixed sleep appears in the sweep too, so the two campaigns'
	// alone baselines can be cross-checked below.
	o.Sleep = 1 * sim.Second

	o.Workers = 1
	var serialLog bytes.Buffer
	o.Progress = &serialLog
	sv, sd, ss := runCampaign(t, o)
	serial := renderAll(sv, sd, ss)

	o.Workers = 4
	var parallelLog bytes.Buffer
	o.Progress = &parallelLog
	pv, pd, ps := runCampaign(t, o)
	parallel := renderAll(pv, pd, ps)

	if serial != parallel {
		t.Errorf("parallel campaign output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	// Progress lines arrive in completion order under a parallel
	// campaign, but the multiset of lines is identical, and both runs
	// print exactly one line per cell: perfbench counts these lines as
	// the campaign's operations.
	sLines := strings.Split(strings.TrimRight(serialLog.String(), "\n"), "\n")
	pLines := strings.Split(strings.TrimRight(parallelLog.String(), "\n"), "\n")
	sleeps := map[sim.Time]bool{}
	for _, s := range o.SleepTimes {
		sleeps[s] = true
	}
	cells := len(sleeps)*(1+len(Modes)) + 2*len(o.Benches)*len(Modes) + 1
	if len(sLines) != cells || len(pLines) != cells {
		t.Errorf("progress lines: serial %d, parallel %d, want one per cell (%d)", len(sLines), len(pLines), cells)
	}
	sort.Strings(sLines)
	sort.Strings(pLines)
	if !equalStrings(sLines, pLines) {
		t.Errorf("progress lines differ:\nserial: %q\nparallel: %q", sLines, pLines)
	}

	// Satellite regression: both interactive campaigns and the sweep
	// must measure the run-alone baseline identically (they once used
	// 6 vs 5 warm sweeps).
	if pd.Alone != ps.Alone[o.Sleep] {
		t.Errorf("alone baselines disagree: interactive %v vs sweep %v",
			pd.Alone, ps.Alone[o.Sleep])
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The first failing cell cancels every cell not yet started, the
// reported error is the lowest-index failure no matter how the pool
// interleaves, and it carries that cell's label. Each succeeding cell
// takes 100 µs of real time, as real cells take milliseconds: with
// cells that do no work, one worker could churn through all 200 while
// the worker holding cell 2 still waits in the run queue.
func TestRunCellsErrorPropagation(t *testing.T) {
	o := Quick()
	o.Workers = 4
	failLow := errors.New("cell 2 failed")
	failHigh := errors.New("cell 50 failed")
	var started int64
	cells := make([]int, 200)
	for i := range cells {
		cells[i] = i
	}
	res, err := runCells(o, cells,
		func(i int) string { return fmt.Sprintf("cell %d", i) },
		func(i int) (int, string, error) {
			atomic.AddInt64(&started, 1)
			switch i {
			case 2:
				return 0, "", failLow
			case 50:
				return 0, "", failHigh
			}
			time.Sleep(100 * time.Microsecond)
			return i, "ok", nil
		})
	if !errors.Is(err, failLow) {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
	if !strings.HasPrefix(err.Error(), "cell 2: ") {
		t.Errorf("err = %q, want it labelled with its cell", err)
	}
	if res != nil {
		t.Errorf("failed campaign returned results %v", res)
	}
	// The failure must have cancelled the bulk of the queue. Workers in
	// flight when cell 2 fails may still start a handful more.
	if n := atomic.LoadInt64(&started); n >= 200 {
		t.Errorf("all %d cells ran; failure did not cancel the rest", n)
	}
}

func TestRunCellsSerialStopsAtFirstError(t *testing.T) {
	o := Quick()
	o.Workers = 1
	var progress bytes.Buffer
	o.Progress = &progress
	boom := errors.New("boom")
	var ran int
	_, err := runCells(o, []string{"ok", "fail", "never"},
		func(c string) string { return c },
		func(c string) (string, string, error) {
			ran++
			if c == "fail" {
				return "", "", boom
			}
			return c, "done", nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err.Error() != "fail: boom" {
		t.Errorf("err = %q, want it labelled with its cell", err)
	}
	if ran != 2 {
		t.Errorf("ran = %d cells, want 2 (stop at first error)", ran)
	}
	if got := progress.String(); got != "ok: done\n" {
		t.Errorf("progress = %q, want one line for the one successful cell", got)
	}
}

// Satellite regression: RunVersions once hardcoded a 30-minute bound,
// ignoring the campaign's CompletionHorizon. A scaled campaign with a
// tiny horizon must actually stop there.
func TestVersionsHonorsCompletionHorizon(t *testing.T) {
	o := Quick()
	o.Benches = []string{"mgrid"} // slowest scaled benchmark: needs ~4.3 virtual seconds
	o.CompletionHorizon = 100 * sim.Millisecond
	v, err := RunVersions(o)
	if err != nil {
		t.Fatal(err)
	}
	for mode, r := range v.Results["mgrid"] {
		if r.Done {
			t.Errorf("%s finished under a %v horizon", mode, o.CompletionHorizon)
		}
		if r.Elapsed > 2*o.CompletionHorizon {
			t.Errorf("%s ran %v, far past the %v horizon", mode, r.Elapsed, o.CompletionHorizon)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if n := (Opts{Workers: 3}).workers(); n != 3 {
		t.Errorf("explicit Workers = %d, want 3", n)
	}
	if n := (Opts{}).workers(); n < 1 {
		t.Errorf("default workers = %d", n)
	}
}

// TestZeroClampsAcrossCampaignMatrix asserts the standard campaign
// never schedules in the past: a nonzero clamp count means some layer
// computed a stale deadline, which the event loop silently repaired
// before the counter made it observable.
func TestZeroClampsAcrossCampaignMatrix(t *testing.T) {
	v, err := RunVersions(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range v.Specs {
		for mode, r := range v.Results[spec.Name] {
			if r.SimClamps != 0 {
				t.Errorf("%s/%s: %d past-time schedules were clamped", spec.Name, mode, r.SimClamps)
			}
		}
	}
}
