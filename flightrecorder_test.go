// Acceptance tests for the event-level flight recorder: every counter
// in the registry must agree with the run's own statistics, the Chrome
// export must be valid JSON, and the whole trace must be byte-for-byte
// deterministic.
package memhogs

import (
	"bytes"
	"encoding/json"
	"testing"

	"memhogs/internal/driver"
	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

// recordRun runs one scaled benchmark with the recorder attached,
// after applying mut (nil for none) to the test config, and returns
// the recorder, the simulated system and the driver's result.
func recordRun(t *testing.T, bench string, mode rt.Mode, mut func(*driver.RunConfig)) (*events.Recorder, *kernel.System, *driver.Result) {
	t.Helper()
	spec, err := workload.ScaledByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	var rec *events.Recorder
	var system *kernel.System
	cfg := driver.TestRunConfig(mode)
	if mut != nil {
		mut(&cfg)
	}
	cfg.OnSystem = func(sys *kernel.System) {
		system = sys
		rec = events.New(sys.Sim, 1<<18)
		sys.SetEvents(rec)
	}
	res, err := driver.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec, system, res
}

// TestTraceEventCountsMatchRunStats is the core acceptance criterion:
// the recorder's per-kind totals must equal the statistics each layer
// keeps for itself, in every version. A mismatch means an event is
// emitted on the wrong path (or a path is missing instrumentation).
func TestTraceEventCountsMatchRunStats(t *testing.T) {
	for _, mode := range []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeBuffered} {
		t.Run(mode.String(), func(t *testing.T) {
			rec, _, res := recordRun(t, "matvec", mode, nil)
			c := rec.Counts()
			checks := []struct {
				kind events.Kind
				want int64
			}{
				{events.FaultSoft, res.VM.SoftFaults},
				{events.FaultRescue, res.VM.RescueFaults},
				{events.FaultHard, res.VM.HardFaults},
				{events.PageIn, res.VM.PageIns},
				{events.DaemonWake, res.Daemon.Activations},
				{events.DaemonClear, res.Daemon.Invalidations},
				{events.DaemonSteal, res.Daemon.Stolen},
				{events.DaemonDonated, res.Daemon.Donated},
				{events.ReleaserFree, res.Releaser.Freed},
				{events.ReleaserSkipRef, res.Releaser.SkippedRef},
				{events.ReleaserSkipGone, res.Releaser.SkippedGone},
				{events.RTPrefetchFilter, res.RT.PrefetchFiltered},
				{events.RTPrefetchIssue, res.RT.PrefetchIssued},
				{events.RTPrefetchDrop, res.RT.PrefetchDropped},
				{events.RTReleaseDup, res.RT.ReleaseDupDropped},
				{events.RTReleaseNotRes, res.RT.ReleaseNotResident},
				{events.RTReleaseBuffer, res.RT.ReleaseBuffered},
				{events.RTReleaseOverflow, res.RT.ReleaseOverflow},
				{events.RTPressureDrain, res.RT.PressureDrains},
				{events.PMRefresh, res.PM.SharedRefreshes},
			}
			for _, ck := range checks {
				if got := c.Get(ck.kind); got != ck.want {
					t.Errorf("counts[%s] = %d, want %d (layer stat)", ck.kind, got, ck.want)
				}
			}
			// The comparison must not be vacuous. A memory hog always
			// faults; without release hints the daemon must steal, and
			// with them the releaser must free (releases keeping the
			// daemon idle is the paper's headline).
			if c.Get(events.FaultHard) == 0 {
				t.Fatal("trivial run: no hard faults")
			}
			if mode == rt.ModeOriginal && c.Get(events.DaemonSteal) == 0 {
				t.Fatal("unhinted run: daemon stole nothing")
			}
			if mode == rt.ModeBuffered && c.Get(events.ReleaserFree) == 0 {
				t.Fatal("buffered run released nothing")
			}
		})
	}
}

// TestTieringCountersMatchRunStats is the same acceptance criterion
// for the far-memory tier: on a machine whose budget is split
// DRAM:far, the recorder's tier-demote/tier-promote/fault-far totals
// must equal the VM, releaser and far-tier statistics — and the run
// must actually exercise the tier, or the comparison is vacuous.
func TestTieringCountersMatchRunStats(t *testing.T) {
	rec, sysFar, res := recordRun(t, "fftpde", rt.ModeBuffered, func(c *driver.RunConfig) {
		c.Kernel.UserMemPages -= 64
		c.Kernel.Far.Pages = 64
	})
	c := rec.Counts()
	checks := []struct {
		kind events.Kind
		want int64
	}{
		{events.TierDemote, res.VM.Demotions},
		{events.TierDemote, res.Releaser.Demoted},
		{events.TierDemote, res.Far.Demotions},
		{events.TierPromote, res.VM.Promotions},
		{events.TierPromote, res.Far.Promotions},
	}
	for _, ck := range checks {
		if got := c.Get(ck.kind); got != ck.want {
			t.Errorf("counts[%s] = %d, want %d (layer stat)", ck.kind, got, ck.want)
		}
	}
	// Every far fault promotes, and prefetch may promote more; the
	// promote total splits exactly across the two paths.
	if got, want := c.Get(events.FaultFar), res.VM.FarFaults; got != want {
		t.Errorf("counts[fault-far] = %d, want %d (VM.FarFaults)", got, want)
	}
	if res.VM.Promotions != res.VM.FarFaults+res.PM.PrefetchPromoted {
		t.Errorf("promotions %d != far faults %d + prefetch promotions %d",
			res.VM.Promotions, res.VM.FarFaults, res.PM.PrefetchPromoted)
	}
	if c.Get(events.TierDemote) == 0 {
		t.Fatal("trivial run: nothing demoted to the far tier")
	}
	if c.Get(events.TierPromote) == 0 {
		t.Fatal("trivial run: nothing promoted back from the far tier")
	}
	// The far-tier high-water mark must be consistent with the
	// recorder's demote/promote totals: it never exceeds total inflow,
	// never exceeds the tier's capacity, and is at least the net
	// occupancy left at the end of the run.
	peakFar := res.VM.PeakFarResident
	if peakFar <= 0 {
		t.Error("PeakFarResident = 0 on a run that demoted pages")
	}
	if peakFar > int64(sysFar.Cfg.Far.Pages) {
		t.Errorf("PeakFarResident %d exceeds far-tier size %d", peakFar, sysFar.Cfg.Far.Pages)
	}
	if peakFar > c.Get(events.TierDemote) {
		t.Errorf("PeakFarResident %d exceeds tier-demote total %d", peakFar, c.Get(events.TierDemote))
	}
	if net := c.Get(events.TierDemote) - c.Get(events.TierPromote); peakFar < net {
		t.Errorf("PeakFarResident %d below net tier occupancy %d", peakFar, net)
	}
	// End-of-run conservation: pages still in the tier are exactly
	// demotions minus promotions, and the audit must agree.
	if live := res.Far.Demotions - res.Far.Promotions; live != int64(sysFar.Far.UsedCount()) {
		t.Errorf("far tier holds %d pages, demotions-promotions says %d",
			sysFar.Far.UsedCount(), live)
	}
	if err := sysFar.Audit(); err != nil {
		t.Errorf("post-run audit: %v", err)
	}
}

// chromeDoc is the subset of the Chrome trace-event format the tests
// inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]int64 `json:"otherData"`
}

// TestTraceFacade checks the public entry point end to end: valid
// Chrome JSON, instant-event counts that agree with the counter
// registry and the run report, and byte-identical output across runs.
func TestTraceFacade(t *testing.T) {
	tr, err := Trace("matvec", Buffered, TestMachine(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped != 0 {
		t.Fatalf("quick trace dropped %d events; ring too small for the acceptance check", tr.Dropped)
	}
	var doc chromeDoc
	if err := json.Unmarshal(tr.ChromeJSON, &doc); err != nil {
		t.Fatalf("ChromeJSON is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("malformed trace document: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	// Count the emitted instant events by name and compare with both
	// the exact counter registry and the run's report.
	byName := map[string]int64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" {
			byName[e.Name]++
		}
	}
	if byName["releaser-free"] != tr.Counters["releaser-free"] ||
		byName["releaser-free"] != tr.Report.PagesReleased {
		t.Errorf("release events %d, counter %d, report %d — must all agree",
			byName["releaser-free"], tr.Counters["releaser-free"], tr.Report.PagesReleased)
	}
	if byName["daemon-steal"] != tr.Counters["daemon-steal"] ||
		byName["daemon-steal"] != tr.Report.PagesStolen {
		t.Errorf("steal events %d, counter %d, report %d — must all agree",
			byName["daemon-steal"], tr.Counters["daemon-steal"], tr.Report.PagesStolen)
	}
	if byName["fault-hard"] != tr.Report.HardFaults {
		t.Errorf("hard-fault events %d, report %d", byName["fault-hard"], tr.Report.HardFaults)
	}
	// otherData carries the exact totals.
	for name, n := range tr.Counters {
		if doc.OtherData[name] != n {
			t.Errorf("otherData[%s] = %d, want %d", name, doc.OtherData[name], n)
		}
	}
	// Determinism: a second run must produce byte-identical output.
	tr2, err := Trace("matvec", Buffered, TestMachine(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.ChromeJSON, tr2.ChromeJSON) {
		t.Fatal("ChromeJSON differs between identical runs")
	}
	if tr.Log != tr2.Log {
		t.Fatal("Log differs between identical runs")
	}
}
