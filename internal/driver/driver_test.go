package driver

import (
	"testing"

	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
	"memhogs/internal/workload"
)

// runAllVersions runs the four program versions of one benchmark with
// identical settings, mirroring the paper's O/P/R/B bars.
func runAllVersions(spec *workload.Spec, base RunConfig) (map[rt.Mode]*Result, error) {
	out := map[rt.Mode]*Result{}
	for _, mode := range []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeBuffered} {
		cfg := base
		cfg.Mode = mode
		cfg.RT = rt.DefaultConfig(mode)
		r, err := Run(spec, cfg)
		if err != nil {
			return nil, err
		}
		out[mode] = r
	}
	return out, nil
}

func TestAllScaledBenchmarksRunAllVersions(t *testing.T) {
	for _, spec := range workload.AllScaled() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			results, err := runAllVersions(spec, TestRunConfig(rt.ModeOriginal))
			if err != nil {
				t.Fatal(err)
			}
			for mode, r := range results {
				if !r.Done {
					t.Errorf("%s/%s did not finish", spec.Name, mode)
				}
				if r.Elapsed <= 0 {
					t.Errorf("%s/%s elapsed = %v", spec.Name, mode, r.Elapsed)
				}
				if r.VM.Touches == 0 {
					t.Errorf("%s/%s no touches", spec.Name, mode)
				}
			}
			o, p := results[rt.ModeOriginal], results[rt.ModePrefetch]
			rr, b := results[rt.ModeAggressive], results[rt.ModeBuffered]
			// Prefetching must issue prefetches; releasing must issue
			// releases.
			if p.PM.PrefetchRequests == 0 {
				t.Error("P version issued no prefetches")
			}
			if rr.RT.ReleaseIssued == 0 {
				t.Errorf("R version issued no releases (%+v)", rr.RT)
			}
			if b.RT.ReleaseCalls == 0 {
				t.Error("B version saw no release hints")
			}
			if o.PM.PrefetchRequests != 0 || o.RT.ReleaseCalls != 0 {
				t.Error("O version used hints")
			}
			// Prefetching must not increase I/O stall (at disk
			// saturation on the tiny test machine P can only match O,
			// so allow 10% tolerance).
			if o.Times[vm.BucketStallIO] > 0 &&
				p.Times[vm.BucketStallIO] > o.Times[vm.BucketStallIO]*11/10 {
				t.Errorf("prefetching increased I/O stall: O=%v P=%v",
					o.Times[vm.BucketStallIO], p.Times[vm.BucketStallIO])
			}
			// Releasing must cut the paging daemon's stealing relative
			// to prefetch-only (Table 3's effect).
			if rr.Daemon.Stolen > p.Daemon.Stolen {
				t.Errorf("aggressive releasing increased daemon stealing: P=%d R=%d",
					p.Daemon.Stolen, rr.Daemon.Stolen)
			}
		})
	}
}

func TestMatvecPrefetchHidesMostStall(t *testing.T) {
	spec := workload.MatvecScaled()
	results, err := runAllVersions(spec, TestRunConfig(rt.ModeOriginal))
	if err != nil {
		t.Fatal(err)
	}
	o, p := results[rt.ModeOriginal], results[rt.ModePrefetch]
	if o.Times[vm.BucketStallIO] == 0 {
		t.Skip("no I/O stall in original run on this configuration")
	}
	// On the tiny test machine the original version already benefits
	// heavily from swap clustering, so just require improvement.
	frac := float64(p.Times[vm.BucketStallIO]) / float64(o.Times[vm.BucketStallIO])
	if frac >= 1.0 {
		t.Fatalf("prefetching did not reduce I/O stall (O=%v P=%v)",
			o.Times[vm.BucketStallIO], p.Times[vm.BucketStallIO])
	}
}

func TestReleasingReducesDaemonSoftFaults(t *testing.T) {
	spec := workload.EmbarScaled()
	results, err := runAllVersions(spec, TestRunConfig(rt.ModeOriginal))
	if err != nil {
		t.Fatal(err)
	}
	p, r := results[rt.ModePrefetch], results[rt.ModeAggressive]
	// Figure 8: releasing collapses invalidation-caused soft faults.
	if r.VM.SoftFaultsDaemon > p.VM.SoftFaultsDaemon {
		t.Fatalf("releasing increased daemon soft faults: P=%d R=%d",
			p.VM.SoftFaultsDaemon, r.VM.SoftFaultsDaemon)
	}
}

func TestInteractiveSuffersUnderPrefetchOnlyAndRecoversWithRelease(t *testing.T) {
	spec := workload.MatvecScaled()
	base := TestRunConfig(rt.ModeOriginal)
	base.Repeat = true
	base.Horizon = 20 * sim.Second
	base.InteractiveSleep = 2 * sim.Second

	alone := AloneResponse(base.Kernel, base.InteractiveSleep, 5)
	if alone <= 0 {
		t.Fatal("no baseline response")
	}

	run := func(mode rt.Mode) *Result {
		cfg := base
		cfg.Mode = mode
		cfg.RT = rt.DefaultConfig(mode)
		r, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Interactive.Sweeps == 0 {
			t.Fatalf("%s: no interactive sweeps", mode)
		}
		return r
	}
	p := run(rt.ModePrefetch)
	b := run(rt.ModeBuffered)
	// Prefetch-only must hurt the interactive task badly; buffered
	// releasing must recover most of it (Figure 10).
	if p.Interactive.MeanResponse < 2*alone {
		t.Errorf("prefetch-only did not hurt interactive response: alone=%v P=%v",
			alone, p.Interactive.MeanResponse)
	}
	if b.Interactive.MeanResponse > p.Interactive.MeanResponse {
		t.Errorf("buffered releasing did not improve interactive response: P=%v B=%v",
			p.Interactive.MeanResponse, b.Interactive.MeanResponse)
	}
}

func TestPrefetchServiceNotChargedToApp(t *testing.T) {
	// "Because we use separate threads to issue the prefetch requests,
	// the prefetch service does not appear in the execution time of
	// the main application" (§4.3): the workers' CPU time must land in
	// WorkerTimes, and the app's own system time must stay close to
	// the original version's.
	spec := workload.EmbarScaled()
	o, err := Run(spec, TestRunConfig(rt.ModeOriginal))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(spec, TestRunConfig(rt.ModePrefetch))
	if err != nil {
		t.Fatal(err)
	}
	if p.WorkerTimes[vm.BucketSystem] == 0 {
		t.Fatal("prefetch workers consumed no system time")
	}
	// The app's system time should not balloon relative to O (the
	// paper: "nearly identical across all versions").
	if p.Times[vm.BucketSystem] > o.Times[vm.BucketSystem]*2 {
		t.Fatalf("app system time inflated by prefetching: O=%v P=%v",
			o.Times[vm.BucketSystem], p.Times[vm.BucketSystem])
	}
}

func TestReactiveModeDonatesOnDemand(t *testing.T) {
	spec := workload.EmbarScaled()
	r, err := Run(spec, TestRunConfig(rt.ModeReactive))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done {
		t.Fatal("reactive run did not finish")
	}
	// No pro-active releases; the daemon pulled victims through the
	// donor callback instead of its clock.
	if r.RT.ReleaseIssued != 0 {
		t.Fatalf("reactive mode issued %d pro-active releases", r.RT.ReleaseIssued)
	}
	if r.Daemon.Donated == 0 {
		t.Fatalf("daemon never used the donor: %+v", r.Daemon)
	}
	// Donations should displace most clock stealing from the hog.
	if r.Daemon.Stolen > r.Daemon.Donated {
		t.Logf("note: clock still stole %d vs %d donated", r.Daemon.Stolen, r.Daemon.Donated)
	}
}

func TestReactiveStillHurtsInteractive(t *testing.T) {
	// The paper's §2.2 argument: a reactive scheme reclaims only when
	// the OS decides memory is short, so the interactive task's pages
	// are already exposed to the daemon's pressure machinery. Compare
	// reactive against pro-active buffering.
	spec := workload.MatvecScaled()
	base := TestRunConfig(rt.ModeReactive)
	base.Repeat = true
	base.Horizon = 15 * sim.Second
	base.InteractiveSleep = 2 * sim.Second
	reactive, err := Run(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Mode = rt.ModeBuffered
	base.RT = rt.DefaultConfig(rt.ModeBuffered)
	buffered, err := Run(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	if reactive.Interactive.MeanResponse < buffered.Interactive.MeanResponse {
		t.Fatalf("reactive protected the interactive task better than pro-active: %v vs %v",
			reactive.Interactive.MeanResponse, buffered.Interactive.MeanResponse)
	}
}

func TestRepeatModeLoopsProgram(t *testing.T) {
	spec := workload.MatvecScaled()
	cfg := TestRunConfig(rt.ModePrefetch)
	cfg.Repeat = true
	cfg.Horizon = 30 * sim.Second
	r, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Runs < 2 {
		t.Fatalf("repeat mode completed %d runs in %v", r.Runs, r.Elapsed)
	}
}

func TestResultAccountingConsistency(t *testing.T) {
	spec := workload.MatvecScaled()
	r, err := Run(spec, TestRunConfig(rt.ModeBuffered))
	if err != nil {
		t.Fatal(err)
	}
	// The main thread's bucket sum cannot exceed elapsed time, and
	// should cover most of it (everything the thread does is
	// accounted).
	total := r.TotalTime()
	if total > r.Elapsed {
		t.Fatalf("accounted %v exceeds elapsed %v", total, r.Elapsed)
	}
	if float64(total) < 0.85*float64(r.Elapsed) {
		t.Fatalf("accounted only %v of %v elapsed", total, r.Elapsed)
	}
}
