// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. All benches run the scaled campaign (the tiny
// test machine) so `go test -bench=.` finishes in minutes; the full
// Table 1 platform is exercised by `memhog all` and recorded in
// EXPERIMENTS.md.
//
// The interesting output is the custom metrics reported via
// b.ReportMetric (virtual seconds, normalized response, fault counts),
// not ns/op.
package memhogs

import (
	"strconv"
	"testing"

	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/experiments"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
	"memhogs/internal/workload"
)

func quickOpts() experiments.Opts { return experiments.Quick() }

// benchCampaign runs the full Versions campaign (24 simulations, the
// heaviest experiment) at one worker-pool size; comparing the two
// benchmarks below measures the campaign engine's parallel speedup.
func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	o := quickOpts()
	o.Workers = workers
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunVersions(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSerial is the one-worker baseline.
func BenchmarkCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignParallel runs the same campaign with one worker per
// CPU. On a >= 4-core machine expect well over 1.5x the serial
// throughput; the runs are independent simulations, so scaling is
// limited only by the compile cache's brief serialization.
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 0) }

// BenchmarkTable1 renders the platform table (static).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1(quickOpts()).String() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTable2 compiles all six benchmarks and reports analysis
// sizes.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 reproduces Figure 1: interactive response vs sleep
// time with the original and prefetching MATVEC.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSweep(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := s.Sleeps[len(s.Sleeps)-1]
		b.ReportMetric(float64(s.Response[rt.ModePrefetch][last])/float64(s.Alone[last]), "P-resp-x")
		b.ReportMetric(float64(s.Response[rt.ModeOriginal][last])/float64(s.Alone[last]), "O-resp-x")
	}
}

// benchVersions runs the shared O/P/R/B dataset once per iteration.
func benchVersions(b *testing.B) *experiments.Versions {
	b.Helper()
	v, err := experiments.RunVersions(quickOpts())
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkFig7 reproduces Figure 7: the execution-time breakdown of
// all four versions of all six benchmarks. Reported metric: mean
// speedup of buffered releasing over prefetch-only.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := benchVersions(b)
		if experiments.Fig7(v) == "" {
			b.Fatal("empty")
		}
		var sum, n float64
		for _, spec := range v.Specs {
			p := v.Results[spec.Name][rt.ModePrefetch].Elapsed
			bb := v.Results[spec.Name][rt.ModeBuffered].Elapsed
			if bb > 0 {
				sum += float64(p) / float64(bb)
				n++
			}
		}
		b.ReportMetric(sum/n, "P/B-speedup")
	}
}

// BenchmarkFig8 reproduces Figure 8: soft faults caused by the paging
// daemon's reference-bit invalidations.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := benchVersions(b)
		var pf, rel int64
		for _, spec := range v.Specs {
			pf += v.Results[spec.Name][rt.ModePrefetch].VM.SoftFaultsDaemon
			rel += v.Results[spec.Name][rt.ModeAggressive].VM.SoftFaultsDaemon
		}
		b.ReportMetric(float64(pf), "P-softfaults")
		b.ReportMetric(float64(rel), "R-softfaults")
	}
}

// BenchmarkTable3 reproduces Table 3: paging-daemon activity with and
// without releasing.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := benchVersions(b)
		var stolenO, stolenR int64
		for _, spec := range v.Specs {
			stolenO += v.Results[spec.Name][rt.ModeOriginal].Daemon.Stolen
			stolenR += v.Results[spec.Name][rt.ModeAggressive].Daemon.Stolen
		}
		b.ReportMetric(float64(stolenO), "O-stolen")
		b.ReportMetric(float64(stolenR), "R-stolen")
	}
}

// BenchmarkFig9 reproduces Figure 9: outcomes of freed pages.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := benchVersions(b)
		if experiments.Fig9(v).String() == "" {
			b.Fatal("empty")
		}
		r := v.Results["mgrid"][rt.ModeAggressive].Phys
		if r.FreedByRelease > 0 {
			b.ReportMetric(100*float64(r.RescuedRelease)/float64(r.FreedByRelease), "mgrid-rescued-%")
		}
	}
}

// BenchmarkFig10a reproduces Figure 10(a): interactive response across
// sleep times for all MATVEC versions.
func BenchmarkFig10a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSweep(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := s.Sleeps[len(s.Sleeps)-1]
		b.ReportMetric(float64(s.Response[rt.ModeBuffered][last])/float64(s.Alone[last]), "B-resp-x")
	}
}

// BenchmarkFig10b reproduces Figure 10(b): normalized interactive
// response for every benchmark and version at the fixed sleep time.
func BenchmarkFig10b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.RunInteractive(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		worstP, worstB := 0.0, 0.0
		for _, spec := range d.Specs {
			p := float64(d.Results[spec.Name][rt.ModePrefetch].Interactive.MeanResponse) / float64(d.Alone)
			bb := float64(d.Results[spec.Name][rt.ModeBuffered].Interactive.MeanResponse) / float64(d.Alone)
			if p > worstP {
				worstP = p
			}
			if bb > worstB {
				worstB = bb
			}
		}
		b.ReportMetric(worstP, "worst-P-x")
		b.ReportMetric(worstB, "worst-B-x")
	}
}

// BenchmarkFig10c reproduces Figure 10(c): interactive hard faults per
// sweep.
func BenchmarkFig10c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.RunInteractive(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.Results["matvec"][rt.ModePrefetch].Interactive.MeanPageIns, "P-pageins")
		b.ReportMetric(d.Results["matvec"][rt.ModeBuffered].Interactive.MeanPageIns, "B-pageins")
	}
}

// runScaled runs one scaled benchmark with a tweaked configuration and
// reports its virtual elapsed time.
func runScaled(b *testing.B, name string, mode rt.Mode, tweak func(*driver.RunConfig)) *driver.Result {
	b.Helper()
	spec, err := workload.ScaledByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := driver.TestRunConfig(mode)
	cfg.RT = rt.DefaultConfig(mode)
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := driver.Run(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationBuffering compares aggressive releasing against
// buffered releasing on MATVEC (the paper's R-vs-B headline).
func BenchmarkAblationBuffering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runScaled(b, "matvec", rt.ModeAggressive, nil)
		bu := runScaled(b, "matvec", rt.ModeBuffered, nil)
		b.ReportMetric(r.Elapsed.Seconds(), "R-vsec")
		b.ReportMetric(bu.Elapsed.Seconds(), "B-vsec")
		b.ReportMetric(float64(r.Phys.RescuedRelease), "R-rescues")
	}
}

// BenchmarkAblationBatchSize varies the run-time layer's release batch
// (the paper fixes 100 and notes it never experimented with it).
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{10, 100, 1000} {
		batch := batch
		b.Run(sizeName(batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "fftpde", rt.ModeBuffered, func(c *driver.RunConfig) {
					c.RT.ReleaseBatch = batch
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(float64(r.Releaser.Freed), "freed")
			}
		})
	}
}

// BenchmarkAblationWorkers varies the number of prefetch worker
// threads.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, workers := range []int{1, 4, 8, 16} {
		workers := workers
		b.Run(sizeName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "matvec", rt.ModePrefetch, func(c *driver.RunConfig) {
					c.RT.Workers = workers
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(r.Times[vm.BucketStallIO].Seconds(), "io-vsec")
			}
		})
	}
}

// BenchmarkAblationSharedPage compares lazy shared-page updates (the
// paper's choice) against immediate updates.
func BenchmarkAblationSharedPage(b *testing.B) {
	for _, immediate := range []bool{false, true} {
		immediate := immediate
		name := "lazy"
		if immediate {
			name = "immediate"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "matvec", rt.ModeBuffered, func(c *driver.RunConfig) {
					c.Kernel.PM.ImmediateUpdates = immediate
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(float64(r.PM.SharedRefreshes), "refreshes")
			}
		})
	}
}

// BenchmarkAblationThresholdNotify evaluates §3.1.1's unexplored
// alternative: refresh the shared page when free memory drifts beyond
// a threshold, instead of only on the process's own memory activity.
func BenchmarkAblationThresholdNotify(b *testing.B) {
	for _, threshold := range []int{0, 16, 64} {
		threshold := threshold
		name := "lazy"
		if threshold > 0 {
			name = sizeName(threshold)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "fftpde", rt.ModeBuffered, func(c *driver.RunConfig) {
					c.Kernel.PM.NotifyThreshold = threshold
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(float64(r.PM.SharedRefreshes), "refreshes")
			}
		})
	}
}

// BenchmarkAblationConservativeReleases compares the paper's
// aggressive insertion policy against the conservative §2.3.2 policy
// (skip releases whose reuse the compiler expects to exploit).
func BenchmarkAblationConservativeReleases(b *testing.B) {
	for _, aggressive := range []bool{true, false} {
		aggressive := aggressive
		name := "aggressive"
		if !aggressive {
			name = "conservative"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "matvec", rt.ModeAggressive, func(c *driver.RunConfig) {
					c.TargetTweak = func(t *compiler.Target) { t.Aggressive = aggressive }
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(float64(r.Phys.RescuedRelease), "rescues")
			}
		})
	}
}

// BenchmarkAblationRescue compares the free-list rescue mechanism
// against reading freed pages back from swap.
func BenchmarkAblationRescue(b *testing.B) {
	for _, noRescue := range []bool{false, true} {
		noRescue := noRescue
		name := "rescue"
		if noRescue {
			name = "no-rescue"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "mgrid", rt.ModeAggressive, func(c *driver.RunConfig) {
					c.Kernel.VM.NoRescue = noRescue
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(float64(r.VM.PageIns), "pageins")
			}
		})
	}
}

// BenchmarkAblationHardwareRefBits asks the paper's closing question:
// how much of the soft-fault overhead disappears on a machine with
// hardware reference bits?
func BenchmarkAblationHardwareRefBits(b *testing.B) {
	for _, hw := range []bool{false, true} {
		hw := hw
		name := "software"
		if hw {
			name = "hardware"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "buk", rt.ModePrefetch, func(c *driver.RunConfig) {
					c.Kernel.VM.HardwareRefBits = hw
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(float64(r.VM.SoftFaultsDaemon), "daemon-softfaults")
			}
		})
	}
}

// BenchmarkAblationReadahead varies swap-in clustering.
func BenchmarkAblationReadahead(b *testing.B) {
	for _, ra := range []int{1, 4, 8, 16} {
		ra := ra
		b.Run(sizeName(ra), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "embar", rt.ModeOriginal, func(c *driver.RunConfig) {
					c.Kernel.VM.Readahead = ra
				})
				b.ReportMetric(r.Elapsed.Seconds(), "vsec")
				b.ReportMetric(float64(r.VM.HardFaults), "hardfaults")
			}
		})
	}
}

// BenchmarkExtensionAdaptive evaluates the paper's proposed fix for
// MGRID and FFTPDE ("generate more adaptive code"): adaptive codegen
// resolves symbolic strides at run time and tracks true trailing
// references under unknown bounds.
func BenchmarkExtensionAdaptive(b *testing.B) {
	for _, bench := range []string{"fftpde", "mgrid"} {
		bench := bench
		for _, adaptive := range []bool{false, true} {
			adaptive := adaptive
			name := bench + "/baseline"
			if adaptive {
				name = bench + "/adaptive"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := runScaled(b, bench, rt.ModeBuffered, func(c *driver.RunConfig) {
						c.TargetTweak = func(t *compiler.Target) { t.Adaptive = adaptive }
					})
					b.ReportMetric(r.Elapsed.Seconds(), "vsec")
					b.ReportMetric(float64(r.Phys.RescuedRelease), "rescues")
					b.ReportMetric(float64(r.Daemon.Stolen), "stolen")
				}
			})
		}
	}
}

// BenchmarkReactiveVsProactive compares the §2.2 design points: the
// VINO-style reactive scheme (OS asks the app for victims at reclaim
// time) against the paper's pro-active releasing, under the
// interactive workload. The paper predicts the reactive scheme fails
// to protect the interactive task.
func BenchmarkReactiveVsProactive(b *testing.B) {
	for _, mode := range []rt.Mode{rt.ModeReactive, rt.ModeBuffered} {
		mode := mode
		name := "reactive"
		if mode == rt.ModeBuffered {
			name = "proactive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runScaled(b, "matvec", mode, func(c *driver.RunConfig) {
					c.Repeat = true
					c.Horizon = 15 * sim.Second
					c.InteractiveSleep = 2 * sim.Second
				})
				b.ReportMetric(r.Interactive.MeanResponse.Millis(), "resp-ms")
				b.ReportMetric(float64(r.Daemon.Stolen), "stolen")
				b.ReportMetric(float64(r.Daemon.Donated), "donated")
			}
		})
	}
}

// BenchmarkDuel runs two memory hogs concurrently (prefetch-only vs
// buffered releasing): the multiprogrammed scenario of the paper's
// introduction.
func BenchmarkDuel(b *testing.B) {
	matvec, mgrid := workload.MatvecScaled(), workload.MgridScaled()
	for i := 0; i < b.N; i++ {
		pa, pb, err := driver.RunPair(matvec, mgrid, driver.TestRunConfig(rt.ModePrefetch))
		if err != nil {
			b.Fatal(err)
		}
		ra, rb, err := driver.RunPair(matvec, mgrid, driver.TestRunConfig(rt.ModeBuffered))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pa.VM.StolenPages+pb.VM.StolenPages), "P-mutual-stolen")
		b.ReportMetric(float64(ra.VM.StolenPages+rb.VM.StolenPages), "B-mutual-stolen")
	}
}

// BenchmarkSensitivity sweeps memory size for MATVEC (P vs B): the
// crossover study the paper's fixed platform leaves open.
func BenchmarkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSensitivity(quickOpts(), "matvec", []float64{0.5, 1.25})
		if err != nil {
			b.Fatal(err)
		}
		scarce := s.Points[0]
		ample := s.Points[len(s.Points)-1]
		b.ReportMetric(float64(scarce.Stolen[rt.ModePrefetch]), "scarce-P-stolen")
		b.ReportMetric(float64(ample.Stolen[rt.ModePrefetch]), "ample-P-stolen")
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: virtual
// seconds simulated per wall second on the densest workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runScaled(b, "cgm", rt.ModeBuffered, nil)
		b.ReportMetric(r.Elapsed.Seconds(), "vsec")
	}
}

// BenchmarkInteractiveAlone measures the baseline interactive response
// machinery.
func BenchmarkInteractiveAlone(b *testing.B) {
	cfg := driver.TestRunConfig(rt.ModeOriginal)
	for i := 0; i < b.N; i++ {
		resp := driver.AloneResponse(cfg.Kernel, sim.Second, 5)
		if resp <= 0 {
			b.Fatal("no response")
		}
	}
}

func sizeName(n int) string { return strconv.Itoa(n) }
