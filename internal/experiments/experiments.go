// Package experiments reproduces every table and figure of the
// paper's evaluation (§4). Each experiment has a data-collection
// function (shared across the figures that the paper derives from the
// same runs) and a formatter that renders the paper's table or figure
// as text.
//
// Experiment index:
//
//	Table 1   — hardware characteristics            (Table1)
//	Table 2   — benchmark characteristics           (Table2)
//	Figure 1  — interactive response vs sleep, O/P  (Fig1, from Sweep)
//	Figure 7  — execution-time breakdown O/P/R/B    (Fig7, from Versions)
//	Figure 8  — soft faults from invalidations      (Fig8, from Versions)
//	Table 3   — paging-daemon activity              (Table3, from Versions)
//	Figure 9  — outcomes of freed pages             (Fig9, from Versions)
//	Figure 10a — interactive response vs sleep      (Fig10a, from Sweep)
//	Figure 10b — normalized response, all benches   (Fig10b, from Interactive)
//	Figure 10c — interactive hard faults per sweep  (Fig10c, from Interactive)
package experiments

import (
	"fmt"
	"io"

	"memhogs/internal/driver"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// Modes is the paper's program-version order.
var Modes = []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeBuffered}

// Opts configures an experiment campaign.
type Opts struct {
	// Scaled selects the small test machine and scaled benchmarks
	// (fast, for CI); otherwise the full Table 1 platform is used.
	Scaled bool

	// Sleep is the interactive task's think time for the fixed-sleep
	// experiments (the paper uses five seconds).
	Sleep sim.Time

	// SleepTimes is the sweep for Figures 1 and 10(a).
	SleepTimes []sim.Time

	// Horizon bounds the repeat-mode interactive experiments.
	Horizon sim.Time

	// CompletionHorizon bounds the run-to-completion experiments
	// (Versions, sensitivity, vet cross-validation). Zero means the
	// paper's full 30 simulated minutes; Quick sets a small bound so a
	// misbehaving scaled benchmark cannot run half an hour of virtual
	// time in CI.
	CompletionHorizon sim.Time

	// Benches filters the benchmark set (nil = all six).
	Benches []string

	// Workers sizes the campaign worker pool (the memhog -j flag):
	// 0 means GOMAXPROCS, 1 forces serial execution. Every run is an
	// isolated deterministic simulation, so rendered figures and
	// tables are byte-identical at any setting.
	Workers int

	// Progress, if non-nil, receives one line per completed run.
	// Writes are serialized; under a parallel campaign the lines
	// arrive in completion order, but each line's text depends only on
	// its own run.
	Progress io.Writer
}

// aloneResponseSweeps is how many measured sweeps the run-alone
// baseline averages over. Both the sleep sweep (Figures 1 and 10a)
// and the fixed-sleep interactive campaign (Figure 10b/c) must use
// the same value: they once differed (5 vs 6), quietly normalizing
// Fig 10(a) and 10(b) against different baselines.
const aloneResponseSweeps = 6

// Default returns the paper's full-scale experiment configuration.
func Default() Opts {
	return Opts{
		Sleep:             5 * sim.Second,
		SleepTimes:        []sim.Time{0, 1 * sim.Second, 2 * sim.Second, 5 * sim.Second, 10 * sim.Second, 15 * sim.Second, 20 * sim.Second, 30 * sim.Second},
		Horizon:           25 * sim.Second,
		CompletionHorizon: 30 * 60 * sim.Second,
	}
}

// Quick returns a scaled-down campaign for tests and Go benchmarks.
func Quick() Opts {
	o := Default()
	o.Scaled = true
	o.Horizon = 10 * sim.Second
	// The slowest scaled run-to-completion benchmark (MGRID-O) needs
	// ~4.3 virtual seconds; 60 s is a >10x safety margin that still
	// keeps a runaway benchmark out of CI.
	o.CompletionHorizon = 60 * sim.Second
	o.Sleep = 1 * sim.Second
	o.SleepTimes = []sim.Time{0, 500 * sim.Millisecond, 1 * sim.Second, 2 * sim.Second}
	return o
}

// completionHorizon returns the bound for run-to-completion
// experiments, defaulting to the paper's 30 simulated minutes.
func (o Opts) completionHorizon() sim.Time {
	if o.CompletionHorizon > 0 {
		return o.CompletionHorizon
	}
	return 30 * 60 * sim.Second
}

// runConfig is the base config every campaign run starts from: the
// campaign's machine, run to completion within its horizon, no
// interactive task, compiling through the campaign's shared cache.
func (o Opts) runConfig(mode rt.Mode, cache *driver.CompileCache) driver.RunConfig {
	cfg := driver.DefaultRunConfig(mode)
	cfg.Kernel = o.kernelConfig()
	cfg.Horizon = o.completionHorizon()
	cfg.Cache = cache
	return cfg
}

func (o Opts) kernelConfig() kernel.Config {
	if o.Scaled {
		return kernel.TestConfig()
	}
	return kernel.DefaultConfig()
}

func (o Opts) specs() ([]*workload.Spec, error) {
	all := workload.All()
	if o.Scaled {
		all = workload.AllScaled()
	}
	if len(o.Benches) == 0 {
		return all, nil
	}
	var out []*workload.Spec
	for _, name := range o.Benches {
		found := false
		for _, s := range all {
			if s.Name == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
		}
	}
	return out, nil
}

// Versions is the shared dataset behind Figure 7, Figure 8, Table 3
// and Figure 9: each benchmark run once to completion in all four
// versions, with the interactive task running concurrently at the
// fixed sleep time (the paper's §4 setup).
type Versions struct {
	Opts    Opts
	Specs   []*workload.Spec
	Results map[string]map[rt.Mode]*driver.Result
}

// RunVersions collects the Versions dataset. The (benchmark × mode)
// grid runs on the campaign worker pool; a shared compile cache means
// each benchmark compiles once per distinct target (O and P each, R
// and B together) instead of once per run.
func RunVersions(o Opts) (*Versions, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	cache := driver.NewCompileCache()
	cells := grid(specs, Modes)
	res, err := runCells(o, cells,
		func(c cell) string { return "versions " + c.String() },
		func(c cell) (*driver.Result, string, error) {
			cfg := o.runConfig(c.mode, cache)
			cfg.InteractiveSleep = o.Sleep
			r, err := driver.Run(c.spec, cfg)
			if err != nil {
				return nil, "", err
			}
			return r, r.Elapsed.String(), nil
		})
	if err != nil {
		return nil, err
	}
	return &Versions{Opts: o, Specs: specs, Results: byBenchMode(cells, res)}, nil
}

// Interactive is the dataset behind Figures 10(b) and 10(c): each
// benchmark repeated until the horizon, all four versions, with the
// interactive task at the fixed sleep time, plus the run-alone
// baseline.
type Interactive struct {
	Opts    Opts
	Specs   []*workload.Spec
	Alone   sim.Time
	Results map[string]map[rt.Mode]*driver.Result
}

// interactiveRun runs one cell with the interactive task at sleep,
// repeating the benchmark until horizon. The run-alone cell's result
// carries only the interactive task's mean response.
func (o Opts) interactiveRun(c cell, sleep, horizon sim.Time, cache *driver.CompileCache) (*driver.Result, error) {
	if c.spec == nil {
		r := &driver.Result{}
		r.Interactive.MeanResponse = driver.AloneResponse(o.kernelConfig(), sleep, aloneResponseSweeps)
		return r, nil
	}
	cfg := o.runConfig(c.mode, cache)
	cfg.Repeat = true
	cfg.Horizon = horizon
	cfg.InteractiveSleep = sleep
	return driver.Run(c.spec, cfg)
}

// RunInteractive collects the Interactive dataset: the run-alone
// baseline plus the (benchmark × mode) grid, all on the campaign
// worker pool. The progress line reports the run's own mean response
// (not the alone-normalized ratio: the baseline is a concurrent cell,
// and a progress line must never depend on another cell's result).
func RunInteractive(o Opts) (*Interactive, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	cache := driver.NewCompileCache()
	cells := append([]cell{{}}, grid(specs, Modes)...)
	res, err := runCells(o, cells,
		func(c cell) string {
			if c.spec == nil {
				return "interactive alone"
			}
			return "interactive " + c.String()
		},
		func(c cell) (*driver.Result, string, error) {
			r, err := o.interactiveRun(c, o.Sleep, o.Horizon, cache)
			if err != nil {
				return nil, "", err
			}
			return r, r.Interactive.MeanResponse.String(), nil
		})
	if err != nil {
		return nil, err
	}
	return &Interactive{
		Opts:    o,
		Specs:   specs,
		Alone:   res[0].Interactive.MeanResponse,
		Results: byBenchMode(cells[1:], res[1:]),
	}, nil
}

// Sweep is the dataset behind Figures 1 and 10(a): the interactive
// task's response time across sleep times, with MATVEC running
// concurrently in each version, plus the run-alone baseline per sleep.
type Sweep struct {
	Opts   Opts
	Sleeps []sim.Time
	Alone  map[sim.Time]sim.Time
	// Response[mode][sleep] is the mean interactive response.
	Response map[rt.Mode]map[sim.Time]sim.Time
}

// sweepCell is one run of the sleep sweep.
type sweepCell struct {
	cell
	sleep sim.Time
}

// sweepHorizon is the sweep's per-sleep horizon: long enough for at
// least three interactive sweeps at the longest sleeps.
func sweepHorizon(o Opts, sleep sim.Time) sim.Time {
	h := o.Horizon
	if min := 3*sleep + 10*sim.Second; h < min {
		h = min
	}
	return h
}

// RunSweep collects the Sweep dataset using the MATVEC kernel, as in
// the paper. The cells are one alone baseline plus the four versions
// per distinct sleep time; the shared compile cache means MATVEC
// compiles once per distinct target instead of once per cell.
func RunSweep(o Opts) (*Sweep, error) {
	spec, err := workload.ByName("matvec")
	if o.Scaled {
		spec, err = workload.ScaledByName("matvec")
	}
	if err != nil {
		return nil, err
	}
	cache := driver.NewCompileCache()
	var cells []sweepCell
	seen := map[sim.Time]bool{}
	for _, sleep := range o.SleepTimes {
		if seen[sleep] {
			continue // deduplicated: one baseline and one run grid per distinct sleep
		}
		seen[sleep] = true
		cells = append(cells, sweepCell{sleep: sleep})
		for _, mode := range Modes {
			cells = append(cells, sweepCell{cell{spec, mode}, sleep})
		}
	}
	res, err := runCells(o, cells,
		func(c sweepCell) string {
			if c.spec == nil {
				return fmt.Sprintf("sweep alone sleep=%v", c.sleep)
			}
			return fmt.Sprintf("sweep sleep=%v %s", c.sleep, c.mode)
		},
		func(c sweepCell) (sim.Time, string, error) {
			r, err := o.interactiveRun(c.cell, c.sleep, sweepHorizon(o, c.sleep), cache)
			if err != nil {
				return 0, "", err
			}
			return r.Interactive.MeanResponse, r.Interactive.MeanResponse.String(), nil
		})
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		Opts:     o,
		Sleeps:   o.SleepTimes,
		Alone:    map[sim.Time]sim.Time{},
		Response: map[rt.Mode]map[sim.Time]sim.Time{},
	}
	for i, c := range cells {
		if c.spec == nil {
			s.Alone[c.sleep] = res[i]
		} else {
			entry(s.Response, c.mode)[c.sleep] = res[i]
		}
	}
	return s, nil
}
