// Package driver assembles full experiment runs: it boots the
// simulated machine, compiles a benchmark for one of the paper's four
// program versions (O, P, R, B), wires up the PagingDirected PM and
// the run-time layer, optionally starts the interactive task, runs the
// simulation, and collects every statistic the paper's tables and
// figures need.
package driver

import (
	"fmt"

	"memhogs/internal/chaos"
	"memhogs/internal/compiler"
	"memhogs/internal/disk"
	"memhogs/internal/kernel"
	"memhogs/internal/mem"
	"memhogs/internal/pageout"
	"memhogs/internal/pdpm"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
	"memhogs/internal/workload"
)

// RunConfig describes one experiment run.
type RunConfig struct {
	Kernel kernel.Config
	Mode   rt.Mode
	RT     rt.Config

	// Params override the spec's full-size bindings (nil = full size).
	Params map[string]int64

	// Repeat loops the out-of-core program until the horizon instead
	// of running it once (the paper's interactive experiments run the
	// out-of-core program "repeatedly").
	Repeat  bool
	Horizon sim.Time

	// InteractiveSleep enables the concurrent interactive task with
	// the given think time; negative disables it. Only Run and
	// RunCompiled have the task; RunPair and RunTenants reject a
	// non-negative value.
	InteractiveSleep sim.Time

	// TargetTweak, if non-nil, adjusts the compiler target (for
	// ablations).
	TargetTweak func(*compiler.Target)

	// Cache, if non-nil, memoizes compilation across runs. Campaigns
	// share one cache so each distinct (spec, params, target)
	// combination compiles once; the key is built from the final
	// target, so TargetTweak composes with caching.
	Cache *CompileCache

	// OnSystem, if non-nil, is invoked with the booted system before
	// any process starts (trace recorders, extra instrumentation).
	OnSystem func(*kernel.System)

	// Chaos, if non-nil, runs the experiment under the given fault
	// plan: an injector seeded from the plan is installed on every
	// layer before any process starts, timed faults (memory
	// hot-unplug) are scheduled on the sim clock, and the whole
	// machine is audited after every injected fault.
	Chaos *chaos.Plan

	// AuditEvery, if positive, runs kernel.Audit on that virtual-time
	// cadence; the run fails with the audit error if any tick finds an
	// inconsistency.
	AuditEvery sim.Time
}

// DefaultRunConfig returns a full-platform configuration for one
// program version with no interactive task.
func DefaultRunConfig(mode rt.Mode) RunConfig {
	return RunConfig{
		Kernel:           kernel.DefaultConfig(),
		Mode:             mode,
		RT:               rt.DefaultConfig(mode),
		Horizon:          30 * 60 * sim.Second,
		InteractiveSleep: -1,
	}
}

// TestRunConfig returns a scaled-down configuration for unit tests and
// the chaos property harness.
func TestRunConfig(mode rt.Mode) RunConfig {
	c := DefaultRunConfig(mode)
	c.Kernel = kernel.TestConfig()
	return c
}

// InteractiveStats reports the interactive task's experience.
type InteractiveStats struct {
	Enabled      bool
	Sweeps       int
	MeanResponse sim.Time
	MaxResponse  sim.Time
	MeanPageIns  float64 // pages read from disk per sweep (Fig 10c)
	TotalPageIns int64
	StolenPages  int64
}

// Result is everything one run produced.
type Result struct {
	Bench   string
	Mode    rt.Mode
	Elapsed sim.Time
	Done    bool // out-of-core program ran to completion (non-Repeat)
	Runs    int  // completed program iterations (Repeat mode)

	Times       [vm.NumBuckets]sim.Time // main-thread breakdown (Fig 7)
	WorkerTimes [vm.NumBuckets]sim.Time

	VM       vm.Stats
	Disk     disk.Stats
	PM       pdpm.Stats
	RT       rt.Stats
	Daemon   pageout.DaemonStats
	Releaser pageout.ReleaserStats
	Balancer pageout.BalancerStats
	Phys     mem.Stats
	Far      mem.FarStats // zero unless the run had a far tier

	CompileStats compiler.Stats
	DataBytes    int64
	TotalPages   int

	// Memory-lock contention on the out-of-core process's address
	// space (the paper's daemon-vs-fault-handler interference).
	MemlockAcquisitions int64
	MemlockContended    int64
	MemlockWait         sim.Time
	MemlockHold         sim.Time

	Interactive InteractiveStats

	// Chaos counts injected faults per site (all zero without a plan);
	// AuditTicks counts completed cadence audits.
	Chaos      chaos.Counts
	AuditTicks int

	// SimClamps counts schedules the event loop had to clamp to "now"
	// because the requested time was already in the past. Any non-zero
	// value is a latent caller bug (see Sim.ClampedSchedules).
	SimClamps int64
}

// StallResources returns the paper's "stall for unavailable resources"
// bucket: memory + locks + CPU.
func (r *Result) StallResources() sim.Time {
	return r.Times[vm.BucketStallMem] + r.Times[vm.BucketStallLock] + r.Times[vm.BucketStallCPU]
}

// TotalTime returns the sum of the main thread's buckets.
func (r *Result) TotalTime() sim.Time {
	var t sim.Time
	for _, d := range r.Times {
		t += d
	}
	return t
}

// Run executes one experiment.
func Run(spec *workload.Spec, cfg RunConfig) (*Result, error) {
	comp, err := cfg.compile(spec)
	if err != nil {
		return nil, err
	}
	return RunCompiled(spec.Name, comp, cfg)
}

// RunCompiled executes an already-compiled program (the public API's
// custom-program path). The compiled target's Prefetch/Release flags
// must match cfg.Mode.
func RunCompiled(name string, comp *compiler.Compiled, cfg RunConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if comp.Target.Prefetch != cfg.Mode.UsesPrefetch() || comp.Target.Release != cfg.Mode.UsesRelease() {
		return nil, fmt.Errorf("driver: %s compiled with prefetch=%v release=%v, mode %v needs %v/%v", name,
			comp.Target.Prefetch, comp.Target.Release, cfg.Mode, cfg.Mode.UsesPrefetch(), cfg.Mode.UsesRelease())
	}
	img, err := comp.Bind(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("bind %s: %w", name, err)
	}

	h := boot(cfg)
	g := h.newHog(name, img)
	var inter *Interactive
	if cfg.InteractiveSleep >= 0 {
		inter = StartInteractive(h.sys, cfg.InteractiveSleep)
	}
	h.start(g, !cfg.Repeat)
	if err := h.finish(name); err != nil {
		return nil, err
	}

	sys, proc := h.sys, g.proc
	res := &Result{
		Bench:        name,
		Mode:         cfg.Mode,
		Elapsed:      proc.Elapsed(),
		Done:         proc.Done,
		Runs:         g.runs,
		Times:        proc.Times,
		WorkerTimes:  proc.WorkerTimes,
		VM:           proc.AS.Stats,
		RT:           g.layer.Stats,
		Disk:         sys.Disks.Stats(),
		Daemon:       sys.DaemonStats(),
		Releaser:     sys.ReleaserStats(),
		Balancer:     sys.BalancerStats(),
		Phys:         sys.Phys.Stats(),
		Far:          sys.Far.Stats(),
		CompileStats: comp.Stats,
		DataBytes:    img.DataBytes,
		TotalPages:   img.TotalPages,

		MemlockAcquisitions: proc.AS.Memlock.Acquisitions,
		MemlockContended:    proc.AS.Memlock.Contended,
		MemlockWait:         proc.AS.Memlock.WaitTime,
		MemlockHold:         proc.AS.Memlock.HoldTime,

		Chaos:      h.inj.Counts(),
		AuditTicks: h.auditTicks,
		SimClamps:  sys.Sim.ClampedSchedules(),
	}
	if g.pm != nil {
		res.PM = g.pm.Stats
	}
	if inter != nil {
		res.Interactive = inter.Stats()
	}
	return res, nil
}
