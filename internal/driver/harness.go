package driver

import (
	"fmt"

	"memhogs/internal/chaos"
	"memhogs/internal/compiler"
	"memhogs/internal/kernel"
	"memhogs/internal/pdpm"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

// The run harness: the steps Run, RunPair and RunTenants share. Each
// entry point compiles its programs, boots one machine, spawns its
// hogs and finishes through these, and keeps only what differs between
// them (the interactive task, the second hog, the job stream).

// Target returns the compiler target a run derives for the machine and
// program version: the default target with the version's prefetch and
// release hints switched on or off.
func Target(k kernel.Config, mode rt.Mode) compiler.Target {
	tgt := compiler.DefaultTarget(k.PageSize, k.UserMemPages)
	tgt.Prefetch = mode.UsesPrefetch()
	tgt.Release = mode.UsesRelease()
	return tgt
}

// validate rejects a configuration no entry point can honour.
func (cfg *RunConfig) validate() error {
	if err := cfg.Kernel.Validate(); err != nil {
		return err
	}
	if cfg.RT.Mode != cfg.Mode {
		return fmt.Errorf("driver: RT.Mode %v does not match Mode %v", cfg.RT.Mode, cfg.Mode)
	}
	names := []string{"Workers", "ReleaseBatch", "MaxQueue", "MaxPfQueue"}
	for i, v := range []int{cfg.RT.Workers, cfg.RT.ReleaseBatch, cfg.RT.MaxQueue, cfg.RT.MaxPfQueue} {
		if v <= 0 {
			return fmt.Errorf("driver: RT.%s = %d, want a positive value", names[i], v)
		}
	}
	return nil
}

// compile validates cfg and compiles spec for its machine and mode,
// through cfg.Cache when set. A nil cfg.Params becomes the spec's own
// bindings, so cfg.Params is what the image must be bound with.
func (cfg *RunConfig) compile(spec *workload.Spec) (*compiler.Compiled, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Params == nil {
		cfg.Params = spec.Params
	}
	tgt := Target(cfg.Kernel, cfg.Mode)
	if cfg.TargetTweak != nil {
		cfg.TargetTweak(&tgt)
	}
	var comp *compiler.Compiled
	var err error
	if cfg.Cache != nil {
		comp, err = cfg.Cache.Compile(spec, cfg.Params, tgt)
	} else {
		comp, err = compiler.Compile(spec.Program(cfg.Params), tgt)
	}
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", spec.Name, err)
	}
	return comp, nil
}

// harness is one booted machine: the system, its fault injector, and
// the run's audit and hog-error state.
type harness struct {
	cfg        RunConfig
	sys        *kernel.System
	inj        *chaos.Injector // nil without a chaos plan
	auditErr   error           // first inconsistency an audit found
	auditTicks int
	hogErr     error // first error a hog's program returned
}

// boot builds the system, runs the OnSystem hook, installs the chaos
// injector and schedules its timed faults, and arms the cadence audit.
// No process exists yet.
func boot(cfg RunConfig) *harness {
	h := &harness{cfg: cfg, sys: kernel.NewSystem(cfg.Kernel)}
	sys := h.sys
	if cfg.OnSystem != nil {
		cfg.OnSystem(sys)
	}
	if cfg.Chaos != nil {
		// The injector must exist before any run-time layer is built:
		// rt.New copies System.Chaos.
		h.inj = chaos.NewInjector(sys.Sim, sys.Events, *cfg.Chaos)
		sys.SetChaos(h.inj)
		// Hot-unplug may not take so much memory that the daemon's
		// steal target becomes unreachable.
		maxOff := cfg.Kernel.UserMemPages - 2*cfg.Kernel.TargetFreePages
		if maxOff < 0 {
			maxOff = 0
		}
		h.inj.ScheduleMem(sys.Phys, maxOff, sys.KickDaemons)
		if sys.Far != nil {
			// Far-tier hot-unplug drains only free slots, so leaving
			// half the tier as a floor keeps demotions meaningful.
			h.inj.ScheduleFar(sys.Far, cfg.Kernel.Far.Pages/2)
		}
		h.inj.OnFault = func(chaos.Site) { h.audit() }
	}
	if every := cfg.AuditEvery; every > 0 {
		var tick func()
		tick = func() {
			h.audit()
			h.auditTicks++
			if h.auditErr == nil {
				sys.Sim.At(sys.Now()+every, tick)
			}
		}
		sys.Sim.At(every, tick)
	}
	return h
}

// audit checks the whole machine; the first inconsistency stops the
// run and becomes its error, stamped with when it was found.
func (h *harness) audit() {
	if h.auditErr != nil {
		return
	}
	if err := h.sys.Audit(); err != nil {
		h.auditErr = fmt.Errorf("at t=%v: %w", h.sys.Now(), err)
		h.sys.Sim.Stop()
	}
}

// hog is one out-of-core process: its bound image, address space, PM
// (prefetching versions only) and run-time layer.
type hog struct {
	img   *compiler.Image
	proc  *kernel.Process
	pm    *pdpm.PM
	layer *rt.Layer
	runs  int // completed program iterations
}

// newHog creates a hog's process and run-time layer but does not start
// its thread, so a caller can start other processes in between: spawn
// order fixes event order.
func (h *harness) newHog(name string, img *compiler.Image) *hog {
	g := &hog{img: img, proc: h.sys.NewProcess(name, img.TotalPages)}
	if h.cfg.Mode.UsesPrefetch() {
		g.pm = g.proc.AttachPM(0)
	}
	g.layer = rt.New(g.proc, g.pm, h.cfg.RT)
	return g
}

// start starts the hog's thread: it runs the image once, or with
// cfg.Repeat loops it until the horizon. stopSim ends the whole
// simulation when the hog finishes.
func (h *harness) start(g *hog, stopSim bool) {
	repeat, horizon := h.cfg.Repeat, h.cfg.Horizon
	g.proc.Start(stopSim, func(th *kernel.Thread) {
		g.layer.Bind(th)
		for {
			if err := g.img.Run(g.layer); err != nil {
				if h.hogErr == nil {
					h.hogErr = err
				}
				return
			}
			g.runs++
			if !repeat || (horizon > 0 && th.Now() >= horizon) {
				return
			}
		}
	})
}

// finish runs the simulation to the horizon and reports the first hog
// error, then the first audit error. Every run doubles as a
// whole-system consistency check, so the final state is audited too.
// The processes still parked at the end (daemons, a horizon-cut hog;
// the disks are event-driven and own none) are unwound when finish
// returns, so no goroutine outlives the run; the caller reads only
// counters, which unwinding leaves alone.
func (h *harness) finish(name string) error {
	defer h.sys.Sim.Close()
	h.sys.Run(h.cfg.Horizon)
	if h.hogErr != nil {
		return fmt.Errorf("run %s: %w", name, h.hogErr)
	}
	if h.auditErr != nil {
		return fmt.Errorf("audit %s: %w", name, h.auditErr)
	}
	return h.sys.Audit()
}
